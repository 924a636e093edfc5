"""The selectable event-calculus background theory over the KB's moment
order (`logic.MomentOrder`, built by `KbDocument.order`).

Two flavors: ``minimal`` contributes no frame axioms at all, so fluent
persistence must be assumed explicitly where a scenario needs it;
``inertial`` adds the usual discrete inertia schema over
holds/happens/initiates/terminates/initially/clipped.  Because the prover
is classical, the inertial flavor also materializes ground clipping
completion facts at load time: for every fluent and ordered moment pair,
``(not (clipped r f s))`` is asserted unless the KB states a terminating
event inside the window (or asserts the clipping itself).
"""

from __future__ import annotations

from .errors import KbError
from .logic import (
    And, App, Atom, Forall, Implies, MomentOrder, Not, Var,
    stated_ground_atoms,
)


def ec_axioms(flavor: str) -> tuple:
    """The flavor's axiom schemas, independent of any KB."""
    if flavor == "minimal":
        return ()
    if flavor != "inertial":
        raise KbError(f"unknown ec flavor {flavor!r}")
    e = Var("e", "Event")
    f = Var("f", "Fluent")
    t1 = Var("t1", "Moment")
    t2 = Var("t2", "Moment")
    inertia = Forall(e, Forall(f, Forall(t1, Forall(t2, Implies(
        And((
            Atom(App("happens", (e, t1), "Boolean")),
            Atom(App("initiates", (e, f, t1), "Boolean")),
            Atom(App("prior", (t1, t2), "Boolean")),
            Not(Atom(App("clipped", (t1, f, t2), "Boolean"))),
        )),
        Atom(App("holds", (f, t2), "Boolean")),
    )))))
    return (inertia,)


def background(kb) -> tuple:
    """Ground moment-order facts plus the selected flavor's theory."""
    order = kb.order()
    facts = [
        Atom(App("prior", (kb.moment(a), kb.moment(b)), "Boolean"))
        for a, b in order.pairs()
    ]
    out = list(ec_axioms(kb.params.ec_flavor)) + facts
    if kb.params.ec_flavor == "inertial":
        out.extend(_clipping_completion(kb, order))
        out.extend(_initially_bridge(kb, order))
    return tuple(out)


def _clipping_completion(kb, order: MomentOrder) -> list:
    axioms = [ax.formula for ax in kb.axioms]
    happens = stated_ground_atoms(axioms, "happens")
    terminates = stated_ground_atoms(axioms, "terminates")
    stated_clipped = stated_ground_atoms(axioms, "clipped")
    fluents = kb.herbrand().get("Fluent", ())
    out = []
    for fl in fluents:
        for r in order.moments:
            for s in order.moments:
                if not order.lt(r, s):
                    continue
                triple = (kb.moment(r), fl, kb.moment(s))
                clipped_here = triple in stated_clipped
                if not clipped_here:
                    for (ev, tfl, tm) in terminates:
                        if tfl != fl:
                            continue
                        t = tm.name
                        if (ev, tm) in happens and order.le(r, t) and order.lt(t, s):
                            clipped_here = True
                            break
                atom = Atom(App("clipped", triple, "Boolean"))
                out.append(atom if clipped_here else Not(atom))
    return out


def _initially_bridge(kb, order: MomentOrder) -> list:
    m0 = order.minimum()
    if m0 is None:
        return []
    f = Var("f", "Fluent")
    t = Var("t", "Moment")
    start = kb.moment(m0)
    return [
        Forall(f, Implies(
            Atom(App("initially", (f,), "Boolean")),
            Atom(App("holds", (f, start), "Boolean")),
        )),
        Forall(f, Forall(t, Implies(
            And((
                Atom(App("initially", (f,), "Boolean")),
                Atom(App("prior", (start, t), "Boolean")),
                Not(Atom(App("clipped", (start, f, t), "Boolean"))),
            )),
            Atom(App("holds", (f, t), "Boolean")),
        ))),
    ]

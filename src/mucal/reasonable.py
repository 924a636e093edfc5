"""The agent/moment-indexed reasonableness comparison.

A comparison of two formulas resolves through a strict three-clause
cascade on their contents: declared probabilities when both are tabled,
proof cost when both are derivable for the agent, and otherwise the
minimal-revision distance delta.

Attitude handling: a belief about the comparison frame compares by its
content; a negated belief compares like belief in the negated content;
withholding compares only against belief in the same content, where
"withholding beats believing" coincides with the opposite belief winning,
and "believing beats withholding" requires the maximal grade of the
deciding clause (probability exactly 1, or derivable outright while the
negation is not).  These reductions are what make the strength hierarchy
collapse-free: level subsumption holds by construction instead of by
luck.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .logic import (
    And, Falsum, Formula, FrozenRecord, Not, Record, expand_sugar, formula_key,
    is_belief_at, negation_of, weight,
)
from .prover import Proof, held_axioms, prove, rho
from . import models


# ---------------------------------------------------------------------------
# Probability table

class ProbTable(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None) -> None:
        # (agent, moment, key) -> Fraction
        self.entries = {} if entries is None else entries

    @classmethod
    def from_kb(cls, kb) -> "ProbTable":
        return cls({(e.agent, e.moment, formula_key(e.formula)): e.value
                    for e in kb.prob_entries})


def pr_lookup(table: ProbTable, agent: str, moment: str, f: Formula) -> Fraction | None:
    """Declared value, else the complement of the declared negation, else
    undefined.  Never invents values."""
    key = (agent, moment, formula_key(f))
    if key in table.entries:
        return table.entries[key]
    neg_key = (agent, moment, formula_key(negation_of(f)))
    if neg_key in table.entries:
        return 1 - table.entries[neg_key]
    return None


# ---------------------------------------------------------------------------
# Revision witnesses

_set = object.__setattr__


class RevisionWitness(FrozenRecord):
    __slots__ = ("theta", "lam", "distance", "proof")

    def __init__(self, theta: tuple, lam: tuple, distance: int, proof: Proof | None) -> None:
        _set(self, "theta", theta)  # (label, formula) additions
        _set(self, "lam", lam)      # (label, formula) removals
        _set(self, "distance", distance)
        _set(self, "proof", proof)

    @property
    def theta_labels(self) -> tuple:
        return tuple(l for l, _ in self.theta)

    @property
    def lam_labels(self) -> tuple:
        return tuple(l for l, _ in self.lam)


class ReasonablenessVerdict(FrozenRecord):
    __slots__ = ("holds", "clause", "evidence", "note")

    def __init__(self, holds: bool, clause: str, evidence: dict | None = None,
                 note: str = "") -> None:
        _set(self, "holds", holds)
        _set(self, "clause", clause)  # I | II | III | inapplicable
        _set(self, "evidence", {} if evidence is None else evidence)
        _set(self, "note", note)


# ---------------------------------------------------------------------------
# Engine

class _Frame(Record):
    """What every proof and check at one (agent, moment, removals) frame
    shares: the projection's head and its two consistency prefixes, the
    refutation prefix keeping the countermodels its checks find.  The
    frame keeps no universe and no moment order; each proof builds its
    order from its own premises when a rule reads it."""

    __slots__ = ("head", "feasible_base", "refute_base")

    def __init__(self, head: tuple, feasible_base: models.Grounding | None = None,
                 refute_base: models.Grounding | None = None) -> None:
        self.head = head  # the projection's axiom-derived premises
        # the premise prefixes of the two per-pair consistency checks, each
        # grounded on its first use: the feasibility check's remaining
        # axioms + background, and the refutation check's head + background
        self.feasible_base = feasible_base
        self.refute_base = refute_base


class _Goal(Record):
    """What every check and proof of one goal shares.  Its universe is
    `kb.herbrand()` itself unless the goal names a domain term outside it,
    so a goal that names only new atoms reuses the frames' groundings."""

    __slots__ = ("content", "universe")

    def __init__(self, content: Formula, universe: dict) -> None:
        self.content = content
        self.universe = universe  # kb.herbrand() widened by the goal's terms


class ReasonEngine:
    """Caches proofs, consistency checks, revision searches and the shared
    premise frames for one KB."""

    def __init__(self, kb):
        self.kb = kb
        self.prob = ProbTable.from_kb(kb)
        self._provable: dict = {}
        self._delta: dict = {}
        self._feasible: dict = {}
        self._frames: dict = {}
        self._budget_hits: set = set()  # delta keys with budget-skipped pairs

    def _goal(self, content: Formula) -> _Goal:
        return _Goal(content, self.kb.universe((content,)))

    # -- agent-relative derivability ------------------------------------

    def provable(self, agent: str, moment: str, f: Formula) -> Proof | None:
        """A proof of f's content from the agent's projection at the moment,
        or None.  A goal that `_refuted` refutes on the frame with no
        removals gets None without a proof search, which would fail."""
        content = self._strip_frame(f, agent, moment)
        key = (agent, moment, formula_key(content))
        if key not in self._provable:
            goal = self._goal(content)
            refuted = self._refuted(self._frame(agent, moment, frozenset()), goal, ())
            self._provable[key] = None if refuted else self._prove(agent, moment, goal)
        return self._provable[key]

    def _frame(self, agent: str, moment: str, lam_labels: frozenset) -> _Frame:
        key = (agent, moment, tuple(sorted(lam_labels)))
        frame = self._frames.get(key)
        if frame is None:
            head = held_axioms(self.kb, agent, moment, exclude=lam_labels)
            frame = self._frames[key] = _Frame(head)
        return frame

    def _prove(self, agent: str, moment: str, goal: _Goal, theta_forms: tuple = (),
               lam_labels: frozenset = frozenset()) -> Proof | None:
        """Prove the goal from the frame's projection with the additions
        over the goal's universe; `prove` builds the moment order from
        those premises if a rule reads it."""
        frame = self._frame(agent, moment, lam_labels)
        extra = tuple(expand_sugar(f) for f in theta_forms)
        res = prove(
            frame.head + extra + self.kb.background(), goal.content,
            depth=self.kb.params.proof_depth,
            universe=goal.universe,
        )
        return res.proof if res.outcome == "proved" else None

    def _strip_frame(self, f: Formula, agent: str, moment: str) -> Formula:
        f = expand_sugar(f)
        while is_belief_at(f, agent, moment):
            f = f.body
        return f

    # -- delta ------------------------------------------------------------

    def delta(self, agent: str, moment: str, goal: Formula) -> RevisionWitness | None:
        """Minimal-distance consistent revision that derives the goal.

        The addition space is layered: subsets of the declared candidate
        pool are searched first; the goal itself is admitted as the
        fallback addition only when no pool-based pair is feasible.
        Removals range over non-certain axioms.  Pairs are tried
        best-first by (distance, change count, labels), all known before
        any proof, so the first feasible pair that derives the goal is
        the minimal witness and the search stops there.  A pair whose
        proof premises have a ground model that falsifies the goal is
        rejected without a proof search (`_refuted`, through
        `models.Grounding.refutes`); that is exact where the prover is
        sound for the semantics of `models` (domain closure over the
        proof's universe, opaque modal atoms, belief closure to depth 2),
        which holds on modal-free premises and goals, the only ones the
        check answers for.
        """
        content = self._strip_frame(goal, agent, moment)
        ckey = (agent, moment, formula_key(content))
        if ckey in self._delta:
            return self._delta[ckey]

        # falsum gets no zero-distance shortcut even from an inconsistent
        # base; only the consistency-constrained search below may speak
        direct = (
            None if formula_key(content) == formula_key(Falsum())
            else self.provable(agent, moment, content)
        )
        if direct is not None:
            witness = RevisionWitness((), (), 0, direct)
            self._delta[ckey] = witness
            return witness

        axiom_keys = {formula_key(a.formula) for a in self.kb.axioms}
        pool = [
            (c.label, c.formula)
            for c in sorted(self.kb.candidates, key=lambda c: c.label)
            if formula_key(c.formula) not in axiom_keys
        ]
        removables = sorted(self.kb.removable_axioms(), key=lambda a: a.label)
        add_max = self.kb.params.add_max
        lams = [
            (sum(weight(a.formula) for a in lam), lam)
            for size in range(self.kb.params.remove_max + 1)
            for lam in combinations(removables, size)
        ]
        target = self._goal(content)

        def search(thetas) -> RevisionWitness | None:
            ranked = []
            for theta in thetas:
                theta_weight = sum(weight(f) for _, f in theta)
                for lam_weight, lam in lams:
                    ranked.append((
                        (
                            theta_weight + lam_weight,
                            len(theta) + len(lam),
                            tuple(l for l, _ in theta),
                            tuple(a.label for a in lam),
                        ),
                        theta, lam,
                    ))
            ranked.sort(key=lambda r: r[0])
            for (distance, *_), theta, lam in ranked:
                found = self._try_pair(agent, moment, target, theta, lam, distance)
                if found is not None:
                    return found
            return None

        witness = search(
            theta
            for size in range(1, min(add_max, len(pool)) + 1)
            for theta in combinations(pool, size)
        )
        if witness is None:
            # the goal itself as the trivial addition keeps delta total;
            # admitted only when the declared pool yields no feasible pair
            witness = search([(("+goal", content),)])
        self._delta[ckey] = witness
        return witness

    def _try_pair(self, agent, moment, goal: _Goal, theta, lam,
                  distance: int) -> RevisionWitness | None:
        """The witness for one (additions, removals) pair, or None.

        The pair must be consistent with the remaining axioms and
        background (`_feasibility`), its proof premises must not be
        refuted (`_refuted`), and the prover must derive the goal from
        them.  The refutation only rejects pairs whose proof search would
        fail, and the prover keeps no state between calls, so the first
        witness and its proof are those a search without it finds.
        """
        lam_labels = frozenset(a.label for a in lam)
        theta_forms = tuple(f for _, f in theta)
        frame = self._frame(agent, moment, lam_labels)
        fkey = (tuple((l, formula_key(f)) for l, f in theta), tuple(sorted(lam_labels)))

        if fkey not in self._feasible:
            self._feasible[fkey] = self._feasibility(frame, lam_labels, theta_forms, goal)
        if self._feasible[fkey] != models.CONSISTENT:
            if self._feasible[fkey] == models.UNKNOWN:
                # conservative: a budget-exhausted check makes the pair
                # infeasible, and the verdict will say so
                self._budget_hits.add((agent, moment, formula_key(goal.content)))
            return None

        if self._refuted(frame, goal, theta_forms):
            return None
        proof = self._prove(agent, moment, goal, theta_forms, lam_labels)
        if proof is None:
            return None
        return RevisionWitness(
            theta=tuple(theta),
            lam=tuple((a.label, a.formula) for a in lam),
            distance=distance,
            proof=proof,
        )

    def _feasibility(self, frame: _Frame, lam_labels: frozenset, theta_forms: tuple,
                     goal: _Goal) -> str:
        """`models.consistent` on the axioms outside the removals, the
        additions and the background, over `kb.herbrand()` widened by the
        additions' terms: the goal's universe when the goal is among them,
        and `kb.herbrand()` otherwise, since the pool adds no term.  The
        axioms and background are grounded once per frame."""
        budget = self.kb.params.consistency_depth
        herbrand = self.kb.herbrand()
        if frame.feasible_base is None:
            kept = tuple(a.formula for a in self.kb.axioms if a.label not in lam_labels)
            frame.feasible_base = models.Grounding(kept + self.kb.background(), budget, herbrand)
        universe = goal.universe if goal.content in theta_forms else herbrand
        return models.consistent(theta_forms, budget, universe, base=frame.feasible_base)

    def _refuted(self, frame: _Frame, goal: _Goal, theta_forms: tuple) -> bool:
        """Whether the proof premises of the pair (the frame's head, the
        additions and the background) have a ground model, over the goal's
        universe (the proof's own), in which the goal is false
        (`models.Grounding.refutes`).  The head and background are
        grounded once per frame, over `kb.herbrand()`.

        Then a prover that is sound for `models`' semantics cannot derive
        the goal, so no proof search is needed.  The prover is sound for
        it on modal-free input: domain closure over the same universe is
        the only thing its ground quantifier rules assume.  A belief or
        perception node anywhere in the premises or the goal turns the
        check off, because the prover's belief closure (`r_b`) reads every
        belief it holds, derived ones included, and to any depth, while
        `models` pins only what stated beliefs entail, to depth 2.
        Only a consistent check refutes: an `unknown` one leaves the pair
        to the prover.  A model the prefix kept from an earlier check may
        refute where the full check would overflow; the proof search it
        skips would fail all the same.
        """
        if frame.refute_base is None:
            frame.refute_base = models.Grounding(
                frame.head + self.kb.background(),
                self.kb.params.consistency_depth, self.kb.herbrand(),
            )
        return frame.refute_base.refutes(theta_forms, goal.content, goal.universe)

    # -- the cascade -------------------------------------------------------

    def more_reasonable(self, agent: str, moment: str, f: Formula,
                        g: Formula, *, verdict_only: bool = False) -> ReasonablenessVerdict:
        """Whether believing f is more reasonable than believing g for the
        agent at the moment, with the deciding clause and its evidence.
        With `verdict_only`, only `.holds` is meaningful: see
        `_compare_contents`."""
        self.kb.frame_terms(agent, moment)  # an undeclared name is an error first
        fx = expand_sugar(f)
        gx = expand_sugar(g)
        if formula_key(fx) == formula_key(gx):
            return ReasonablenessVerdict(False, "inapplicable", note="irreflexive")
        fa = self._attitude(fx, agent, moment)
        ga = self._attitude(gx, agent, moment)

        if fa[0] == "W" or ga[0] == "W":
            return self._with_withholding(agent, moment, fa, ga)
        return self._compare_contents(agent, moment, fa[1], ga[1],
                                      verdict_only=verdict_only)

    def _attitude(self, f: Formula, agent: str, moment: str):
        if is_belief_at(f, agent, moment):
            return ("B", f.body)
        if isinstance(f, Not) and is_belief_at(f.body, agent, moment):
            # not believing compares like believing the opposite
            return ("B", negation_of(f.body.body))
        if isinstance(f, And) and len(f.args) == 2:
            a, b = f.args
            if (
                isinstance(a, Not) and is_belief_at(a.body, agent, moment)
                and isinstance(b, Not) and is_belief_at(b.body, agent, moment)
            ):
                ca, cb = a.body.body, b.body.body
                complementary = (
                    formula_key(negation_of(ca)) == formula_key(cb)
                    or formula_key(ca) == formula_key(negation_of(cb))
                )
                if complementary:
                    if isinstance(ca, Not) and not isinstance(cb, Not):
                        content = cb
                    else:
                        content = ca
                    return ("W", content)
        return ("B", f)

    def _with_withholding(self, agent, moment, fa, ga) -> ReasonablenessVerdict:
        def family(c: Formula) -> tuple:
            return (formula_key(c), formula_key(negation_of(c)))

        if fa[0] == "W" and ga[0] == "W":
            if formula_key(fa[1]) in family(ga[1]):
                return ReasonablenessVerdict(False, "inapplicable", note="irreflexive")
            return ReasonablenessVerdict(
                False, "inapplicable", note="withholding comparisons need a shared content"
            )
        if fa[0] == "W":
            phi = ga[1]
            if formula_key(fa[1]) not in family(phi):
                return ReasonablenessVerdict(
                    False, "inapplicable",
                    note="withholding comparisons need a shared content",
                )
            # withholding beats believing exactly when the opposite belief does
            return self._compare_contents(agent, moment, negation_of(phi), phi)
        phi = fa[1]
        if formula_key(ga[1]) not in family(phi):
            return ReasonablenessVerdict(
                False, "inapplicable",
                note="withholding comparisons need a shared content",
            )
        return self._belief_over_withholding(agent, moment, phi)

    def _belief_over_withholding(self, agent, moment, phi: Formula) -> ReasonablenessVerdict:
        """Believing must reach the deciding clause's maximal grade to beat
        withholding; anything short of that leaves withholding standing."""
        p = pr_lookup(self.prob, agent, moment, phi)
        if p is not None:
            pneg = pr_lookup(self.prob, agent, moment, negation_of(phi))
            holds = p == 1 and pneg == 0
            return ReasonablenessVerdict(
                holds, "I", evidence={"pr_left": p, "pr_right": pneg},
                note="belief-vs-withholding at the certainty threshold",
            )
        wpos = self.delta(agent, moment, phi)
        wneg = self.delta(agent, moment, negation_of(phi))
        if wpos is None and wneg is None:
            return ReasonablenessVerdict(
                False, "inapplicable", note="no consistent revision reaches either side"
            )
        holds = wpos is not None and wpos.distance == 0 and (
            wneg is None or wneg.distance > 0
        )
        return ReasonablenessVerdict(
            holds, "III",
            evidence={"delta_left": wpos, "delta_right": wneg},
            note="belief-vs-withholding at the zero-revision grade",
        )

    def _compare_contents(self, agent, moment, x: Formula, y: Formula, *,
                          verdict_only: bool = False) -> ReasonablenessVerdict:
        """Clause I, else II, else III of the cascade for contents x and y.

        With `verdict_only`, a caller that reads only `.holds` (the rival
        test, `StrengthEngine._rivals`) skips the revision search when
        clause III cannot hold: y is provable, so its distance is 0 and no
        distance of x undercuts it.  That verdict carries no evidence, and
        the skipped `delta(x)` fills neither the `_delta` cache nor
        `_budget_hits`.
        """
        if formula_key(x) == formula_key(y):
            return ReasonablenessVerdict(False, "inapplicable", note="irreflexive")
        # falsum never enters the probability or proof-cost clauses: it has
        # no probability and no derivation worth costing even from an
        # inconsistent base, so nothing can be less reasonable than it
        x_false = formula_key(x) == formula_key(Falsum())
        y_false = formula_key(y) == formula_key(Falsum())
        px = None if x_false else pr_lookup(self.prob, agent, moment, x)
        py = None if y_false else pr_lookup(self.prob, agent, moment, y)
        if px is not None and py is not None:
            return ReasonablenessVerdict(
                px > py, "I", evidence={"pr_left": px, "pr_right": py}
            )
        proof_x = None if x_false else self.provable(agent, moment, x)
        proof_y = None if y_false else self.provable(agent, moment, y)
        if proof_x is not None and proof_y is not None:
            cx, cy = rho(proof_x), rho(proof_y)
            return ReasonablenessVerdict(
                cx < cy, "II",
                evidence={"rho_left": cx, "rho_right": cy,
                          "proof_left": proof_x, "proof_right": proof_y},
            )
        if verdict_only and proof_y is not None:
            return ReasonablenessVerdict(
                False, "III", note="the right side is provable: no distance is below 0"
            )
        wx = self.delta(agent, moment, x)
        wy = self.delta(agent, moment, y)
        note = ""
        for side in (x, y):
            key = (agent, moment, formula_key(self._strip_frame(side, agent, moment)))
            if key in self._budget_hits:
                note = "some revision pairs were skipped on a budget-exhausted check"
        if wx is None and wy is None:
            return ReasonablenessVerdict(
                False, "inapplicable",
                note=note or "no consistent revision reaches either side",
            )
        holds = wx is not None and (wy is None or wx.distance < wy.distance)
        return ReasonablenessVerdict(
            holds, "III", evidence={"delta_left": wx, "delta_right": wy},
            note=note,
        )

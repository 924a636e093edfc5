"""Independent reference implementations used to validate the engine.

Everything here deliberately avoids the package's search machinery: truth
evaluation is a direct recursive interpreter, consistency is a full truth
table, and the revision oracle enumerates every addition/removal pair
with plain loops.
"""

from __future__ import annotations

from itertools import combinations, product

from mucal.logic import (
    And, Atom, Believes, Exists, Falsum, Forall, Iff, Implies, Not, Or,
    Perceives, expand_sugar, formula_key, quote_modal, substitute_unchecked,
    weight,
)
from mucal.prover import projection, prove
from mucal import models


def atom_key(f) -> str:
    if isinstance(f, (Believes, Perceives)):
        return formula_key(quote_modal(f))
    return formula_key(f)


def collect_atoms(f, universe, acc) -> None:
    f = expand_sugar(f)
    if isinstance(f, Atom):
        acc.add(atom_key(f))
    elif isinstance(f, (Believes, Perceives)):
        acc.add(atom_key(f))
    elif isinstance(f, Not):
        collect_atoms(f.body, universe, acc)
    elif isinstance(f, (And, Or)):
        for a in f.args:
            collect_atoms(a, universe, acc)
    elif isinstance(f, (Implies, Iff)):
        collect_atoms(f.left, universe, acc)
        collect_atoms(f.right, universe, acc)
    elif isinstance(f, (Forall, Exists)):
        for t in universe.get(f.var.sort, ()):
            collect_atoms(substitute_unchecked(f.body, f.var, t), universe, acc)


def holds_in(f, assignment, universe) -> bool:
    """Direct truth evaluation of a sentence under an atom assignment."""
    f = expand_sugar(f)
    if isinstance(f, Falsum):
        return False
    if isinstance(f, (Atom, Believes, Perceives)):
        return assignment.get(atom_key(f), False)
    if isinstance(f, Not):
        return not holds_in(f.body, assignment, universe)
    if isinstance(f, And):
        return all(holds_in(a, assignment, universe) for a in f.args)
    if isinstance(f, Or):
        return any(holds_in(a, assignment, universe) for a in f.args)
    if isinstance(f, Implies):
        return (not holds_in(f.left, assignment, universe)) or holds_in(
            f.right, assignment, universe
        )
    if isinstance(f, Iff):
        return holds_in(f.left, assignment, universe) == holds_in(
            f.right, assignment, universe
        )
    if isinstance(f, Forall):
        return all(
            holds_in(substitute_unchecked(f.body, f.var, t), assignment, universe)
            for t in universe.get(f.var.sort, ())
        )
    if isinstance(f, Exists):
        return any(
            holds_in(substitute_unchecked(f.body, f.var, t), assignment, universe)
            for t in universe.get(f.var.sort, ())
        )
    raise AssertionError(f"unexpected node {type(f).__name__}")


def truth_table_consistent(formulas, universe, atom_cap: int = 18):
    """Exhaustive model enumeration; None when the atom space is too big."""
    atoms: set = set()
    for f in formulas:
        collect_atoms(f, universe, atoms)
    names = sorted(atoms)
    if len(names) > atom_cap:
        return None
    for values in product((False, True), repeat=len(names)):
        assignment = dict(zip(names, values))
        if all(holds_in(f, assignment, universe) for f in formulas):
            return True
    return False


def truth_table_entails(premises, goal, universe) -> bool:
    """No countermodel: every model of the premises satisfies the goal."""
    res = truth_table_consistent(tuple(premises) + (Not(goal),), universe)
    assert res is not None, "oracle atom budget exceeded"
    return not res


def pi(g1, g2) -> int:
    """The paper's set distance: the weighted symmetric difference of two
    formula sets."""
    left = {formula_key(f): f for f in g1}
    right = {formula_key(f): f for f in g2}
    return sum(weight(f) for k, f in left.items() if k not in right) + sum(
        weight(f) for k, f in right.items() if k not in left
    )


def brute_force_delta(kb, agent: str, moment: str, goal):
    """Exhaustive enumeration of the layered revision space.

    Mirrors the documented search-space definition (candidate-pool subsets
    first, the goal itself as fallback) with independent loop structure;
    returns the minimal distance or None.
    """
    direct = prove(
        projection(kb, agent, moment), goal,
        depth=kb.params.proof_depth,
        universe=kb.universe(projection(kb, agent, moment) + (goal,)),
    )
    if direct.outcome == "proved":
        return 0

    axiom_keys = {formula_key(a.formula) for a in kb.axioms}
    pool = [
        (c.label, c.formula)
        for c in sorted(kb.candidates, key=lambda c: c.label)
        if formula_key(c.formula) not in axiom_keys
    ]
    removables = sorted(kb.removable_axioms(), key=lambda a: a.label)

    def feasible_distance(theta_forms, lam_axioms):
        lam_labels = {a.label for a in lam_axioms}
        check = tuple(
            a.formula for a in kb.axioms if a.label not in lam_labels
        ) + tuple(theta_forms) + kb.background()
        ok = models.consistent(
            check, atom_budget=kb.params.consistency_depth,
            universe=kb.universe(check + (Falsum(),)),
        )
        if ok != models.CONSISTENT:
            return None
        prems = projection(kb, agent, moment, exclude=lam_labels,
                           extra=tuple(theta_forms))
        res = prove(prems, goal, depth=kb.params.proof_depth,
                    universe=kb.universe(prems + (goal,)))
        if res.outcome != "proved":
            return None
        return sum(weight(f) for f in theta_forms) + sum(
            weight(a.formula) for a in lam_axioms
        )

    lam_space = []
    for k in range(kb.params.remove_max + 1):
        lam_space.extend(combinations(removables, k))

    distances = []
    for size in range(1, kb.params.add_max + 1):
        for theta in combinations(pool, size):
            for lam in lam_space:
                d = feasible_distance([f for _, f in theta], lam)
                if d is not None:
                    distances.append(d)
    if not distances:
        for lam in lam_space:
            d = feasible_distance([goal], lam)
            if d is not None:
                distances.append(d)
    return min(distances) if distances else None

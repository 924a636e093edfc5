"""Consistency checking by exhaustive ground-model search.

Formulas are grounded over a finite term universe, clausified, and fed to
a small DPLL search.  The search space is finite, so a satisfying
assignment means consistent and exhaustion means inconsistent; "unknown"
arises only when grounding would exceed the configured budget (or the
instance is not finitely ground).

Belief and perception subformulas become opaque ground atoms, named by
their quoted form (`logic.quote_modal`), the same atoms the prover's
contextualization builds.  The only coupling back to the logic is a
conservative closure: every ground belief the grounder met, including
those produced by instantiating a quantifier, is pinned true before the
search when its content is entailed by the premise set's stated beliefs
(earlier or equal moments, percepts lifted).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .logic import (
    And, Atom, Believes, Exists, Falsum, Forall, Formula, Iff, Implies, Not,
    Or, Perceives, collect_ground_terms, expand_sugar, formula_key,
    held_content, order_from_premises, quote_modal, struct_key,
    substitute_unchecked,
)

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNKNOWN = "unknown"

_NODE_CAP = 200_000


class _Overflow(Exception):
    pass


class _Grounder:
    def __init__(self, universe: dict, atom_budget: int):
        self.universe = universe
        self.atom_budget = atom_budget
        self.atoms: dict = {}
        self.beliefs: dict = {}  # atom key -> the ground belief it stands for
        self.nodes = 0

    def atom(self, key: str) -> tuple:
        if key not in self.atoms:
            if len(self.atoms) >= self.atom_budget:
                raise _Overflow()
            self.atoms[key] = len(self.atoms)
        return ("atom", self.atoms[key])

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > _NODE_CAP:
            raise _Overflow()

    def ground(self, f: Formula):
        self._tick()
        if isinstance(f, Atom):
            return self.atom(struct_key(f))
        if isinstance(f, Falsum):
            return ("false",)
        if isinstance(f, Not):
            return ("not", self.ground(f.body))
        if isinstance(f, And):
            return ("and", tuple(self.ground(a) for a in f.args))
        if isinstance(f, Or):
            return ("or", tuple(self.ground(a) for a in f.args))
        if isinstance(f, Implies):
            return ("or", (("not", self.ground(f.left)), self.ground(f.right)))
        if isinstance(f, Iff):
            a, b = self.ground(f.left), self.ground(f.right)
            return ("and", (("or", (("not", a), b)), ("or", (("not", b), a))))
        if isinstance(f, Forall):
            terms = self.universe.get(f.var.sort, ())
            if not terms:
                return ("and", ())
            return ("and", tuple(
                self.ground(substitute_unchecked(f.body, f.var, t)) for t in terms
            ))
        if isinstance(f, Exists):
            terms = self.universe.get(f.var.sort, ())
            if not terms:
                return ("or", ())
            return ("or", tuple(
                self.ground(substitute_unchecked(f.body, f.var, t)) for t in terms
            ))
        if isinstance(f, (Believes, Perceives)):
            key = struct_key(quote_modal(f))
            if isinstance(f, Believes):
                self.beliefs.setdefault(key, f)
            return self.atom(key)
        raise _Overflow()  # unexpanded sugar should not reach here


def _clausify(expr, clauses: list, fresh: list) -> int:
    """Tseitin encoding; returns a literal that holds exactly when expr does."""
    kind = expr[0]
    if kind == "atom":
        return expr[1] + 1
    if kind == "false":
        fresh[0] += 1
        v = fresh[0]
        clauses.append((-v,))
        return v
    if kind == "not":
        return -_clausify(expr[1], clauses, fresh)
    lits = [_clausify(e, clauses, fresh) for e in expr[1]]
    fresh[0] += 1
    v = fresh[0]
    if kind == "and":
        for l in lits:
            clauses.append((-v, l))
        clauses.append(tuple([v] + [-l for l in lits]))
    else:  # or
        clauses.append(tuple([-v] + lits))
        for l in lits:
            clauses.append((v, -l))
    return v


def _dpll(clauses: list, assignment: dict) -> Optional[dict]:
    clauses = [c for c in clauses]
    while True:
        unit = None
        simplified = []
        for c in clauses:
            lits = []
            satisfied = False
            for l in c:
                val = assignment.get(abs(l))
                if val is None:
                    lits.append(l)
                elif (l > 0) == val:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not lits:
                return None
            if len(lits) == 1 and unit is None:
                unit = lits[0]
            simplified.append(tuple(lits))
        clauses = simplified
        if unit is None:
            break
        assignment = dict(assignment)
        assignment[abs(unit)] = unit > 0
    if not clauses:
        return assignment
    var = min(abs(l) for c in clauses for l in c)
    for val in (True, False):
        trial = dict(assignment)
        trial[var] = val
        result = _dpll(clauses, trial)
        if result is not None:
            return result
    return None


def consistent(
    premises: Iterable[Formula],
    atom_budget: int = 256,
    universe: Optional[dict] = None,
    modal_depth: int = 2,
) -> str:
    """Classify a premise set as consistent, inconsistent, or unknown."""
    prems = tuple(expand_sugar(p) for p in premises)
    if universe is None:
        universe = collect_ground_terms(prems)
    grounder = _Grounder(universe, atom_budget)
    try:
        exprs = [grounder.ground(p) for p in prems]
    except _Overflow:
        return UNKNOWN
    clauses: list = []
    fresh = [len(grounder.atoms) + 4096]
    for e in exprs:
        clauses.append((_clausify(e, clauses, fresh),))
    for key in _entailed_belief_keys(prems, grounder, universe, atom_budget, modal_depth):
        clauses.append((grounder.atoms[key] + 1,))
    result = _dpll(clauses, {})
    return CONSISTENT if result is not None else INCONSISTENT


def _entailed_belief_keys(
    premises: tuple, grounder: _Grounder, universe: dict,
    atom_budget: int, modal_depth: int,
) -> list:
    """Grounded belief atoms whose content follows from stated beliefs."""
    if modal_depth <= 0:
        return []
    stated = [p for p in premises if isinstance(p, (Believes, Perceives))]
    if not stated:
        return []
    order = order_from_premises(premises)
    out = []
    for key, belief in grounder.beliefs.items():
        held = [held_content(p, belief.agent, belief.moment, order) for p in stated]
        contents = [c for c in held if c is not None]
        if not contents:
            continue
        body_key = formula_key(belief.body)
        if any(formula_key(c) == body_key for c in contents):
            out.append(key)
            continue
        sub = consistent(
            tuple(contents) + (Not(belief.body),),
            atom_budget=atom_budget,
            universe=universe,
            modal_depth=modal_depth - 1,
        )
        if sub == INCONSISTENT:
            out.append(key)
    return out

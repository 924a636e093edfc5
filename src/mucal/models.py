"""Consistency checking by exhaustive ground-model search.

Formulas are grounded over a finite term universe and encoded as clauses
by polarity (`_Encoder`): top-level conjunctions and disjunctions become
clauses directly, and each nested subformula gets a fresh variable with
only the implication its polarity needs (Plaisted & Greenbaum), so the
clause set is satisfiable exactly when the premises have a ground model.
An iterative DPLL search with two watched literals per clause and no
clause learning (`_satisfiable`) decides it.  The search space is finite,
so a satisfying assignment means consistent and exhaustion means
inconsistent; "unknown" arises only when grounding would exceed the
configured budget (or the instance is not finitely ground).

Belief and perception subformulas become opaque ground atoms, named by
their quoted form (`logic.quote_modal`), the same atoms the prover's
contextualization builds.  The only coupling back to the logic is a
conservative closure: every ground belief the grounder met, including
those produced by instantiating a quantifier, is pinned true before the
search when its content is entailed by the premise set's stated beliefs
(earlier or equal moments, percepts lifted).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from operator import neg
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


class _Encoder:
    """Polarity-aware clauses for ground expressions (Plaisted & Greenbaum,
    J. Symbolic Computation, 1986).

    Variables 1..n stand for the grounder's atoms.  A top-level conjunction
    asserts each conjunct and a top-level disjunction is one clause, after
    pushing negations inward; a nested subformula gets a fresh variable and
    only the implication from that variable to the subformula (or to its
    negation, under an odd number of negations).  The clause set is
    satisfiable exactly when the asserted expressions are.
    """

    def __init__(self, n_atoms: int):
        self.clauses: list = []
        self.fresh = n_atoms

    def add(self, expr, positive: bool = True) -> None:
        """Assert expr (its negation when not positive)."""
        kind = expr[0]
        while kind == "not":
            expr, positive = expr[1], not positive
            kind = expr[0]
        if kind == "atom":
            v = expr[1] + 1
            self.clauses.append((v if positive else -v,))
        elif kind == "false":
            if positive:
                self.clauses.append(())
        elif (kind == "and") == positive:
            for e in expr[1]:
                self.add(e, positive)
        else:
            lits: list = []
            self._disjuncts(expr[1], positive, lits)
            self.clauses.append(tuple(lits))

    def _disjuncts(self, exprs, positive: bool, lits: list) -> None:
        """Literals whose disjunction implies that of exprs under the sign;
        nested disjunctions are flattened into the same clause."""
        for e in exprs:
            sign = positive
            while e[0] == "not":
                e, sign = e[1], not sign
            if e[0] in ("and", "or") and (e[0] == "or") == sign:
                self._disjuncts(e[1], sign, lits)
            else:
                lits.append(self._lit(e, sign))

    def _lit(self, expr, positive: bool) -> int:
        """A literal that implies expr (its negation when not positive)."""
        kind = expr[0]
        if kind == "not":
            return self._lit(expr[1], not positive)
        if kind == "atom":
            return expr[1] + 1 if positive else -(expr[1] + 1)
        self.fresh += 1
        v = self.fresh
        if kind == "false":
            self.clauses.append((-v,))
            return v if positive else -v
        if (kind == "and") == positive:
            for e in expr[1]:
                self.clauses.append((-v, self._lit(e, positive)))
        else:
            lits = [-v]
            self._disjuncts(expr[1], positive, lits)
            self.clauses.append(tuple(lits))
        return v


def _satisfiable(clauses: Iterable[tuple]) -> bool:
    """Complete DPLL over integer-literal clauses, without clause learning.

    Two watched literals per clause (Moskewicz et al., "Chaff", DAC 2001):
    unit propagation visits only the clauses watching the literal just made
    false, and backtracking unassigns the trail, so no clause list or
    assignment is copied.  The search branches on the lowest open
    variable, true first.
    """
    units: list = []
    watched: list = []
    for c in clauses:
        lits = dict.fromkeys(c)
        if len(lits) > 1:
            if lits.keys().isdisjoint(map(neg, lits)):
                watched.append(list(lits))
        elif lits:
            units.append(c[0])
        else:
            return False
    order = sorted(set(map(abs, chain.from_iterable(watched))))
    top = max(order[-1:] + [abs(l) for l in units], default=0)
    # value[l] is 1 when literal l is true, -1 when false, 0 when open; a
    # negative l indexes from the end, clear of every positive one
    value = [0] * (2 * top + 1)
    watches: dict = defaultdict(list)
    for c in watched:
        watches[c[0]].append(c)
        watches[c[1]].append(c)
    trail: list = []
    for l in units:
        if value[l] < 0:
            return False
        if value[l] == 0:
            value[l], value[-l] = 1, -1
            trail.append(l)
    decisions: list = []  # (trail length before it, index in order, flipped)
    head = nxt = 0
    while True:
        conflict = False
        while head < len(trail) and not conflict:
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if value[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    l = c[k]
                    if value[l] != -1:
                        c[1], c[k] = l, false_lit
                        watches[l].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[first] == -1:
                        conflict = True
                        ws[j:j + n - i] = ws[i:n]
                        j += n - i
                        break
                    value[first], value[-first] = 1, -1
                    trail.append(first)
            del ws[j:]
        if conflict:
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return False
            pos, idx, _ = decisions.pop()
            for l in trail[pos:]:
                value[l] = value[-l] = 0
            del trail[pos:]
            v = order[idx]
            decisions.append((pos, idx, True))
            value[-v], value[v] = 1, -1
            trail.append(-v)
            head, nxt = pos, idx + 1
            continue
        while nxt < len(order) and value[order[nxt]]:
            nxt += 1
        if nxt == len(order):
            return True
        v = order[nxt]
        decisions.append((len(trail), nxt, False))
        value[v], value[-v] = 1, -1
        trail.append(v)


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
    encoder = _Encoder(len(grounder.atoms))
    for e in exprs:
        encoder.add(e)
    for key in _entailed_belief_keys(prems, grounder, universe, atom_budget, modal_depth):
        encoder.clauses.append((grounder.atoms[key] + 1,))
    return CONSISTENT if _satisfiable(encoder.clauses) else INCONSISTENT


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

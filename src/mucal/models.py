"""Consistency checking by exhaustive ground-model search.

Formulas are grounded over a finite term universe and encoded as clauses
by polarity in one pass (`Grounding`): each quantifier is instantiated as
the walk meets it, top-level conjunctions and disjunctions become clauses
directly, and each nested subformula gets a fresh variable with only the
implication its polarity needs (Plaisted & Greenbaum), so the clause set
is satisfiable exactly when the premises have a ground model.  An
iterative DPLL search with two watched literals per clause and no clause
learning (`_satisfiable`) decides it, branching on the grounding's atoms
before any fresh variable.  The search space is finite, so a satisfying
assignment means consistent and exhaustion means inconsistent;
"unknown" arises only when grounding would exceed the atom budget or visit
more than `_NODE_CAP` nodes (or the instance is not finitely ground).

A premise prefix that many checks share is grounded once: a `Grounding`
holds its clauses, and `consistent(more, ..., base=grounding)` grounds
only `more`, into a copy.  The copy shares the prefix's clause tuples,
which the solver never mutates.  The answer is the one a cold grounding
of the whole set gives: the prefix is reused only over a universe equal
to its own and under the same atom budget (`Grounding._over`), and the
atom budget and `_NODE_CAP` compare totals, which do not depend on the
order premises are grounded in, so an overflowing prefix means an
overflowing whole.

`Grounding.refutes(additions, goal, universe)` looks for a countermodel:
a ground model of the prefix and the additions in which the goal is
false, which shows that a proof search for the goal would fail (semantic
filtering, as in SCOTT: Slaney, Lusk & McCune, CADE 1994).  It first
tries the last `_KEPT` models found for the prefix or its consistent
extensions, with no grounding and no SAT call, evaluated (`_holds`)
through the shape step that the clause encoding takes (`_step`).  A kept
model may refute where the full check would overflow to `unknown`, so
`consistent` never reads one.

Belief and perception subformulas become opaque ground atoms, named by
their quoted form (`logic.quote_modal`).  The only coupling back to the
logic is a conservative closure: every ground belief the grounding met,
including those produced by instantiating a quantifier, is pinned true
before the search when its content is entailed by the premise set's
stated beliefs (earlier or equal moments, percepts lifted).
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable
from copy import copy
from itertools import chain
from operator import neg

from .logic import (
    And, Atom, Believes, Exists, Falsum, Forall, Formula, Iff, Implies,
    Not, Or, Perceives, Xor, expand_sugar, formula_key, has_modal, held_content,
    order_from_premises, quote_modal, substitute_unchecked, xor_conjuncts,
)

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNKNOWN = "unknown"

_NODE_CAP = 200_000
_MODAL_DEPTH = 2  # how deep the belief closure nests its own consistency checks
_KEPT = 4  # models a grounding keeps, its own and its extensions'


class _Overflow(Exception):
    pass


class _Open(Exception):
    """Evaluation met a node a kept model does not decide."""


class Grounding:
    """A premise set grounded straight into polarity-aware clauses (Plaisted
    & Greenbaum, J. Symbolic Computation, 1986), in one pass over `universe`.

    Each node visited under a sign is shaped once (`_shape`): a negation
    flips the sign; an atom or a belief or perception becomes a literal;
    every other node takes the module's shape step (`_step`) to a
    conjunctive or a disjunctive list of signed operands.  `_holds` reads
    a kept model through the same step, so the two cannot disagree on a
    connective.  A top-level conjunction asserts each conjunct and a
    disjunction is one clause, with nested disjunctions flattened into it;
    any other nested subformula gets a fresh variable and only the
    implication from that variable to it.  The clause set is satisfiable
    exactly when the premises have a ground model.

    Atoms and fresh variables share one counter, but only atoms count
    against the atom budget.  `_NODE_CAP` bounds the nodes visited: each
    node of each quantifier instance once, except that an `iff` visits
    its two implications and so its operands once per direction.  A
    grounding that passed either bound is `overflow`, and stays so when
    extended.

    `kept` holds up to `_KEPT` models, newest first, each with a memo of
    the premises evaluated in it: the satisfying assignment of each solve
    that found one, and those of the extensions `refutes` found consistent.
    `modal` says whether a belief, perception or withholding node occurs
    in a premise.
    """

    def __init__(self, premises: Iterable[Formula], atom_budget: int, universe: dict):
        prems = tuple(expand_sugar(p) for p in premises)
        self.premises: tuple = ()
        self.universe = universe
        self.atom_budget = atom_budget
        self.atoms: dict = {}  # atom key -> its variable
        self.beliefs: dict = {}  # atom key -> the ground belief it stands for
        self.clauses: list = []
        self.top = 0  # the highest variable in use
        self.nodes = 0
        self.overflow = False
        self.modal = False
        self.kept: deque = deque(maxlen=_KEPT)
        self._ground(prems)

    def _ground(self, prems: tuple) -> None:
        self.premises += prems
        self.modal = self.modal or _has_modal(prems)
        if self.overflow:
            return
        try:
            for p in prems:
                self.add(p)
        except _Overflow:
            self.overflow = True

    def extended(self, premises: Iterable[Formula]) -> "Grounding":
        """A copy of this grounding with `premises` grounded after its own."""
        g = copy(self)
        g.atoms = dict(self.atoms)
        g.beliefs = dict(self.beliefs)
        g.clauses = list(self.clauses)
        g.kept = deque(maxlen=_KEPT)
        g._ground(tuple(expand_sugar(p) for p in premises))
        return g

    def solve(self) -> str:
        """Classify the grounded premises, after the belief closure."""
        return self._solve(_MODAL_DEPTH, None)

    def _solve(self, depth: int, order) -> str:
        if self.overflow:
            return UNKNOWN
        pins = [(self.atoms[key],) for key in _entailed_belief_keys(self, depth, order)]
        model = _satisfiable(chain(self.clauses, pins), self.atoms.values())
        if model is None:
            return INCONSISTENT
        self.kept.appendleft((self.atoms, model, {}))
        return CONSISTENT

    def _over(self, atom_budget: int, universe: dict) -> "Grounding":
        """These premises grounded over `universe` under `atom_budget`: this
        grounding itself when both are its own, else a cold grounding."""
        if ((universe is self.universe or universe == self.universe)
                and atom_budget == self.atom_budget):
            return self
        return Grounding(self.premises, atom_budget, universe)

    def refutes(self, additions: Iterable[Formula], goal: Formula, universe: dict) -> bool:
        """Whether these premises and `additions` have a ground model over
        `universe` in which `goal` is false, under this atom budget.

        False on a belief, perception or withholding node anywhere, where
        the prover's belief closure reads more than the model search pins,
        and where the full check is inconsistent or unknown.  A kept model
        that makes the additions and the negated goal true answers first,
        over this grounding's own universe only; otherwise they are
        grounded into an extension (or, over another universe, the whole
        set cold) and solved, and the extension's model is kept.
        """
        checked = tuple(expand_sugar(f) for f in additions) + (Not(expand_sugar(goal)),)
        if self.modal or _has_modal(checked):
            return False
        base = self._over(self.atom_budget, universe)
        if base is self and self._kept_model_satisfies(checked):
            return True
        g = base.extended(checked)
        if g.solve() != CONSISTENT:
            return False
        if base is self:
            self.kept.appendleft(g.kept[0])
        return True

    def _kept_model_satisfies(self, premises: tuple) -> bool:
        """Whether a kept model makes every sugar-free premise true.

        Each kept model satisfies this grounding's clauses, so its atoms
        are a ground model of these premises over this universe; if it
        also makes `premises` true, the whole set has a ground model.  A
        model does not decide a modal node, an atom its grounding does not
        name, or one it leaves open.  Each model memoizes the premises
        evaluated in it, since a search checks the same goal and additions
        against it many times.
        """
        for atoms, model, memo in self.kept:
            for p in premises:
                if p not in memo:
                    try:
                        memo[p] = _holds(p, True, atoms, model, self.universe)
                    except _Open:
                        memo[p] = False
                if not memo[p]:
                    break
            else:
                return True
        return False

    def _fresh(self) -> int:
        self.top += 1
        return self.top

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > _NODE_CAP:
            raise _Overflow()

    def _shape(self, f: Formula, sign: bool):
        """A literal for f under the sign, or (conjunctive, signed operands)."""
        self._tick()
        while isinstance(f, Not):
            f, sign = f.body, not sign
            self._tick()
        if isinstance(f, Atom):
            key = formula_key(f)
        elif isinstance(f, (Believes, Perceives)):
            key = formula_key(quote_modal(f))
            if isinstance(f, Believes):
                self.beliefs.setdefault(key, f)
        elif (step := _step(f, sign, self.universe)) is not None:
            return step
        else:
            # withholding, which `expand_sugar` removes, should not reach here
            raise _Overflow()
        v = self.atoms.get(key)
        if v is None:
            if len(self.atoms) >= self.atom_budget:
                raise _Overflow()
            v = self.atoms[key] = self._fresh()
        return v if sign else -v

    def add(self, f: Formula, sign: bool = True) -> None:
        """Assert f (its negation when not sign)."""
        shape = self._shape(f, sign)
        if isinstance(shape, tuple) and shape[0]:
            for g, g_sign in shape[1]:
                self.add(g, g_sign)
        else:
            self.clauses.append(tuple(self._disjoin(shape, [])))

    def _disjoin(self, shape, lits: list) -> list:
        """Append to lits literals whose disjunction implies the shaped
        node, flattening nested disjunctions into the same clause."""
        if isinstance(shape, tuple) and not shape[0]:
            for g, sign in shape[1]:
                self._disjoin(self._shape(g, sign), lits)
        else:
            lits.append(self._implied(shape))
        return lits

    def _implied(self, shape) -> int:
        """A literal that implies the shaped node."""
        if not isinstance(shape, tuple):
            return shape
        v = self._fresh()
        if shape[0]:
            for g, sign in shape[1]:
                self.clauses.append((-v, self._implied(self._shape(g, sign))))
        else:
            self.clauses.append(tuple(self._disjoin(shape, [-v])))
        return v


def _step(f: Formula, sign: bool, universe: dict):
    """The shape step of a connective or quantifier node under the sign:
    (conjunctive, signed operands), the signed node holding exactly when
    all (conjunctive) or any of them hold; None for a negation, an atom or
    a modal node.  Falsum is the empty disjunction, a quantifier's operands
    are its instances over `universe`, an `iff` is the conjunction of its
    two implications, and an `xor` is its pairwise expansion
    (`logic.xor_conjuncts`), each exclusion's conjunction under the
    flipped sign."""
    if isinstance(f, Falsum):
        return not sign, ()
    if isinstance(f, (And, Or)):
        return isinstance(f, And) == sign, [(a, sign) for a in f.args]
    if isinstance(f, Implies):
        return not sign, [(f.left, not sign), (f.right, sign)]
    if isinstance(f, Iff):
        return sign, [(Implies(f.left, f.right), sign), (Implies(f.right, f.left), sign)]
    if isinstance(f, Xor):
        either, *exclusions = xor_conjuncts(f)
        return sign, [(either, sign)] + [(e.body, not sign) for e in exclusions]
    if isinstance(f, (Forall, Exists)):
        return isinstance(f, Forall) == sign, (
            (substitute_unchecked(f.body, f.var, t), sign) for t in universe.get(f.var.sort, ()))
    return None


def _holds(f: Formula, sign: bool, atoms: dict, model: list, universe: dict) -> bool:
    """Whether a modal-free, sugar-free formula (its negation when not
    sign) is true under a model of a grounding whose atom variables are
    `atoms`, read through the shape step the grounding encodes (`_step`);
    raises `_Open` where the model does not decide it."""
    while isinstance(f, Not):
        f, sign = f.body, not sign
    if isinstance(f, Atom):
        v = atoms.get(formula_key(f))
        if v is None or 2 * v >= len(model) or not model[v]:
            raise _Open()
        return (model[v] > 0) == sign
    step = _step(f, sign, universe)
    if step is None:
        raise _Open()  # a belief or perception node
    conjunctive, operands = step
    holds = (_holds(g, g_sign, atoms, model, universe) for g, g_sign in operands)
    return all(holds) if conjunctive else any(holds)


def _satisfiable(clauses: Iterable[tuple], atoms: Iterable[int] = ()) -> list | None:
    """Complete DPLL over integer-literal clauses, without clause learning:
    a satisfying assignment, or None when there is none.

    Two watched literals per clause (Moskewicz et al., "Chaff", DAC 2001):
    unit propagation visits only the clauses watching the literal just made
    false, and backtracking unassigns the trail, so no clause list or
    assignment is copied.  The search branches on the lowest open variable
    of `atoms`, then on the lowest open other variable, true first.  When
    each clause holds at most one negative literal of a variable outside
    `atoms`, as a `Grounding`'s clauses do, no conflict arises once every
    atom is assigned: each clause still open has an open positive literal
    of such a variable, so setting those true satisfies every clause.  The
    search then backtracks over at most 2^len(atoms) leaves.  The
    assignment is a list indexed by literal, as the search keeps it: 1
    true, -1 false, 0 open.  It covers the variables up to the highest one
    in a clause the search must satisfy; only a variable that occurs in no
    clause, or only in clauses holding both its literals, is open or
    beyond it.
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
            return None
    occurring = set(map(abs, chain.from_iterable(watched)))
    first = occurring.intersection(atoms)
    order = sorted(first) + sorted(occurring - first)
    top = max(chain(occurring, map(abs, units)), default=0)
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
            return None
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
                return None
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
            return value
        v = order[nxt]
        decisions.append((len(trail), nxt, False))
        value[v], value[-v] = 1, -1
        trail.append(v)


def consistent(
    premises: Iterable[Formula],
    atom_budget: int,
    universe: dict,
    base: Grounding | None = None,
) -> str:
    """Classify a premise set over `universe` (a KB's `kb.universe(...)`) as
    consistent, inconsistent, or unknown.

    With `base`, the premise set is base's premises followed by
    `premises`, and only `premises` are grounded where `Grounding._over`
    reuses base.
    """
    if base is None:
        return Grounding(premises, atom_budget, universe).solve()
    return base._over(atom_budget, universe).extended(premises).solve()


def _has_modal(formulas) -> bool:
    """Whether a belief, perception or withholding node occurs anywhere."""
    return any(map(has_modal, formulas))


def _entailed_belief_keys(g: Grounding, depth: int, order) -> list:
    """Grounded belief atoms whose content follows from stated beliefs,
    held under `order`: for a top-level solve, `order_from_premises` of the
    premises over the grounding's universe, built once and passed to every
    nested closure check, as the prover passes its order to a nested
    belief proof.  `depth` bounds how deeply those checks nest."""
    if depth <= 0:
        return []
    stated = [p for p in g.premises if isinstance(p, (Believes, Perceives))]
    if not stated:
        return []
    if order is None:
        order = order_from_premises(g.premises, g.universe)
    out = []
    for key, belief in g.beliefs.items():
        held = [held_content(p, belief.agent, belief.moment, order) for p in stated]
        contents = [c for c in held if c is not None]
        if not contents:
            continue
        body_key = formula_key(belief.body)
        if any(formula_key(c) == body_key for c in contents):
            out.append(key)
            continue
        sub = Grounding(tuple(contents) + (Not(belief.body),), g.atom_budget, g.universe)
        if sub._solve(depth - 1, order) == INCONSISTENT:
            out.append(key)
    return out

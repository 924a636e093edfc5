"""Goal-directed natural-deduction proof search over the sorted modal
language, with replayable proof objects.

Search shape: premises are saturated forward with the elimination rules
(conjunction, implication, ground universal instantiation, perception
lifting, contradiction detection); goals are decomposed backward with the
introduction rules; case splits over disjunctive or existential premises
and reductio consume the depth budget.  Iterative deepening over that
budget keeps results deterministic and near-minimal.

Quantifier reasoning is ground: instantiation and case analysis range
over the finite term universe of the instance, so every quantifier rule
is sound under domain closure and the bounded search is exhaustible.
Belief goals are proved by the derived closure rule: collect the believed
contents at earlier-or-equal moments and prove the body from them with a
fresh sub-search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .logic import (
    And, Atom, Believes, Const, Exists, Falsum, Forall, Formula, FrozenRecord, Iff,
    Implies, Not, Or, Perceives, collect_ground_terms, expand_sugar,
    formula_key, held_content, moment_names, negation_of, order_from_premises,
    struct_key, substitute_unchecked, symbols,
)

# ---------------------------------------------------------------------------
# Proof objects

_set = object.__setattr__


class Step(FrozenRecord):
    __slots__ = ("rule", "inputs", "formula", "assumptions", "extra")

    def __init__(self, rule: str, inputs: tuple, formula: Formula,
                 assumptions: tuple, extra: tuple = ()) -> None:
        _set(self, "rule", rule)
        _set(self, "inputs", inputs)
        _set(self, "formula", formula)
        _set(self, "assumptions", assumptions)
        _set(self, "extra", extra)


class Proof(FrozenRecord):
    __slots__ = ("goal", "premises_used", "steps", "depth", "universe")

    def __init__(self, goal: Formula, premises_used: tuple, steps: tuple, depth: int,
                 universe: tuple) -> None:  # universe: ((sort, (term, ...)), ...)
        _set(self, "goal", goal)
        _set(self, "premises_used", premises_used)
        _set(self, "steps", steps)
        _set(self, "depth", depth)
        _set(self, "universe", universe)


class ProofResult(FrozenRecord):
    __slots__ = ("outcome", "proof")

    def __init__(self, outcome: str, proof: Optional[Proof] = None) -> None:
        _set(self, "outcome", outcome)  # proved | refuted | unknown
        _set(self, "proof", proof)


def rho(p: Proof) -> Fraction:
    """Proof cost: step count plus a small distinct-symbol tie-break."""
    syms: frozenset = frozenset()
    for s in p.steps:
        syms |= symbols(s.formula)
    return Fraction(len(p.steps)) + Fraction(len(syms), 1000)


# ---------------------------------------------------------------------------
# Search internals

_SATURATION_CAP = 4000


class _Node:
    __slots__ = ("rule", "inputs", "formula", "extra", "assumptions", "key")

    def __init__(self, rule, inputs, formula, extra=(), assumptions=None, key=None):
        self.rule = rule
        self.inputs = tuple(inputs)
        self.formula = formula
        self.extra = extra
        if assumptions is None:
            assumptions = frozenset()
            for n in self.inputs:
                assumptions |= n.assumptions
        self.assumptions = assumptions
        self.key = key if key is not None else formula_key(formula)


_FALSE_KEY = formula_key(Falsum())


class _Env:
    """An immutable saturated fact set.  `key` identifies the content, so
    failure memoization transfers between branches that reach the same
    premise set; successful nodes are cached per instance because their
    assumption bookkeeping is tied to this environment's assume nodes.

    `imps` lists the implication nodes in insertion order.  The falsum
    watch index (`watch`, `unblocked`) is built on the first falsum
    query, from the parent's index when the environment extends one."""

    __slots__ = ("nodes", "key", "memo", "imps", "parent", "watch", "unblocked")

    def __init__(self, nodes: dict, imps: list, parent: Optional[_Env] = None):
        self.nodes = nodes
        self.key = frozenset(nodes)
        self.memo: dict = {}
        self.imps = imps
        self.parent = parent  # dropped once the watch index is built
        self.watch: Optional[dict] = None
        self.unblocked: Optional[set] = None


def _absent_need(body: Formula, nodes: dict) -> Optional[str]:
    """An absent key that a negated body needs before it can be proved at
    budget 0 in an environment without falsum, or None.

    Only an atom or a conjunction of atoms has one: such a body is proved
    at budget 0 only by being present itself or by having every atom
    present."""
    if isinstance(body, Atom):
        key = formula_key(body)
        return None if key in nodes else key
    if not isinstance(body, And) or formula_key(body) in nodes:
        return None
    if not all(isinstance(a, Atom) for a in body.args):
        return None
    for a in body.args:
        key = formula_key(a)
        if key not in nodes:
            return key
    return None


class _Search:
    def __init__(self, gamma: tuple, universe: dict, order):
        self.gamma = gamma
        self.universe = universe
        self.order = order
        self.moments = sorted(moment_names(universe))
        self.overflow = False
        self.fails: dict = {}
        # body key of a negated conjunction -> the negation keys; a
        # negation's body key is fixed by its own key
        self.conj_negs: dict = {}

    # -- forward saturation ------------------------------------------------

    def base_env(self) -> _Env:
        nodes: dict = {}
        new = []
        for g in self.gamma:
            n = _Node("premise", (), g)
            if n.key not in nodes:
                nodes[n.key] = n
                new.append(n)
        imps = self._saturate(nodes, new, [])
        return _Env(nodes, imps)

    def extend(self, env: _Env, formulas: tuple):
        nodes = dict(env.nodes)
        assumes = []
        new = []
        for f in formulas:
            n = _Node("assume", (), f, assumptions=frozenset())
            n.assumptions = frozenset([n])
            if n.key not in nodes:
                # an already-derived fact needs no assumption; the fresh
                # assume node still stands in for discharge bookkeeping
                nodes[n.key] = n
                new.append(n)
            assumes.append(n)
        imps = self._saturate(nodes, new, env.imps)
        return _Env(nodes, imps, env), assumes

    def _saturate(self, nodes: dict, new: list, imps: list) -> list:
        """Saturate `nodes` from the `new` ones; `imps` lists the
        implication nodes already in `nodes` before `new`.  Returns the
        implication list of the result."""
        kept = list(imps)
        # a new implication is on the firing list from the start and again
        # once processed; the firing order decides which nodes, and so
        # which proofs, come first
        imps = imps + [n for n in new if isinstance(n.formula, Implies)]
        work = list(new)
        idx = 0

        def add(node: _Node) -> None:
            if len(nodes) > _SATURATION_CAP:
                self.overflow = True
                return
            if node.key in nodes:
                return
            nodes[node.key] = node
            work.append(node)

        while idx < len(work):
            n = work[idx]
            idx += 1
            f = n.formula
            if isinstance(f, And):
                for k, arg in enumerate(f.args):
                    if self.overflow:
                        break
                    add(_Node("and_elim", (n,), arg, extra=(k,)))
            elif isinstance(f, Iff):
                add(_Node("iff_elim", (n,), Implies(f.left, f.right), extra=("lr",)))
                add(_Node("iff_elim", (n,), Implies(f.right, f.left), extra=("rl",)))
            elif isinstance(f, Not) and isinstance(f.body, Not):
                add(_Node("dn_elim", (n,), f.body.body))
            elif isinstance(f, Forall):
                self._instantiate_forall(n, add)
            elif isinstance(f, Implies):
                imps.append(n)
                kept.append(n)
            elif isinstance(f, Perceives):
                self._lift_percept(n, add)
            # contradiction detection
            neg = negation_of(f)
            partner = nodes.get(formula_key(neg))
            if partner is not None and _FALSE_KEY not in nodes:
                pos, negn = (partner, n) if isinstance(f, Not) else (n, partner)
                add(_Node("neg_elim", (pos, negn), Falsum()))
            # implication firing
            fired = True
            while fired:
                fired = False
                for imp in list(imps):
                    if imp.key not in nodes:
                        continue
                    out_key = formula_key(imp.formula.right)
                    if out_key in nodes:
                        continue
                    ante = self._antecedent_node(imp.formula.left, nodes)
                    if ante is not None:
                        add(_Node("imp_elim", (imp, ante), imp.formula.right))
                        fired = True
            if self.overflow:
                break
        return kept

    # -- the falsum watch index -----------------------------------------------
    #
    # A negation whose body has an absent need (`_absent_need`) cannot close
    # a falsum goal, so the falsum step walks only the unblocked negations.
    # Each blocked negation watches one absent atom; adding that atom wakes
    # it, and it watches another absent atom or becomes unblocked.  A
    # negated conjunction is also unblocked when its body itself is added.

    def _unblocked(self, env: _Env) -> set:
        if env.unblocked is not None:
            return env.unblocked
        parent = env.parent
        if parent is None:
            watch: dict = {}
            unblocked: set = set()
            new = env.nodes.values()
        else:
            self._unblocked(parent)
            watch = dict(parent.watch)
            unblocked = set(parent.unblocked)
            new = itertools.islice(env.nodes.values(), len(parent.nodes), None)
        nodes = env.nodes
        owned: set = set()  # watch lists made here, not shared with the parent

        def place(neg: _Node) -> None:
            need = _absent_need(neg.formula.body, nodes)
            if need is None:
                unblocked.add(neg.key)
            elif need in owned:
                watch[need].append(neg)
            else:
                watch[need] = watch.get(need, []) + [neg]
                owned.add(need)

        for n in new:
            if isinstance(n.formula, Not):
                body = n.formula.body
                if isinstance(body, And):
                    self.conj_negs.setdefault(formula_key(body), set()).add(n.key)
                place(n)
            for neg in watch.pop(n.key, ()):
                if neg.key not in unblocked:
                    place(neg)
            for k in self.conj_negs.get(n.key, ()):
                if k in nodes:
                    unblocked.add(k)
        env.watch, env.unblocked, env.parent = watch, unblocked, None
        return unblocked

    def _antecedent_node(self, ante: Formula, nodes: dict) -> Optional[_Node]:
        got = nodes.get(formula_key(ante))
        if got is not None:
            return got
        if isinstance(ante, And):
            parts = [nodes.get(formula_key(a)) for a in ante.args]
            if all(p is not None for p in parts):
                n = _Node("and_intro", tuple(parts), ante)
                nodes[n.key] = n
                return n
        return None

    def _instantiate_forall(self, n: _Node, add) -> None:
        vars_: list = []
        body = n.formula
        while isinstance(body, Forall):
            vars_.append(body.var)
            body = body.body
        pools = [self.universe.get(v.sort, ()) for v in vars_]
        if any(not p for p in pools):
            return
        total = 1
        for p in pools:
            total *= len(p)
        if total > 600:
            self.overflow = True
            return
        combos = [()]
        for pool in pools:
            combos = [c + (t,) for c in combos for t in pool]
        for combo in combos:
            inst = body
            for v, t in zip(vars_, combo):
                inst = substitute_unchecked(inst, v, t)
            add(_Node("forall_elim", (n,), inst,
                      extra=tuple(zip(vars_, combo))))

    def _lift_percept(self, n: _Node, add) -> None:
        f = n.formula
        if not isinstance(f.moment, Const):
            return
        t1 = f.moment.name
        for m in self.moments:
            if self.order.lt(t1, m):
                add(_Node("r_p", (n,), Believes(f.agent, Const(m, "Moment"), f.body),
                          extra=((t1, m),)))

    # -- backward search -----------------------------------------------------

    def prove(self, env: _Env, goal: Formula, budget: int, seen: frozenset,
              splits: frozenset):
        key = formula_key(goal)
        local = (key, budget)
        if local in env.memo:
            return env.memo[local]
        fk = (env.key, key, budget)
        if fk in self.fails or (env.key, key) in seen:
            return None
        seen = seen | {(env.key, key)}

        node = self._prove_inner(env, goal, key, budget, seen, splits)
        if node is not None:
            env.memo[local] = node
        else:
            self.fails[fk] = True
        return node

    def _prove_inner(self, env: _Env, goal: Formula, key: str, budget: int,
                     seen: frozenset, splits: frozenset):
        got = env.nodes.get(key)
        if got is not None:
            return got
        falsum = env.nodes.get(_FALSE_KEY)
        if falsum is not None and not isinstance(goal, Falsum):
            return _Node("efq", (falsum,), goal)

        if isinstance(goal, Falsum):
            # complementary literal pairs are caught during saturation; here
            # only try to close negated premises structurally (budget 0),
            # deeper contradictions come from the split fallback below
            for k in sorted(self._unblocked(env)):
                n = env.nodes[k]
                sub = self.prove(env, n.formula.body, 0, seen, splits)
                if sub is not None:
                    return _Node("neg_elim", (sub, n), Falsum())
        elif isinstance(goal, And):
            parts = []
            for arg in goal.args:
                sub = self.prove(env, arg, budget, seen, splits)
                if sub is None:
                    parts = None
                    break
                parts.append(sub)
            if parts is not None:
                return _Node("and_intro", tuple(parts), goal)
        elif isinstance(goal, Or):
            for arg in goal.args:
                sub = self.prove(env, arg, budget, seen, splits)
                if sub is not None:
                    return _Node("or_intro", (sub,), goal)
        elif isinstance(goal, Implies):
            if budget > 0:
                env2, (a,) = self.extend(env, (goal.left,))
                if not self.overflow:
                    sub = self.prove(env2, goal.right, budget - 1, seen, splits)
                    if sub is not None:
                        return _Node("imp_intro", (sub, a), goal,
                                     assumptions=(sub.assumptions | a.assumptions) - {a})
        elif isinstance(goal, Iff):
            lr = self.prove(env, Implies(goal.left, goal.right), budget, seen, splits)
            if lr is not None:
                rl = self.prove(env, Implies(goal.right, goal.left), budget, seen, splits)
                if rl is not None:
                    return _Node("iff_intro", (lr, rl), goal)
        elif isinstance(goal, Not):
            if budget > 0:
                env2, (a,) = self.extend(env, (goal.body,))
                if not self.overflow:
                    sub = self.prove(env2, Falsum(), budget - 1, seen, splits)
                    if sub is not None:
                        return _Node("neg_intro", (sub, a), goal,
                                     assumptions=(sub.assumptions | a.assumptions) - {a})
        elif isinstance(goal, Forall):
            pool = self.universe.get(goal.var.sort, ())
            if pool:
                parts = []
                for t in pool:
                    inst = substitute_unchecked(goal.body, goal.var, t)
                    sub = self.prove(env, inst, budget, seen, splits)
                    if sub is None:
                        parts = None
                        break
                    parts.append(sub)
                if parts is not None:
                    return _Node("forall_intro_ground", tuple(parts), goal, extra=pool)
        elif isinstance(goal, Exists):
            for t in self.universe.get(goal.var.sort, ()):
                inst = substitute_unchecked(goal.body, goal.var, t)
                sub = self.prove(env, inst, budget, seen, splits)
                if sub is not None:
                    return _Node("exists_intro", (sub,), goal, extra=(t,))
        elif isinstance(goal, Believes):
            node = self._prove_belief(env, goal, budget, seen, splits)
            if node is not None:
                return node

        if budget <= 0:
            return None

        # case split over a disjunctive premise
        for k in sorted(env.nodes):
            if k in splits:
                continue
            n = env.nodes[k]
            if isinstance(n.formula, Or):
                cases = self._split(env, goal, n, n.formula.args, budget,
                                    seen, splits | {k})
                if cases is not None:
                    return _Node("or_elim", (n,) + cases, goal,
                                 assumptions=self._discharge(n, cases))
            elif isinstance(n.formula, Exists):
                pool = self.universe.get(n.formula.var.sort, ())
                if not pool:
                    continue
                insts = tuple(
                    substitute_unchecked(n.formula.body, n.formula.var, t) for t in pool
                )
                cases = self._split(env, goal, n, insts, budget, seen, splits | {k})
                if cases is not None:
                    return _Node("exists_elim_ground", (n,) + cases, goal,
                                 extra=pool,
                                 assumptions=self._discharge(n, cases))
        # reductio
        if isinstance(goal, (Atom, Believes, Perceives, Exists, Or)):
            env2, (a,) = self.extend(env, (negation_of(goal),))
            if not self.overflow:
                sub = self.prove(env2, Falsum(), budget - 1, seen, splits)
                if sub is not None:
                    return _Node("raa", (sub, a), goal,
                                 assumptions=(sub.assumptions | a.assumptions) - {a})
        return None

    def _split(self, env: _Env, goal: Formula, src: _Node, branches: tuple,
               budget: int, seen: frozenset, splits: frozenset):
        out = []
        for b in branches:
            env2, (a,) = self.extend(env, (b,))
            if self.overflow:
                return None
            sub = self.prove(env2, goal, budget - 1, seen, splits)
            if sub is None:
                return None
            out.extend((a, sub))
        return tuple(out)

    @staticmethod
    def _discharge(src: _Node, cases: tuple) -> frozenset:
        assm = src.assumptions
        for a, c in zip(cases[0::2], cases[1::2]):
            assm |= c.assumptions - {a}
        return assm

    def _prove_belief(self, env: _Env, goal: Believes, budget: int,
                      seen: frozenset, splits: frozenset):
        # the r_b replay needs a ground moment, and percepts enter only
        # through their r_p lifts, which are beliefs
        if not isinstance(goal.moment, Const):
            return None
        belief_nodes = []
        contents = []
        for k in sorted(env.nodes):
            n = env.nodes[k]
            if isinstance(n.formula, Believes):
                body = held_content(n.formula, goal.agent, goal.moment, self.order)
                if body is not None:
                    belief_nodes.append(n)
                    contents.append(body)
        if not contents:
            return None
        sub = prove(tuple(contents), goal.body, depth=budget,
                    universe=self.universe, order=self.order)
        if sub.outcome != "proved":
            return None
        used = {formula_key(f) for f in sub.proof.premises_used}
        kept = [n for n in belief_nodes if formula_key(n.formula.body) in used]
        return _Node("r_b", tuple(kept or belief_nodes), goal,
                     extra=(sub.proof,))


# ---------------------------------------------------------------------------
# Assembly

def _assemble(root: _Node, goal: Formula, universe: dict) -> Proof:
    order: list = []
    seen: set = set()

    def visit(n: _Node) -> None:
        if id(n) in seen:
            return
        seen.add(id(n))
        for i in n.inputs:
            visit(i)
        order.append(n)

    visit(root)
    index = {id(n): i for i, n in enumerate(order)}
    steps = []
    for n in order:
        steps.append(Step(
            rule=n.rule,
            inputs=tuple(index[id(i)] for i in n.inputs),
            formula=n.formula,
            assumptions=tuple(sorted(index[id(a)] for a in n.assumptions)),
            extra=n.extra,
        ))
    premises = sorted(
        {s.formula for s in steps if s.rule == "premise"},
        key=struct_key,
    )
    depth = max((len(s.assumptions) for s in steps), default=0)
    uni = tuple(sorted((s, tuple(ts)) for s, ts in universe.items()))
    return Proof(goal=goal, premises_used=tuple(premises), steps=tuple(steps),
                 depth=depth, universe=uni)


# ---------------------------------------------------------------------------
# Public entry points

def prove(
    gamma,
    goal: Formula,
    depth: int = 3,
    universe: Optional[dict] = None,
    order=None,
    refute: bool = False,
) -> ProofResult:
    """Search for a proof of the goal from the premise set.

    Returns proved with a replayable proof, refuted (when asked) with a
    proof of the negated goal, or unknown once the depth budget and the
    bounded search space are exhausted.
    """
    gamma = tuple(expand_sugar(g) for g in gamma)
    goal_x = expand_sugar(goal)
    if universe is None:
        universe = collect_ground_terms(gamma + (goal_x,))
    if order is None:
        order = order_from_premises(gamma + (goal_x,))
    search = _Search(gamma, universe, order)
    env = search.base_env()
    if search.overflow:
        return ProofResult("unknown")
    for budget in range(depth + 1):
        node = search.prove(env, goal_x, budget, frozenset(), frozenset())
        if node is not None and not node.assumptions:
            return ProofResult("proved", _assemble(node, goal_x, universe))
        if search.overflow:
            return ProofResult("unknown")
    if refute:
        neg = prove(gamma, negation_of(goal_x), depth=depth,
                    universe=universe, order=order)
        if neg.outcome == "proved":
            return ProofResult("refuted", neg.proof)
    return ProofResult("unknown")


def projection(kb, agent: str, moment: str, exclude=frozenset(), extra=()) -> tuple:
    """The agent-relative premise set: certain axioms, believed contents at
    earlier-or-equal moments, percept contents at strictly earlier moments,
    plus the moment/event-calculus background.

    `exclude` drops axioms by label (revision removals); `extra` appends
    assumed additions, which the agent holds directly.
    """
    return (
        held_axioms(kb, agent, moment, exclude)
        + tuple(expand_sugar(x) for x in extra)
        + kb.background()
    )


def held_axioms(kb, agent: str, moment: str, exclude=frozenset()) -> tuple:
    """The axiom-derived head of the projection, sugar expanded: the
    certain axioms and the contents the agent holds at the moment."""
    agent_t, moment_t = kb.frame_terms(agent, moment)
    order = kb.order()
    out = []
    for ax in kb.axioms:
        if ax.label in exclude:
            continue
        f = expand_sugar(ax.formula)
        if ax.certain:
            out.append(f)
            continue
        body = held_content(f, agent_t, moment_t, order)
        if body is not None:
            out.append(body)
    return tuple(out)

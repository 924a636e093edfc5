"""Goal-directed natural-deduction proof search over the sorted modal
language, with replayable proof objects.

Search shape: premises are saturated forward with the elimination rules
(conjunction, exclusive disjunction, implication, ground universal
instantiation, perception lifting, contradiction detection); goals are
decomposed backward with the introduction rules; case splits over
disjunctive or existential premises and reductio consume the depth
budget.  Iterative deepening over that
budget keeps results deterministic and near-minimal.

Quantifier reasoning is ground: instantiation and case analysis range
over the finite term universe of the instance, so every quantifier rule
is sound under domain closure and the bounded search is exhaustible.
Belief goals are proved by the derived closure rule: collect the believed
contents at earlier-or-equal moments and prove the body from them with a
fresh sub-search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .logic import (
    And, Atom, Believes, Const, Exists, Falsum, Forall, Formula, FrozenRecord, Iff,
    Implies, Not, Or, Perceives, Xor, exclusion_atoms, exclusion_key, expand_sugar,
    formula_key, held_content, negation_key, negation_of, order_from_premises,
    substitute_unchecked, symbols, xor_conjuncts, xor_exclusion,
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

    def __init__(self, outcome: str, proof: Proof | None = None) -> None:
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


class _Base:
    """The saturated premise nodes of one search, shared by every
    environment of that search, with the sorted keys of its split
    candidates (`Or`, `Exists`) and of its `Believes` nodes.  Its falsum
    index (`falsum_index`) is built on the search's first falsum query.

    An exclusive disjunction over two or more atoms that the base
    saturation meets is kept whole, as in the set-of-support strategy
    (Wos, Robinson & Carson, JACM 1965).  From then on each of its
    exclusions `(not (and a b))` is in the base, but it becomes a node
    only when a lookup asks for its key (`get`) or when a and b are both
    present (`pair_up`): an exclusion that is not a node is blocked from
    the falsum step (`_absent_needs`), and every other use of a present
    node is a key lookup.  The exclusion is `logic.xor_exclusion`, and its
    key is read and built by `logic.exclusion_atoms` and
    `logic.exclusion_key`, so no key string is spelled here.

    Once the base is saturated its atoms are fixed: only exclusion nodes
    join it, and they are negations.  So the operand positions an xor has
    present in the base are found once (`_held`), and `pair_up` in an
    environment with few own nodes walks only those and the own layer's,
    not every operand."""

    __slots__ = ("nodes", "splits", "beliefs", "_falsum", "_xors", "_operands", "_held")

    def __init__(self):
        self.nodes: dict = {}
        self.splits: list = []
        self.beliefs: list = []
        self._falsum: tuple | None = None
        self._xors: dict = {}  # operand key -> [(xor node, position)], xors in the order met
        self._operands: dict = {}  # xor node -> its operand keys
        self._held: dict = {}  # xor node -> its positions present in the saturated base

    def index(self) -> None:
        """Sort the split candidates and beliefs, once saturation ends."""
        self.splits = _sorted_keys(self.nodes, (Or, Exists))
        self.beliefs = _sorted_keys(self.nodes, Believes)

    def get(self, key: str) -> _Node | None:
        got = self.nodes.get(key)
        if got is None and self._xors:
            pair = exclusion_atoms(key)
            if pair is not None:
                got = self._exclusion(key, *pair)
        return got

    def keep_whole(self, xor: _Node) -> None:
        """Register an exclusive disjunction over atoms while the base is
        built, and make a node of each exclusion whose two operands the
        base holds."""
        keys = [formula_key(a) for a in xor.formula.args]
        self._operands[xor] = keys
        for pos, k in enumerate(keys):
            self._xors.setdefault(k, []).append((xor, pos))
        for k in dict.fromkeys(keys):
            if k in self.nodes:
                self.pair_up(k, self.nodes)

    def pair_up(self, key: str, own: dict) -> None:
        """Make a node of each exclusion between the operand `key` and an
        operand present in the `own` layer or in the base, in operand
        position order; `own` is the base's own nodes while it is built."""
        for xor, pos in self._xors.get(key, ()):
            keys = self._operands[xor]
            for q in self._present_at(xor, own):
                if q != pos:
                    self.get(exclusion_key(key, keys[q]))

    def _present_at(self, xor: _Node, own: dict) -> list:
        """The sorted positions of the xor's operands present in `own` or
        in the base: the base's held positions and the own layer's, when
        they are fewer than all the operands, else a scan of every one."""
        keys, nodes = self._operands[xor], self.nodes
        if own is not nodes:
            held = self._held.get(xor)
            if held is None:
                held = self._held[xor] = [q for q, k in enumerate(keys) if k in nodes]
            if len(own) + len(held) < len(keys):
                at = set(held)
                for k in own:
                    at.update(q for x, q in self._xors.get(k, ()) if x is xor)
                return sorted(at)
        return [q for q, k in enumerate(keys) if k in own or k in nodes]

    def _exclusion(self, key: str, a: str, b: str) -> _Node | None:
        """The exclusion of operands keyed a and b, as the first xor met
        that has both derives it (at its first pair of positions), added to
        the base; None when no xor has both."""
        for xor, _ in self._xors.get(a, ()):
            at_a = [i for x, i in self._xors[a] if x is xor]
            at_b = [j for x, j in self._xors.get(b, ()) if x is xor]
            pairs = [(min(i, j), max(i, j)) for i in at_a for j in at_b if i != j]
            if pairs:
                i, j = min(pairs)
                node = _Node("xor_elim", (xor,), xor_exclusion(xor.formula, i, j),
                             extra=(i, j), key=key)
                self.nodes[key] = node
                if self._falsum is not None:
                    # made after the base saturated, it is blocked there: a
                    # base holding both atoms, or their conjunction, made it then
                    waiting = self._falsum[1]
                    for need in _absent_needs(node.formula.body, self.nodes, {}):
                        waiting.setdefault(need, []).append(node)
                return node
        return None

    def falsum_index(self) -> tuple:
        """The sorted keys of the negations that can close falsum at budget
        0, and, for each absent key that could unblock a blocked negation,
        the negation nodes waiting on it."""
        if self._falsum is None:
            unblocked, waiting = [], {}
            for k, n in self.nodes.items():
                if isinstance(n.formula, Not):
                    needs = _absent_needs(n.formula.body, self.nodes, {})
                    if not needs:
                        unblocked.append(k)
                    for need in needs:
                        waiting.setdefault(need, []).append(n)
            unblocked.sort()
            self._falsum = (unblocked, waiting)
        return self._falsum


def _sorted_keys(nodes: dict, kinds) -> list:
    return sorted(k for k, n in nodes.items() if isinstance(n.formula, kinds))


class _Env:
    """An immutable saturated fact set in two layers: the search's shared
    `base` and the `own` nodes that assumptions added beyond it.  A key
    enters `own` only when the base lacks it, and every environment of a
    search has the same base, so `key`, the key set of `own`, identifies
    the content within that search.  Failure memoization transfers between
    branches that reach the same premise set; successful nodes are cached
    per instance because their assumption bookkeeping is tied to this
    environment's assume nodes.

    `imps` lists the implication nodes in insertion order.  `splits()`,
    `beliefs()` and `unblocked()` merge the base's sorted indexes with the
    own layer's few entries."""

    __slots__ = ("base", "own", "key", "memo", "imps")

    def __init__(self, base: _Base, own: dict, imps: list):
        self.base = base
        self.own = own
        self.key = frozenset(own)
        self.memo: dict = {}
        self.imps = imps

    def get(self, key: str) -> _Node | None:
        return self.own.get(key) or self.base.get(key)

    def splits(self) -> list:
        return self._merged(self.base.splits, _sorted_keys(self.own, (Or, Exists)))

    def beliefs(self) -> list:
        return self._merged(self.base.beliefs, _sorted_keys(self.own, Believes))

    # A negation whose body has an absent need (`_absent_needs`) cannot
    # close a falsum goal, so the falsum step walks only the unblocked
    # negations.  Needs only appear as layers grow, so a negation unblocked
    # in the base stays unblocked, and a blocked base negation is unblocked
    # here only when one of the keys it waits on is in the own layer.

    def unblocked(self) -> list:
        """The sorted keys of the negations that can close falsum at budget 0."""
        keys, waiting = self.base.falsum_index()
        base, own = self.base.nodes, self.own
        negs = {n for k in own for n in waiting.get(k, ())}
        negs.update(n for n in own.values() if isinstance(n.formula, Not))
        return self._merged(keys, sorted(
            n.key for n in negs if not _absent_needs(n.formula.body, base, own)))

    @staticmethod
    def _merged(keys: list, own: list) -> list:
        return sorted(keys + own) if own else keys


def _absent_needs(body: Formula, base: dict, own: dict) -> tuple:
    """The absent keys whose addition could let a negated body be proved at
    budget 0 in an environment without falsum; empty when it may be proved
    now.

    Only an atom or a conjunction of atoms has them: such a body is proved
    at budget 0 only by being present itself or by having every atom
    present."""
    if isinstance(body, Atom):
        key = formula_key(body)
        return () if key in own or key in base else (key,)
    if not isinstance(body, And) or not all(isinstance(a, Atom) for a in body.args):
        return ()
    key = formula_key(body)
    if key in own or key in base:
        return ()
    atoms = tuple(k for k in map(formula_key, body.args) if k not in own and k not in base)
    return (key,) + atoms if atoms else ()


class _Instances:
    """The ground instances of one quantified formula over its sort's pool:
    `rows` holds (term, instance, key) in pool order and `at` maps each
    instance key to its first position."""

    __slots__ = ("pool", "rows", "at", "_held")

    def __init__(self, q: Formula, pool: tuple):
        self.pool = pool
        self.rows = []
        self.at: dict = {}
        for t in pool:
            inst = substitute_unchecked(q.body, q.var, t)
            key = formula_key(inst)
            self.at.setdefault(key, len(self.rows))
            self.rows.append((t, inst, key))
        self._held: list | None = None

    def present(self, env: _Env) -> list:
        """The sorted first positions of the instances present in the
        environment.  The base's are found once: its atoms are fixed once
        it is saturated, and a search has one base."""
        if self._held is None:
            nodes = env.base.nodes
            self._held = [p for k, p in self.at.items() if k in nodes]  # in pool order
        return sorted([self.at[k] for k in env.own if k in self.at] + self._held)


class _Search:
    """One backward search over one premise set.

    Every environment of the search reads one instance list per
    quantified formula (`instances`): the `Exists` and `Forall` goals and
    the `exists_elim_ground` split walk it instead of substituting the
    pool again.  An `Exists` goal over an atom body at budget 0 finds its
    witness by lookup (`_witness`), retrieving the present instances
    instead of trying each candidate, as term indexing does (Ramakrishnan,
    Sekar & Voronkov, Handbook of Automated Reasoning, 2001)."""

    def __init__(self, gamma: tuple, universe: dict, order):
        self.gamma = gamma
        self.universe = universe
        self._order = order
        self.overflow = False
        self.fails: dict = {}
        self._instances: dict = {}  # quantified formula -> _Instances

    def instances(self, q: Formula) -> _Instances:
        """The instance list of a quantified formula, built on first read."""
        got = self._instances.get(q)
        if got is None:
            got = self._instances[q] = _Instances(q, self.universe.get(q.var.sort, ()))
        return got

    def _witness(self, env: _Env, goal: Exists, seen: frozenset):
        """An atom-bodied existential at budget 0, as the per-instance loop
        would prove it, with no `prove` call per term.

        With no falsum in the environment (the caller has checked), an atom
        at budget 0 is proved only by its memo entry or by being present,
        and `fails` never records one.  So the witness is the lowest pool
        position among the present instances, the own layer's and the
        base's, that has a `(key, 0)` memo entry or is not in `seen`; the
        memo entry `prove` would write is written."""
        ins = self.instances(goal)
        for p in ins.present(env):
            t, _, key = ins.rows[p]
            node = env.memo.get((key, 0))
            if node is None and (env.key, key) not in seen:
                node = env.memo[(key, 0)] = env.get(key)
            if node is not None:
                return _Node("exists_intro", (node,), goal, extra=(t,))
        return None

    @property
    def order(self):
        """The proof's moment order, built on first read: the order the
        caller passed, else `order_from_premises` of the premises over the
        universe.  Only the percept and belief rules read it."""
        if self._order is None:
            self._order = order_from_premises(self.gamma, self.universe)
        return self._order

    # -- forward saturation ------------------------------------------------

    def base_env(self) -> _Env:
        base = _Base()
        nodes = base.nodes
        new = []
        for g in self.gamma:
            n = _Node("premise", (), g)
            if n.key not in nodes:
                nodes[n.key] = n
                new.append(n)
        imps = self._saturate(base, nodes, new, [])
        base.index()
        return _Env(base, {}, imps)

    def extend(self, env: _Env, formulas: tuple):
        base = env.base
        own = dict(env.own)
        assumes = []
        new = []
        for f in formulas:
            n = _Node("assume", (), f, assumptions=frozenset())
            n.assumptions = frozenset([n])
            if n.key not in own and base.get(n.key) is None:
                # an already-derived fact needs no assumption; the fresh
                # assume node still stands in for discharge bookkeeping
                own[n.key] = n
                new.append(n)
            assumes.append(n)
        imps = self._saturate(base, own, new, env.imps)
        return _Env(env.base, own, imps), assumes

    def _saturate(self, base: _Base, own: dict, new: list, imps: list) -> list:
        """Saturate `own` over `base` from the `new` nodes, adding to `own`
        only keys that neither layer has; `own` is `base.nodes` itself
        while the base is built.  `imps` lists the implication nodes
        already in the layers before `new`.  Returns the implication list
        of the result."""
        kept = list(imps)
        # a new implication is on the firing list from the start and again
        # once processed; the firing order decides which nodes, and so
        # which proofs, come first
        imps = imps + [n for n in new if isinstance(n.formula, Implies)]
        work = list(new)
        idx = 0
        building = own is base.nodes

        def get(key: str) -> _Node | None:
            return own.get(key) or base.get(key)

        def add(node: _Node) -> None:
            if len(own) + (0 if building else len(base.nodes)) > _SATURATION_CAP:
                self.overflow = True
                return
            if get(node.key) is not None:
                return
            own[node.key] = node
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
            elif isinstance(f, Xor):
                add(_Node("xor_elim", (n,), Or(f.args)))
                if building and len(f.args) > 1 and all(isinstance(a, Atom) for a in f.args):
                    base.keep_whole(n)
                    # an exclusion whose (and a b) is present is processed,
                    # in pair order, as the expansion's conjunct would be
                    met = [base.get(e) for e in map(negation_key, list(own)) if exclusion_atoms(e)]
                    work += sorted((e for e in met if e is not None and e.inputs[:1] == (n,)),
                                   key=lambda e: e.extra)
                else:
                    for i, j in combinations(range(len(f.args)), 2):
                        if self.overflow:
                            break
                        add(_Node("xor_elim", (n,), xor_exclusion(f, i, j), extra=(i, j)))
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
            if n.key in base._xors:
                base.pair_up(n.key, own)
            # contradiction detection; a negation's key wraps its body's,
            # so no negation node is built to look it up
            partner = get(formula_key(f.body) if isinstance(f, Not) else negation_key(n.key))
            if partner is not None and get(_FALSE_KEY) is None:
                pos, negn = (partner, n) if isinstance(f, Not) else (n, partner)
                add(_Node("neg_elim", (pos, negn), Falsum()))
            # implication firing
            fired = True
            while fired:
                fired = False
                for imp in list(imps):
                    if get(formula_key(imp.formula.right)) is not None:
                        continue
                    ante = self._antecedent_node(imp.formula.left, get, own)
                    if ante is not None:
                        add(_Node("imp_elim", (imp, ante), imp.formula.right))
                        fired = True
            if self.overflow:
                break
        return kept

    def _antecedent_node(self, ante: Formula, get, own: dict) -> _Node | None:
        key = formula_key(ante)
        got = get(key)
        if got is not None:
            return got
        conj = ante.args if isinstance(ante, And) else (
            xor_conjuncts(ante) if isinstance(ante, Xor) else None)
        if conj is not None:
            parts = [get(k) for k in map(formula_key, conj)]
            if all(p is not None for p in parts):
                n = _Node("and_intro", tuple(parts), And(conj), key=key)
                own[n.key] = n
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
        for m in self.universe.get("Moment", ()):
            if isinstance(m, Const) and self.order.lt(t1, m.name):
                add(_Node("r_p", (n,), Believes(f.agent, m, f.body),
                          extra=((t1, m.name),)))

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
        elif budget > 0 or not isinstance(goal, Atom):
            # an atom at budget 0 is two lookups, cheaper than a record
            self.fails[fk] = True
        return node

    def _prove_inner(self, env: _Env, goal: Formula, key: str, budget: int,
                     seen: frozenset, splits: frozenset):
        got = env.get(key)
        if got is not None:
            return got
        falsum = env.get(_FALSE_KEY)
        if falsum is not None and not isinstance(goal, Falsum):
            return _Node("efq", (falsum,), goal)

        if isinstance(goal, Falsum):
            # complementary literal pairs are caught during saturation; here
            # only try to close negated premises structurally (budget 0),
            # deeper contradictions come from the split fallback below
            for k in env.unblocked():
                n = env.get(k)
                sub = self.prove(env, n.formula.body, 0, seen, splits)
                if sub is not None:
                    return _Node("neg_elim", (sub, n), Falsum())
        elif isinstance(goal, (And, Xor)):
            conj = goal.args if isinstance(goal, And) else xor_conjuncts(goal)
            parts = []
            for arg in conj:
                sub = self.prove(env, arg, budget, seen, splits)
                if sub is None:
                    parts = None
                    break
                parts.append(sub)
            if parts is not None:
                return _Node("and_intro", tuple(parts), And(conj), key=key)
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
            ins = self.instances(goal)
            if ins.rows:
                parts = []
                for _, inst, _ in ins.rows:
                    sub = self.prove(env, inst, budget, seen, splits)
                    if sub is None:
                        parts = None
                        break
                    parts.append(sub)
                if parts is not None:
                    return _Node("forall_intro_ground", tuple(parts), goal, extra=ins.pool)
        elif isinstance(goal, Exists):
            if budget == 0 and isinstance(goal.body, Atom):
                return self._witness(env, goal, seen)
            for t, inst, _ in self.instances(goal).rows:
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
        for k in env.splits():
            if k in splits:
                continue
            n = env.get(k)
            if isinstance(n.formula, Or):
                cases = self._split(env, goal, n, n.formula.args, budget,
                                    seen, splits | {k})
                if cases is not None:
                    return _Node("or_elim", (n,) + cases, goal,
                                 assumptions=self._discharge(n, cases))
            else:
                ins = self.instances(n.formula)
                if not ins.rows:
                    continue
                insts = tuple(inst for _, inst, _ in ins.rows)
                cases = self._split(env, goal, n, insts, budget, seen, splits | {k})
                if cases is not None:
                    return _Node("exists_elim_ground", (n,) + cases, goal,
                                 extra=ins.pool,
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
        for k in env.beliefs():
            n = env.get(k)
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
        key=formula_key,
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
    depth: int,
    universe: dict,
    order=None,
    refute: bool = False,
) -> ProofResult:
    """Search for a proof of the goal from the premise set, with
    quantifiers ranging over `universe` (a KB's `kb.universe(...)`).

    The moment order defaults to `order_from_premises` of the premises
    over the universe, built only when a percept or belief rule first
    reads it; a `prior` atom of the goal orders nothing, since a proof that
    read it would assume what it proves.  A belief proof passes its order
    to the sub-search it nests, so both read one order.  Returns proved
    with a replayable proof, refuted (when asked) with a proof of the
    negated goal, or unknown once the depth budget and the bounded search
    space are exhausted.
    """
    gamma = tuple(expand_sugar(g) for g in gamma)
    goal_x = expand_sugar(goal)
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
                    universe=universe, order=search._order)
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

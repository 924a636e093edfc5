"""Sorted terms and formulas, and the structural operations on them.

The language is a multi-sorted first-order language over event-calculus
function symbols, extended with three agent/moment-indexed operators:
belief, perception and withholding.  Withholding and exclusive
disjunction are definable sugar; :func:`expand_sugar` removes them.

Term and formula nodes are interned: building a node equal to an existing
one returns that node, so `==` is object identity.  `formula_key`, the one
formula identity, stores its result on the node; the intern table is the
one cache that lives as long as the process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Iterable, Optional, Union

from .errors import SortError, UnknownSymbolError

# ---------------------------------------------------------------------------
# Sorts and signatures

BUILTIN_SORTS: dict[str, Optional[str]] = {
    "Object": None,
    "Agent": None,
    "Self": "Agent",
    "ActionType": None,
    "Event": None,
    "Action": "Event",
    "Moment": None,
    "Boolean": None,
    "Fluent": None,
    "Numeric": None,
}

CORE_FUNCTIONS: dict[str, tuple[tuple[str, ...], str]] = {
    "action": (("Agent", "ActionType"), "Action"),
    "initially": (("Fluent",), "Boolean"),
    "holds": (("Fluent", "Moment"), "Boolean"),
    "happens": (("Event", "Moment"), "Boolean"),
    "clipped": (("Moment", "Fluent", "Moment"), "Boolean"),
    "initiates": (("Event", "Fluent", "Moment"), "Boolean"),
    "terminates": (("Event", "Fluent", "Moment"), "Boolean"),
    "prior": (("Moment", "Moment"), "Boolean"),
}


def is_numeral(name: str) -> bool:
    """An integer literal in its one canonical spelling: one optional `-`
    followed by ASCII digits, no leading zero and no `-0`, so that one
    value is one moment."""
    digits = name[1:] if name.startswith("-") else name
    return digits.isascii() and digits.isdigit() and str(int(name)) == name


class Signature:
    """Declared sorts, constants and function symbols.

    Integer literals are admitted everywhere as constants of sort Moment;
    they never need a declaration.
    """

    def __init__(self) -> None:
        self.sorts: dict[str, Optional[str]] = dict(BUILTIN_SORTS)
        self.constants: dict[str, str] = {}
        self.functions: dict[str, tuple[tuple[str, ...], str]] = dict(CORE_FUNCTIONS)

    def declare_sort(self, name: str, parent: Optional[str] = None) -> None:
        if name in self.sorts:
            raise SortError(f"sort {name!r} already declared")
        if parent is not None and parent not in self.sorts:
            raise UnknownSymbolError(parent, f"unknown parent sort {parent!r}")
        self.sorts[name] = parent
        if self._has_cycle(name):
            del self.sorts[name]
            raise SortError(f"sort {name!r} would create a cycle")

    def _has_cycle(self, start: str) -> bool:
        seen = set()
        cur: Optional[str] = start
        while cur is not None:
            if cur in seen:
                return True
            seen.add(cur)
            cur = self.sorts.get(cur)
        return False

    def declare_const(self, name: str, sort: str) -> None:
        if sort not in self.sorts:
            raise UnknownSymbolError(sort, f"unknown sort {sort!r}")
        if name in self.constants or name in self.functions:
            raise SortError(f"symbol {name!r} already declared")
        self.constants[name] = sort

    def declare_func(self, name: str, arg_sorts: Iterable[str], result: str) -> None:
        arg_sorts = tuple(arg_sorts)
        for s in arg_sorts + (result,):
            if s not in self.sorts:
                raise UnknownSymbolError(s, f"unknown sort {s!r}")
        if name in self.functions or name in self.constants:
            raise SortError(f"symbol {name!r} already declared")
        self.functions[name] = (arg_sorts, result)

    def sort_le(self, a: str, b: str) -> bool:
        """True when sort a is b or a declared subsort of b."""
        cur: Optional[str] = a
        while cur is not None:
            if cur == b:
                return True
            cur = self.sorts.get(cur)
        return False


# ---------------------------------------------------------------------------
# Interned nodes
#
# A node's hash is computed once, when it is created, as the hash of its
# field tuple: the value a frozen dataclass gives, so set and dict
# iteration orders are those of uninterned nodes.  Each node also stores,
# the first time they are asked for, its structural key, its formula
# identity, its sugar-free form, its AC-sorted form and its normal form.
# The intern table is one dict per node class.

_set = object.__setattr__


class _Node:
    """Base of the interned term and formula classes."""

    __slots__ = ("_hash", "_skey", "_fkey", "_plain", "_ac", "_norm")

    def __new__(cls, *args, **kwargs):
        if kwargs:  # fields by name, as the dataclass constructor takes them
            args += tuple(kwargs.pop(n) for n in cls._names[len(args):] if n in kwargs)
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        node = cls._interned.get(args)
        if node is None:
            if len(args) != len(cls._names):
                raise TypeError(f"{cls.__name__}() takes {len(cls._names)} fields, got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(cls._names, args):
                _set(node, name, value)
            _set(node, "_hash", hash(args))
            _set(node, "_skey", None)
            _set(node, "_fkey", None)
            _set(node, "_plain", None)
            _set(node, "_ac", None)
            _set(node, "_norm", None)
            # publish the finished node; a thread that built an equal node
            # first wins, so equal fields still give one object
            node = cls._interned.setdefault(args, node)
        return node

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._names)


def _node(cls):
    """Make `cls` a frozen, slotted, interned node dataclass."""
    cls = dataclass(frozen=True, eq=False, init=False, slots=True)(cls)
    cls._names = tuple(f.name for f in fields(cls))
    cls._interned = {}
    return cls


# ---------------------------------------------------------------------------
# Terms

@_node
class Var(_Node):
    name: str
    sort: str


@_node
class Const(_Node):
    name: str
    sort: str


@_node
class App(_Node):
    fn: str
    args: tuple
    sort: str


Term = Union[Var, Const, App]


def term_free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset([t])
    if isinstance(t, App):
        out: frozenset = frozenset()
        for a in t.args:
            out |= term_free_vars(a)
        return out
    return frozenset()


def term_symbols(t: Term) -> frozenset:
    if isinstance(t, (Var, Const)):
        return frozenset([t.name])
    return frozenset([t.fn]).union(*[term_symbols(a) for a in t.args]) if t.args else frozenset([t.fn])


def term_weight(t: Term) -> int:
    if isinstance(t, App):
        return 1 + sum(term_weight(a) for a in t.args)
    return 1


def subst_term(t: Term, var: Var, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t == var else t
    if isinstance(t, App):
        return App(t.fn, tuple(subst_term(a, var, repl) for a in t.args), t.sort)
    return t


# ---------------------------------------------------------------------------
# Formulas

@_node
class Atom(_Node):
    term: Term  # Boolean-sorted term


@_node
class Falsum(_Node):
    pass


@_node
class Not(_Node):
    body: "Formula"


@_node
class And(_Node):
    args: tuple


@_node
class Or(_Node):
    args: tuple


@_node
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Iff(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Xor(_Node):
    args: tuple  # sugar: pairwise-exclusive disjunction


@_node
class Forall(_Node):
    var: Var
    body: "Formula"


@_node
class Exists(_Node):
    var: Var
    body: "Formula"


@_node
class Believes(_Node):
    agent: Term
    moment: Term
    body: "Formula"


@_node
class Perceives(_Node):
    agent: Term
    moment: Term
    body: "Formula"


@_node
class Withholds(_Node):
    agent: Term
    moment: Term
    body: "Formula"  # sugar: neither believes body nor its negation


Formula = Union[
    Atom, Falsum, Not, And, Or, Implies, Iff, Xor,
    Forall, Exists, Believes, Perceives, Withholds,
]

MODAL = (Believes, Perceives, Withholds)
NARY = (And, Or, Xor)
BINARY = (Implies, Iff)
QUANT = (Forall, Exists)


class StrengthLevel(IntEnum):
    """Graded belief strengths, totally ordered none < 1 < ... < 5."""

    NONE = 0
    ACCEPTABLE = 1
    PRESUMPTION = 2
    BEYOND_REASONABLE_DOUBT = 3
    EVIDENT = 4
    CERTAIN = 5

    @property
    def label(self) -> str:
        return {
            0: "none",
            1: "acceptable",
            2: "some presumption in favor",
            3: "beyond reasonable doubt",
            4: "evident",
            5: "certain",
        }[int(self)]


# ---------------------------------------------------------------------------
# Structural traversal helpers

def children(f: Formula) -> tuple:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, NARY):
        return f.args
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, QUANT):
        return (f.body,)
    if isinstance(f, MODAL):
        return (f.body,)
    return ()


def rebuild(f: Formula, kids: tuple) -> Formula:
    if isinstance(f, Not):
        return Not(kids[0])
    if isinstance(f, (And, Or, Xor)):
        return type(f)(tuple(kids))
    if isinstance(f, (Implies, Iff)):
        return type(f)(kids[0], kids[1])
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, kids[0])
    if isinstance(f, MODAL):
        return type(f)(f.agent, f.moment, kids[0])
    return f


def free_vars(f: Formula) -> frozenset:
    """Variables with at least one occurrence not bound by a quantifier."""
    if isinstance(f, Atom):
        return term_free_vars(f.term)
    if isinstance(f, QUANT):
        return free_vars(f.body) - {f.var}
    if isinstance(f, MODAL):
        return term_free_vars(f.agent) | term_free_vars(f.moment) | free_vars(f.body)
    out: frozenset = frozenset()
    for c in children(f):
        out |= free_vars(c)
    return out


def symbols(f: Formula) -> frozenset:
    """Distinct non-logical symbol names occurring in f."""
    if isinstance(f, Atom):
        return term_symbols(f.term)
    if isinstance(f, MODAL):
        out = term_symbols(f.agent) | term_symbols(f.moment)
        return out | symbols(f.body)
    out = frozenset()
    for c in children(f):
        out |= symbols(c)
    return out


def constant_symbols(f: Formula) -> frozenset:
    """Function and constant names occurring in f; variables excluded."""

    def of_term(t: Term) -> frozenset:
        if isinstance(t, Var):
            return frozenset()
        if isinstance(t, Const):
            return frozenset([t.name])
        out = frozenset([t.fn])
        for a in t.args:
            out |= of_term(a)
        return out

    if isinstance(f, Atom):
        return of_term(f.term)
    if isinstance(f, MODAL):
        return of_term(f.agent) | of_term(f.moment) | constant_symbols(f.body)
    out: frozenset = frozenset()
    for c in children(f):
        out |= constant_symbols(c)
    return out


def weight(f: Formula) -> int:
    """Symbol-occurrence count; an atomic 0-ary predicate weighs 1."""
    if isinstance(f, Atom):
        return term_weight(f.term)
    if isinstance(f, Falsum):
        return 1
    if isinstance(f, MODAL):
        return 1 + term_weight(f.agent) + term_weight(f.moment) + weight(f.body)
    return 1 + sum(weight(c) for c in children(f))


def substitute(f: Formula, var: Var, t: Term, sig: Optional[Signature] = None) -> Formula:
    """Replace free occurrences of var by t, capture-avoiding.

    When a signature is supplied the replacement's sort must be a subsort
    of the variable's sort.
    """
    sort_le = _builtin_le if sig is None else sig.sort_le
    if not sort_le(t.sort, var.sort):
        raise SortError(
            f"cannot substitute {t.sort} term for {var.sort} variable {var.name!r}"
        )
    return _subst(f, var, t)


def _builtin_le(a: str, b: str) -> bool:
    cur: Optional[str] = a
    while cur is not None:
        if cur == b:
            return True
        cur = BUILTIN_SORTS.get(cur)
    return False


def _subst(f: Formula, var: Var, t: Term) -> Formula:
    if isinstance(f, Atom):
        return Atom(subst_term(f.term, var, t))
    if isinstance(f, QUANT):
        if f.var == var:
            return f
        if f.var in term_free_vars(t):
            fresh = _fresh_var(f.var, free_vars(f.body) | term_free_vars(t))
            body = _subst(f.body, f.var, fresh)
            return type(f)(fresh, _subst(body, var, t))
        return type(f)(f.var, _subst(f.body, var, t))
    if isinstance(f, MODAL):
        return type(f)(
            subst_term(f.agent, var, t),
            subst_term(f.moment, var, t),
            _subst(f.body, var, t),
        )
    kids = tuple(_subst(c, var, t) for c in children(f))
    return rebuild(f, kids)


def substitute_unchecked(f: Formula, var: Var, t: Term) -> Formula:
    """Substitution without the sort-compatibility check; for internal use
    where the replacement is drawn from a sort-correct ground universe."""
    return _subst(f, var, t)


def _fresh_var(v: Var, avoid: frozenset) -> Var:
    names = {x.name for x in avoid}
    i = 0
    name = f"{v.name}_{i}"
    while name in names:
        i += 1
        name = f"{v.name}_{i}"
    return Var(name, v.sort)


def expand_sugar(f: Formula) -> Formula:
    """Remove withholding and exclusive-disjunction nodes.

    Withholding unfolds to the conjunction of the two negated beliefs;
    exclusive disjunction to the inclusive disjunction plus pairwise
    exclusion.  Idempotent.  The result is stored on the node.
    """
    got = f._plain
    if got is not None:
        return got
    if isinstance(f, Withholds):
        body = expand_sugar(f.body)
        got = And((
            Not(Believes(f.agent, f.moment, body)),
            Not(Believes(f.agent, f.moment, Not(body))),
        ))
    elif isinstance(f, Xor):
        args = tuple(expand_sugar(a) for a in f.args)
        pairs = tuple(Not(And((a, b))) for a, b in itertools.combinations(args, 2))
        got = And((Or(args),) + pairs)
    else:
        got = rebuild(f, tuple(expand_sugar(c) for c in children(f)))
    _set(f, "_plain", got)
    return got


def negation_of(f: Formula) -> Formula:
    """The complementary formula: strips one top-level negation if present."""
    if isinstance(f, Not):
        return f.body
    return Not(f)


def is_belief_at(f: Formula, agent: str, moment: str) -> bool:
    """Whether `f` is a belief of the constant `agent` at `moment`."""
    return (
        isinstance(f, Believes)
        and isinstance(f.agent, Const) and f.agent.name == agent
        and isinstance(f.moment, Const) and f.moment.name == moment
    )


# ---------------------------------------------------------------------------
# Well-sortedness

def well_sorted(f: Formula, sig: Signature) -> bool:
    """Check arity and sort discipline against a signature.

    Returns False on a sort mismatch; raises UnknownSymbolError when a
    symbol has no declaration at all.
    """
    try:
        _check_formula(f, sig, {})
        return True
    except SortError:
        return False


def _check_term(t: Term, sig: Signature, env: dict) -> str:
    if isinstance(t, Var):
        bound = env.get(t.name)
        if bound is not None and bound != t.sort:
            raise SortError(f"variable {t.name!r} used at sort {t.sort}, bound at {bound}")
        if t.sort not in sig.sorts:
            raise UnknownSymbolError(t.sort)
        return t.sort
    if isinstance(t, Const):
        if is_numeral(t.name):
            return t.sort
        declared = sig.constants.get(t.name)
        if declared is None:
            raise UnknownSymbolError(t.name)
        if declared != t.sort:
            raise SortError(f"constant {t.name!r} declared {declared}, used as {t.sort}")
        return declared
    if t.fn not in sig.functions:
        raise UnknownSymbolError(t.fn)
    arg_sorts, result = sig.functions[t.fn]
    if len(t.args) != len(arg_sorts):
        raise SortError(f"{t.fn!r} expects {len(arg_sorts)} arguments, got {len(t.args)}")
    for a, want in zip(t.args, arg_sorts):
        got = _check_term(a, sig, env)
        if not sig.sort_le(got, want):
            raise SortError(f"{t.fn!r} argument has sort {got}, expected {want}")
    return result


def _check_formula(f: Formula, sig: Signature, env: dict) -> None:
    if isinstance(f, Atom):
        result = _check_term(f.term, sig, env)
        if result != "Boolean":
            raise SortError(f"atom has sort {result}, expected Boolean")
        return
    if isinstance(f, Falsum):
        return
    if isinstance(f, MODAL):
        a = _check_term(f.agent, sig, env)
        if not sig.sort_le(a, "Agent"):
            raise SortError(f"modal agent argument has sort {a}")
        m = _check_term(f.moment, sig, env)
        if not sig.sort_le(m, "Moment"):
            raise SortError(f"modal moment argument has sort {m}")
        _check_formula(f.body, sig, env)
        return
    if isinstance(f, QUANT):
        if f.var.sort not in sig.sorts:
            raise UnknownSymbolError(f.var.sort)
        inner = dict(env)
        inner[f.var.name] = f.var.sort
        _check_formula(f.body, sig, inner)
        return
    for c in children(f):
        _check_formula(c, sig, env)


# ---------------------------------------------------------------------------
# Normalization and the one formula identity
#
# Two formulas are the same formula exactly when their normal forms have
# the same structural key; `formula_key` is that key and the only place
# the package decides formula identity (probability table, cited premises,
# revision pools, belief store, proof replay).  `struct_key` alone orders
# formulas and names atoms that are already in normal form.

def _struct_key(f: Formula, depth: dict, level: int) -> str:
    """Alpha-invariant structural key; bound variables keyed by binder depth.

    Outside every binder (`depth` empty) the key depends on the node alone,
    so it is computed once and stored on the node."""
    if not depth and f._skey is not None:
        return f._skey
    if isinstance(f, Atom):
        key = "a(" + _term_key(f.term, depth) + ")"
    elif isinstance(f, Falsum):
        key = "false"
    elif isinstance(f, Not):
        key = "n(" + _struct_key(f.body, depth, level) + ")"
    elif isinstance(f, NARY):
        tag = {And: "and", Or: "or", Xor: "xor"}[type(f)]
        key = tag + "(" + ",".join(_struct_key(a, depth, level) for a in f.args) + ")"
    elif isinstance(f, BINARY):
        tag = "imp" if isinstance(f, Implies) else "iff"
        key = tag + "(" + _struct_key(f.left, depth, level) + "," + _struct_key(f.right, depth, level) + ")"
    elif isinstance(f, QUANT):
        tag = "all" if isinstance(f, Forall) else "ex"
        inner = dict(depth)
        inner[f.var.name] = level
        key = f"{tag}[{f.var.sort}](" + _struct_key(f.body, inner, level + 1) + ")"
    else:
        tag = {Believes: "bel", Perceives: "per", Withholds: "wit"}[type(f)]
        key = tag + "(" + _term_key(f.agent, depth) + "," + _term_key(f.moment, depth) + "," + _struct_key(f.body, depth, level) + ")"
    if not depth:
        _set(f, "_skey", key)
    return key


def _term_key(t: Term, depth: dict) -> str:
    """The key of a term; stored on the term when `depth` is empty."""
    if not depth and t._skey is not None:
        return t._skey
    if isinstance(t, Var):
        key = f"b{depth[t.name]}" if t.name in depth else f"v:{t.name}:{t.sort}"
    elif isinstance(t, Const):
        key = f"c:{t.name}"
    else:
        key = t.fn + "(" + ",".join(_term_key(a, depth) for a in t.args) + ")"
    if not depth:
        _set(t, "_skey", key)
    return key


def struct_key(f: Formula) -> str:
    return _struct_key(f, {}, 0)


def _ac_sort(f: Formula) -> Formula:
    """Flatten and order associative-commutative connectives.

    A run of nested nodes of one connective is flattened first and sorted
    once, so each operand is keyed once however deep the run is.  The
    result is stored on the node."""
    got = f._ac
    if got is not None:
        return got
    if isinstance(f, (And, Or)):
        flat: list = []
        _ac_flatten(f, type(f), flat)
        flat.sort(key=struct_key)
        got = flat[0] if len(flat) == 1 else type(f)(tuple(flat))
    else:
        got = rebuild(f, tuple(_ac_sort(c) for c in children(f)))
    _set(f, "_ac", got)
    return got


def _ac_flatten(f: Formula, kind: type, out: list) -> None:
    """Append the normalized operands of the `kind` run rooted at f."""
    for a in f.args:
        if type(a) is kind:
            _ac_flatten(a, kind, out)
            continue
        a = _ac_sort(a)
        if type(a) is kind:  # a one-operand node of the other connective
            out.extend(a.args)
        else:
            out.append(a)


def _alpha(f: Formula, env: dict, counter: list, taken: frozenset) -> Formula:
    """Rename binders to `_v0`, `_v1`, ..., skipping the free names in `taken`."""
    if isinstance(f, Atom):
        return Atom(_alpha_term(f.term, env))
    if isinstance(f, QUANT):
        while f"_v{counter[0]}" in taken:
            counter[0] += 1
        fresh = Var(f"_v{counter[0]}", f.var.sort)
        counter[0] += 1
        inner = dict(env)
        inner[f.var] = fresh
        return type(f)(fresh, _alpha(f.body, inner, counter, taken))
    if isinstance(f, MODAL):
        return type(f)(
            _alpha_term(f.agent, env),
            _alpha_term(f.moment, env),
            _alpha(f.body, env, counter, taken),
        )
    kids = tuple(_alpha(c, env, counter, taken) for c in children(f))
    return rebuild(f, kids)


def _alpha_term(t: Term, env: dict) -> Term:
    if isinstance(t, Var):
        return env.get(t, t)
    if isinstance(t, App):
        return App(t.fn, tuple(_alpha_term(a, env) for a in t.args), t.sort)
    return t


def normalize(f: Formula) -> Formula:
    """Canonical form: sugar expanded, AC connectives flattened and
    ordered, bound variables renamed deterministically.

    Two formulas are treated as equal throughout the package exactly when
    their normal forms coincide.  The result is stored on the node.
    """
    got = f._norm
    if got is not None:
        return got
    if isinstance(f, Not):
        # every stage maps a negation to the negation of its body's result,
        # so a negated formula whose body is normalized costs one node
        got = Not(normalize(f.body))
    else:
        plain = expand_sugar(f)
        # binders are keyed by name, so a free name is never reused for one
        taken = frozenset(v.name for v in free_vars(plain))
        got = _alpha(_ac_sort(plain), {}, [0], taken)
    _set(f, "_norm", got)
    return got


def formula_key(f: Formula) -> str:
    """The identity of a formula: the structural key of its normal form,
    computed once per node and stored on it."""
    got = f._fkey
    if got is None:
        got = struct_key(normalize(f))
        _set(f, "_fkey", got)
    return got


def quote_modal(f: Formula) -> Atom:
    """The opaque Boolean atom standing for one belief or perception node:
    `@bel`/`@per` over its agent, its moment and its body's identity."""
    tag = "@bel" if isinstance(f, Believes) else "@per"
    quoted = Const("q" + formula_key(f.body), "Object")
    return Atom(App(tag, (f.agent, f.moment, quoted), "Boolean"))


# ---------------------------------------------------------------------------
# Ground-term utilities shared by the prover and the model checker

def stated_ground_atoms(formulas: Iterable[Formula], fn: str) -> set:
    """Argument tuples of ground `fn` atoms stated positively, at the top
    level or inside top-level conjunctions."""
    out = set()
    for f in formulas:
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, And):
                stack.extend(g.args)
            elif (
                isinstance(g, Atom)
                and isinstance(g.term, App)
                and g.term.fn == fn
                and not term_free_vars(g.term)
            ):
                out.add(g.term.args)
    return out


def collect_ground_terms(
    formulas: Iterable[Formula], parents: Optional[dict] = None
) -> dict:
    """Ground subterms grouped by sort; each term also joins the buckets of
    its ancestor sorts.  Buckets are deterministically ordered."""
    parents = BUILTIN_SORTS if parents is None else parents
    buckets: dict = {}

    def add(t: Term) -> None:
        cur: Optional[str] = t.sort
        while cur is not None:
            buckets.setdefault(cur, {}).setdefault(t, None)
            cur = parents.get(cur)

    def walk_term(t: Term) -> None:
        if isinstance(t, Const):
            add(t)
        elif isinstance(t, App):
            for a in t.args:
                walk_term(a)
            if not term_free_vars(t):
                add(t)

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            walk_term(f.term)
            return
        if isinstance(f, MODAL):
            walk_term(f.agent)
            walk_term(f.moment)
        for c in children(f):
            walk(c)

    for f in formulas:
        walk(f)
    return {
        s: tuple(sorted(b, key=lambda t: _term_key(t, {})))
        for s, b in buckets.items()
    }


def stated_prior_pairs(formulas: Iterable[Formula]) -> set:
    """Moment-name pairs of the ground `prior` atoms stated positively, at
    the top level or inside top-level conjunctions."""
    return {
        (a.name, b.name)
        for a, b in stated_ground_atoms(formulas, "prior")
        if isinstance(a, Const) and isinstance(b, Const)
    }


class MomentOrder:
    """A strict order over moment names: the transitive closure of the
    stated `prior` pairs plus numeric order on the numeral moments.

    A moment on a cycle is related to itself.  `KbDocument.order` rejects
    such an order; the order of a premise set keeps it.
    """

    def __init__(self, pairs: Iterable[tuple] = (), moments: Iterable[str] = ()):
        self._stated = frozenset(pairs)
        self.moments = sorted(set(moments).union(*self._stated))
        numerals = sorted((m for m in self.moments if is_numeral(m)), key=int)
        succ: dict = {}
        for a, b in itertools.chain(self._stated, zip(numerals, numerals[1:])):
            succ.setdefault(a, set()).add(b)
        closure = set()
        for a, direct in succ.items():
            seen: set = set()
            stack = list(direct)
            while stack:
                b = stack.pop()
                if b not in seen:
                    seen.add(b)
                    stack.extend(succ.get(b, ()))
            closure.update((a, b) for b in seen)
        self._closure = frozenset(closure)

    def lt(self, a: str, b: str) -> bool:
        return (a, b) in self._closure

    def le(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self._closure

    def pairs(self) -> list:
        return sorted(self._closure)

    def minimum(self) -> Optional[str]:
        """The unique minimal moment, when one exists."""
        minima = [m for m in self.moments if not any(self.lt(x, m) for x in self.moments)]
        if len(minima) == 1:
            return minima[0]
        return None

    def widened(self, pairs: Iterable[tuple], moments: Iterable[str]) -> "MomentOrder":
        """This order with more stated pairs and moments; the order itself
        when none of them is new."""
        pairs = frozenset(pairs)
        moments = set(moments)
        if pairs <= self._stated and moments.issubset(self.moments):
            return self
        return MomentOrder(self._stated | pairs, moments.union(self.moments))


def moment_names(terms: dict) -> set:
    """The names of the constant moments among ground terms grouped by sort."""
    return {t.name for t in terms.get("Moment", ()) if isinstance(t, Const)}


def order_from_premises(formulas: Iterable[Formula]) -> MomentOrder:
    """The moment order a premise set states: its ground `prior` atoms plus
    numeric order on its numeral moments."""
    formulas = tuple(formulas)
    return MomentOrder(
        stated_prior_pairs(formulas), moment_names(collect_ground_terms(formulas))
    )


def held_content(f: Formula, agent: Term, moment: Term, order) -> Optional[Formula]:
    """The body of `f` when `agent` holds it at `moment`: a belief by
    `agent` at `moment` or earlier, or a perception strictly earlier.
    Otherwise None."""
    if not isinstance(f, (Believes, Perceives)) or f.agent != agent:
        return None
    if isinstance(f, Believes) and f.moment == moment:
        return f.body
    ground = isinstance(f.moment, Const) and isinstance(moment, Const)
    return f.body if ground and order.lt(f.moment.name, moment.name) else None

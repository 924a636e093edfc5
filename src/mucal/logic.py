"""Sorted terms and formulas, and the structural operations on them.

The language is a multi-sorted first-order language over event-calculus
function symbols, extended with three agent/moment-indexed operators:
belief, perception and withholding.  Withholding is definable sugar;
:func:`expand_sugar` removes it.  Exclusive disjunction stays whole from
parse to proof: its identity is that of its pairwise expansion (the
inclusive disjunction plus each pair's exclusion), computed from its
operand keys without building the expansion.

Term and formula nodes are interned: building a node equal to an existing
one returns that node, so `==` is object identity.  `formula_key`, the one
formula identity, is read off the sugar-free formula in one walk: and/or
runs flattened and ordered, bound variables keyed by binder depth.  It
stores its result on the node, as `has_modal` does its answer; the intern
table is the one cache that lives as long as the process.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from enum import IntEnum

from .errors import SortError, UnknownSymbolError

# ---------------------------------------------------------------------------
# Sorts and signatures

BUILTIN_SORTS: dict[str, str | None] = {
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
        self.sorts: dict[str, str | None] = dict(BUILTIN_SORTS)
        self.constants: dict[str, str] = {}
        self.functions: dict[str, tuple[tuple[str, ...], str]] = dict(CORE_FUNCTIONS)

    def declare_sort(self, name: str, parent: str | None = None) -> None:
        if name in self.sorts:
            raise SortError(f"sort {name!r} already declared")
        if parent is not None and parent not in self.sorts:
            raise UnknownSymbolError(parent, f"unknown parent sort {parent!r}")
        # the parent is already declared, so no declaration closes a cycle
        self.sorts[name] = parent

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
        if "Boolean" in arg_sorts:
            raise SortError(
                f"{name!r} takes a Boolean argument; Boolean is the sort of formulas")
        if name in self.functions or name in self.constants:
            raise SortError(f"symbol {name!r} already declared")
        self.functions[name] = (arg_sorts, result)

    def sort_le(self, a: str, b: str) -> bool:
        """True when sort a is b or a declared subsort of b."""
        cur: str | None = a
        while cur is not None:
            if cur == b:
                return True
            cur = self.sorts.get(cur)
        return False


# ---------------------------------------------------------------------------
# Interned nodes and records
#
# The node and record classes are written out by hand rather than
# generated by `dataclasses`, which compiles each class's methods with
# `exec` when the module is imported; a CLI command pays that on every
# run.  A class's fields are its `__slots__`, in constructor order.
#
# A node's hash is computed once, when it is created, as the hash of its
# field tuple, so set and dict iteration orders are those of uninterned
# nodes.  Each node also stores, the first time they are asked for, its
# formula key, its sugar-free form and whether a modal node occurs in it.
# The intern table is one dict per node class.

_set = object.__setattr__


def _field_repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
    return f"{type(self).__qualname__}({fields})"


def _read_only_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _read_only_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class _Node:
    """Base of the interned term and formula classes: read-only, equal
    only to itself, and rebuilt by pickle and copy as the interned node."""

    __slots__ = ("_hash", "_fkey", "_plain", "_modal")

    def __init_subclass__(cls) -> None:
        cls._interned = {}

    def __new__(cls, *args):
        node = cls._interned.get(args)
        if node is None:
            if len(args) != len(cls.__slots__):
                raise TypeError(
                    f"{cls.__name__}() takes {len(cls.__slots__)} fields, got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, args):
                _set(node, name, value)
            _set(node, "_hash", hash(args))
            _set(node, "_fkey", None)
            _set(node, "_plain", None)
            _set(node, "_modal", None)
            # publish the finished node; a thread that built an equal node
            # first wins, so equal fields still give one object
            node = cls._interned.setdefault(args, node)
        return node

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    __repr__ = _field_repr
    __setattr__ = _read_only_set
    __delattr__ = _read_only_del


class Record:
    """Base of the plain data records (KB entries, tokens, proofs,
    verdicts, judgments): equal only to a record of the same class with
    equal fields, unhashable, and rebuilt by pickle and copy through the
    constructor, which takes every field in `__slots__` order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __reduce__(self):
        return type(self), self._values()

    __repr__ = _field_repr


class FrozenRecord(Record):
    """A read-only record, hashed as its field tuple.  Its constructor
    sets the fields with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    __setattr__ = _read_only_set
    __delattr__ = _read_only_del


# ---------------------------------------------------------------------------
# Terms

class Var(_Node):
    __slots__ = ("name", "sort")
    name: str
    sort: str


class Const(_Node):
    __slots__ = ("name", "sort")
    name: str
    sort: str


class App(_Node):
    __slots__ = ("fn", "args", "sort")
    fn: str
    args: tuple
    sort: str


Term = Var | Const | App


def term_free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset([t])
    if isinstance(t, App):
        out: frozenset = frozenset()
        for a in t.args:
            out |= term_free_vars(a)
        return out
    return frozenset()


def subst_term(t: Term, var: Var, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t == var else t
    if isinstance(t, App):
        return App(t.fn, tuple(subst_term(a, var, repl) for a in t.args), t.sort)
    return t


def print_term(t: Term) -> str:
    """A term's surface form; the order of every term-universe bucket."""
    if isinstance(t, (Var, Const)):
        return t.name
    if not t.args:
        return t.fn
    return "(" + t.fn + " " + " ".join(print_term(a) for a in t.args) + ")"


# ---------------------------------------------------------------------------
# Formulas

class Atom(_Node):
    __slots__ = ("term",)
    term: Term  # Boolean-sorted term


class Falsum(_Node):
    __slots__ = ()


class Not(_Node):
    __slots__ = ("body",)
    body: "Formula"


class And(_Node):
    __slots__ = ("args",)
    args: tuple


class Or(_Node):
    __slots__ = ("args",)
    args: tuple


class Implies(_Node):
    __slots__ = ("left", "right")
    left: "Formula"
    right: "Formula"


class Iff(_Node):
    __slots__ = ("left", "right")
    left: "Formula"
    right: "Formula"


class Xor(_Node):
    __slots__ = ("args",)
    args: tuple  # exactly one operand holds


class Forall(_Node):
    __slots__ = ("var", "body")
    var: Var
    body: "Formula"


class Exists(_Node):
    __slots__ = ("var", "body")
    var: Var
    body: "Formula"


class Believes(_Node):
    __slots__ = ("agent", "moment", "body")
    agent: Term
    moment: Term
    body: "Formula"


class Perceives(_Node):
    __slots__ = ("agent", "moment", "body")
    agent: Term
    moment: Term
    body: "Formula"


class Withholds(_Node):
    __slots__ = ("agent", "moment", "body")
    agent: Term
    moment: Term
    body: "Formula"  # sugar: neither believes body nor its negation


Formula = (
    Atom | Falsum | Not | And | Or | Implies | Iff | Xor
    | Forall | Exists | Believes | Perceives | Withholds
)

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


def _nodes(n, out: list) -> list:
    """Append to `out` every formula node of `n` and every term of its
    atoms and of its modal agents and moments, in written order, children
    before their parent.  A binder's variable is appended only where it
    occurs.  Returns `out`."""
    if isinstance(n, App):
        for a in n.args:
            _nodes(a, out)
    elif isinstance(n, Atom):
        _nodes(n.term, out)
    elif isinstance(n, MODAL):
        _nodes(n.agent, out)
        _nodes(n.moment, out)
        _nodes(n.body, out)
    else:
        for c in children(n):
            _nodes(c, out)
    out.append(n)
    return out


def symbols(f: Formula) -> frozenset:
    """Distinct function, constant and variable names occurring in f.

    Bound variables count too, so a renamed binder can change the set; a
    binder whose variable never occurs adds nothing."""
    return frozenset(
        n.fn if isinstance(n, App) else n.name
        for n in _nodes(f, []) if isinstance(n, (Var, Const, App))
    )


def constant_symbols(f: Formula) -> frozenset:
    """Function and constant names occurring in f; variables excluded."""
    return frozenset(
        n.fn if isinstance(n, App) else n.name
        for n in _nodes(f, []) if isinstance(n, (Const, App))
    )


def weight(f: Formula) -> int:
    """Symbol-occurrence count: 1 per connective, quantifier, modal node,
    falsum and term occurrence, so an atom weighs its term size and an
    atomic 0-ary predicate weighs 1."""
    return sum(not isinstance(n, Atom) for n in _nodes(f, []))


def substitute(f: Formula, var: Var, t: Term, sig: Signature) -> Formula:
    """Replace free occurrences of var by t, capture-avoiding; t's sort must
    be var's sort or a subsort of it in `sig`."""
    if not sig.sort_le(t.sort, var.sort):
        raise SortError(
            f"cannot substitute {t.sort} term for {var.sort} variable {var.name!r}"
        )
    return _subst(f, var, t)


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
    """Remove withholding nodes.

    Withholding unfolds to the conjunction of the two negated beliefs.
    Every other node keeps its kind, exclusive disjunction included, over
    sugar-free operands.  Idempotent.  The result is stored on the node.
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
    else:
        got = rebuild(f, tuple(expand_sugar(c) for c in children(f)))
    _set(f, "_plain", got)
    return got


def has_modal(f: Formula) -> bool:
    """Whether a belief, perception or withholding node occurs in f.  The
    answer is stored on each node the walk visits."""
    got = f._modal
    if got is None:
        got = isinstance(f, MODAL) or any(has_modal(c) for c in children(f))
        _set(f, "_modal", got)
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
        if f.var.sort == "Boolean":
            raise SortError(
                f"variable {f.var.name!r} is bound at Boolean; Boolean is the sort of formulas")
        inner = dict(env)
        inner[f.var.name] = f.var.sort
        _check_formula(f.body, sig, inner)
        return
    for c in children(f):
        _check_formula(c, sig, env)


# ---------------------------------------------------------------------------
# The one formula identity
#
# Two formulas are the same formula exactly when their keys are equal;
# `formula_key` is that key and the only place the package decides formula
# identity (probability table, cited premises, revision pools, belief
# store, proof replay).  It is read off the sugar-free formula in one walk.
# A run of nested and/or nodes is flattened, a one-operand node standing
# for its operand, and the operand keys are sorted.  An exclusive
# disjunction is keyed as its pairwise expansion, the conjunction of its
# inclusive disjunction and of `(not (and a b))` for each pair of operand
# positions, so its conjuncts join an enclosing and-run.  A bound variable is
# keyed by the depth of its binder (its de Bruijn level), so renaming
# binders keeps the key; operands are keyed inside their binders, so the
# order of a run never depends on a bound variable's name.

_TAGS = {
    And: "and", Or: "or", Implies: "imp", Iff: "iff", Forall: "all",
    Exists: "ex", Believes: "bel", Perceives: "per",
}


def _key(f: Formula, depth: dict, level: int) -> str:
    """The key of a sugar-free formula under the binders in `depth`, which
    maps each bound variable to its level; `level` is the next level.
    Outside every binder the key depends on the node alone and is stored
    on it."""
    if not depth and f._fkey is not None:
        return f._fkey
    if isinstance(f, Atom):
        key = "a(" + _term_key(f.term, depth) + ")"
    elif isinstance(f, Falsum):
        key = "false"
    elif isinstance(f, Not):
        key = "n(" + _key(f.body, depth, level) + ")"
    elif isinstance(f, NARY):
        key = _run_key(*_run(f, depth, level))
    elif isinstance(f, BINARY):
        key = _TAGS[type(f)] + "(" + _key(f.left, depth, level) + "," + _key(f.right, depth, level) + ")"
    elif isinstance(f, QUANT):
        inner = dict(depth)
        inner[f.var] = level
        key = f"{_TAGS[type(f)]}[{f.var.sort}](" + _key(f.body, inner, level + 1) + ")"
    else:
        key = (_TAGS[type(f)] + "(" + _term_key(f.agent, depth) + "," + _term_key(f.moment, depth)
               + "," + _key(f.body, depth, level) + ")")
    if not depth:
        _set(f, "_fkey", key)
    return key


def _run(f: And | Or | Xor, depth: dict, level: int) -> tuple:
    """The flattened and/or run rooted at f as (connective, sorted operand
    keys); an exclusive disjunction roots the and-run of its expansion.  A
    run of one operand is that operand: its own run when it is an and/or
    node, else (None, (its key,))."""
    kind = And if type(f) is Xor else type(f)
    keys: list = []
    sole = None  # the run of the last and/or operand kept as one key
    stack = [f]
    while stack:
        a = stack.pop()
        if type(a) is kind:
            stack.extend(a.args)
        elif type(a) is Xor and kind is And:
            if len(a.args) > 1:
                keys.extend(_exclusion_keys(a.args, depth, level))
                sole = None
            stack.append(Or(a.args))
        elif isinstance(a, NARY):
            sub = _run(a, depth, level)
            if sub[0] is kind:  # a one-operand node standing for a run of this kind
                keys.extend(sub[1])
            else:
                keys.append(_run_key(*sub))
                sole = sub
        else:
            keys.append(_key(a, depth, level))
            sole = None
    if len(keys) == 1:
        return sole or (None, tuple(keys))
    keys.sort()
    return kind, tuple(keys)


def _exclusion_keys(args: tuple, depth: dict, level: int) -> list:
    """The keys of `(not (and a b))` for each pair of operand positions.
    Built from the operand keys, without the exclusion nodes, unless an
    operand is an and/or/xor node, whose run the pair's conjunction joins."""
    if any(isinstance(a, NARY) for a in args):
        return [_key(Not(And(pair)), depth, level) for pair in itertools.combinations(args, 2)]
    keys = sorted(_key(a, depth, level) for a in args)
    return ["n(and(" + a + "," + b + "))" for a, b in itertools.combinations(keys, 2)]


def _run_key(kind: type | None, keys: tuple) -> str:
    return keys[0] if kind is None else _TAGS[kind] + "(" + ",".join(keys) + ")"


def _term_key(t: Term, depth: dict) -> str:
    """The key of a term; stored on the term when `depth` is empty."""
    if not depth and t._fkey is not None:
        return t._fkey
    if isinstance(t, Var):
        level = depth.get(t)
        key = f"v:{t.name}:{t.sort}" if level is None else f"b{level}"
    elif isinstance(t, Const):
        key = f"c:{t.name}"
    else:
        key = t.fn + "(" + ",".join(_term_key(a, depth) for a in t.args) + ")"
    if not depth:
        _set(t, "_fkey", key)
    return key


def formula_key(f: Formula) -> str:
    """The identity of a formula: the key of its sugar-free form, computed
    once per node and stored on it."""
    got = f._fkey
    if got is None:
        got = _key(expand_sugar(f), {}, 0)
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


def _join_sorts(buckets: dict, t: Term, parents: dict) -> bool:
    """Put t in the bucket of its sort and of each of that sort's ancestors
    in `parents`, but never in a Boolean bucket: Boolean is the sort of
    formulas, not of terms.  True when t was new."""
    fresh = False
    cur: str | None = t.sort
    while cur not in (None, "Boolean"):
        bucket = buckets.setdefault(cur, {})
        if t not in bucket:
            bucket[t] = None
            fresh = True
        cur = parents.get(cur)
    return fresh


def collect_ground_terms(formulas: Iterable[Formula], parents: dict) -> dict:
    """The ground domain terms of the formulas' atoms and modal agents and
    moments, by sort: constants, and applications whose arguments are all
    ground; an atom's own term is not one (see `_join_sorts`).  Each term
    also joins the buckets of its ancestor sorts in `parents`, a
    signature's sort edges (`Signature.sorts`).  Sorts come in the order
    the walk first meets them, and each bucket is in print order."""
    buckets: dict = {}
    ground: set = set()
    for f in formulas:
        for n in _nodes(f, []):
            if n in ground:
                continue
            if isinstance(n, Const) or (
                isinstance(n, App) and all(a in ground for a in n.args)
            ):
                ground.add(n)
                _join_sorts(buckets, n, parents)
    return {s: tuple(sorted(b, key=print_term)) for s, b in buckets.items()}


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
        pairs = frozenset(pairs)
        self.moments = sorted(set(moments).union(*pairs))
        numerals = sorted((m for m in self.moments if is_numeral(m)), key=int)
        succ: dict = {}
        for a, b in itertools.chain(pairs, zip(numerals, numerals[1:])):
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

    def minimum(self) -> str | None:
        """The unique minimal moment, when one exists."""
        minima = [m for m in self.moments if not any(self.lt(x, m) for x in self.moments)]
        if len(minima) == 1:
            return minima[0]
        return None


def moment_names(terms: dict) -> set:
    """The names of the constant moments among ground terms grouped by sort."""
    return {t.name for t in terms.get("Moment", ()) if isinstance(t, Const)}


def order_from_premises(formulas: Iterable[Formula], universe: dict) -> MomentOrder:
    """The one moment-order rule: the closure of the premise set's stated
    ground `prior` pairs, plus numeric order on every numeral moment of
    its term universe."""
    return MomentOrder(stated_prior_pairs(formulas), moment_names(universe))


def held_content(f: Formula, agent: Term, moment: Term, order) -> Formula | None:
    """The body of `f` when `agent` holds it at `moment`: a belief by
    `agent` at `moment` or earlier, or a perception strictly earlier.
    Otherwise None."""
    if not isinstance(f, (Believes, Perceives)) or f.agent != agent:
        return None
    if isinstance(f, Believes) and f.moment == moment:
        return f.body
    ground = isinstance(f.moment, Const) and isinstance(moment, Const)
    return f.body if ground and order.lt(f.moment.name, moment.name) else None

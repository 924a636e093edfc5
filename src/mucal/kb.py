"""Knowledge-base files: parsing, validation, and derived views.

A KB file is a sequence of forms, one of::

    (sort <name> [<parent>])
    (const <name> <sort>)
    (func <name> (<sort>...) <sort>)
    (axiom <label> [:certain] <formula>)
    (pr <agent> <moment> <formula> <rational>)
    (candidate <label> <formula>)
    (prior <moment> <moment>)
    (param <name> <value>)

Rationals accept ``1/5``, ``0.2`` or ``1`` and are kept exact.
Symbols must be declared before use.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import eventcalc
from .errors import (
    KbError, ParseError, SortError, UnknownNameError, UnknownSymbolError,
)
from .logic import (
    App, Atom, Const, Falsum, Formula, MomentOrder, Record, Signature, _join_sorts,
    collect_ground_terms, formula_key, is_numeral, order_from_premises, print_term,
)
from .syntax import Node, read_all, sorted_formula


class AxiomEntry(Record):
    __slots__ = ("label", "formula", "certain")

    def __init__(self, label: str, formula: Formula, certain: bool = False) -> None:
        self.label = label
        self.formula = formula
        self.certain = certain


class CandidateEntry(Record):
    __slots__ = ("label", "formula")

    def __init__(self, label: str, formula: Formula) -> None:
        self.label = label
        self.formula = formula


class ProbEntry(Record):
    __slots__ = ("agent", "moment", "formula", "value")

    def __init__(self, agent: str, moment: str, formula: Formula, value: Fraction) -> None:
        self.agent = agent
        self.moment = moment
        self.formula = formula
        self.value = value


class Params(Record):
    __slots__ = ("u", "proof_depth", "add_max", "remove_max", "consistency_depth", "ec_flavor")

    def __init__(self, u: int = 2, proof_depth: int = 3, add_max: int = 2,
                 remove_max: int = 2, consistency_depth: int = 256,
                 ec_flavor: str = "minimal") -> None:
        self.u = u
        self.proof_depth = proof_depth
        self.add_max = add_max
        self.remove_max = remove_max
        self.consistency_depth = consistency_depth
        self.ec_flavor = ec_flavor


_PARAM_NAMES = {n.replace("_", "-"): n for n in Params.__slots__}


class KbDocument:
    """A validated knowledge base: signature, axioms, probabilities,
    revision candidates, moment order and parameters."""

    def __init__(self) -> None:
        self.sig = Signature()
        self.axioms: list = []
        self.prob_entries: list = []
        self.candidates: list = []
        self.prior_atoms: list = []
        self.params = Params()
        self._order: MomentOrder | None = None
        self._herbrand: dict | None = None
        self._background: tuple | None = None
        self._finite: bool = True

    # -- declared names -------------------------------------------------

    def agents(self) -> list:
        return sorted(
            n for n, s in self.sig.constants.items() if self.sig.sort_le(s, "Agent")
        )

    def order(self) -> MomentOrder:
        """The moment order of what every agent holds (`order_from_premises`):
        the `(prior ...)` forms and the certain axioms, over the Herbrand
        universe's moments; a cycle is a KbError."""
        if self._order is None:
            order = order_from_premises(
                self.prior_atoms + [a.formula for a in self.certain_axioms()],
                self.herbrand(),
            )
            for m in order.moments:
                if order.lt(m, m):
                    raise KbError(f"moment ordering has a cycle through {m!r}")
            self._order = order
        return self._order

    def frame_terms(self, agent: str, moment: str) -> tuple:
        """The constants naming a frame's agent and moment; an undeclared
        agent or moment is an UnknownNameError."""
        if agent not in self.agents():
            raise UnknownNameError(f"unknown agent {agent!r}")
        if moment not in self.order().moments:
            raise UnknownNameError(f"unknown moment {moment!r}")
        return Const(agent, self.sig.constants[agent]), self.moment(moment)

    def moment(self, name: str) -> Const:
        """The constant naming a moment, at its declared sort; a numeral
        is a Moment."""
        return Const(name, self.sig.constants.get(name, "Moment"))

    # -- term universe ---------------------------------------------------

    def herbrand(self) -> dict:
        """Ground domain terms per sort, closed under the declared functions,
        each bucket in print order; each term is also in the buckets of its
        ancestor sorts.  The closure starts from the declared constants, the
        numeral moments of the `pr` entries, and the ground terms of the
        axioms, candidates, `pr` formulas and `(prior ...)` forms.

        The closure is bounded (see ``_close``); when a bound cuts it short
        the KB is flagged not finitely ground (see ``finitely_ground``).
        """
        if self._herbrand is not None:
            return self._herbrand
        by_sort: dict = {}
        seeds = [Const(name, self.sig.constants[name]) for name in sorted(self.sig.constants)]
        seeds += [Const(e.moment, "Moment") for e in self.prob_entries if is_numeral(e.moment)]
        formulas = [e.formula for e in self.axioms + self.candidates + self.prob_entries]
        formulas += self.prior_atoms
        # collected without sort edges: `_join_sorts` below puts each seed
        # in its ancestors' buckets under `sig.sorts`
        seeds += [t for ts in collect_ground_terms(formulas, parents={}).values() for t in ts]
        size = sum(_join_sorts(by_sort, t, self.sig.sorts) for t in seeds)
        self._finite = _close(by_sort, size, self.sig)
        self._herbrand = {
            s: tuple(sorted(bucket, key=print_term)) for s, bucket in by_sort.items()
        }
        return self._herbrand

    def finitely_ground(self) -> bool:
        self.herbrand()
        return self._finite

    def universe(self, formulas: tuple) -> dict:
        """The Herbrand universe widened by the ground terms of `formulas`:
        `herbrand()` itself when they add none."""
        return widen_universe(
            self.herbrand(), collect_ground_terms(formulas, parents=self.sig.sorts)
        )

    # -- theory views ----------------------------------------------------

    def background(self) -> tuple:
        """The event-calculus/moment background, built once; it names no
        term outside `herbrand()`."""
        if self._background is None:
            self._background = eventcalc.background(self)
        return self._background

    def all_premises(self) -> tuple:
        """Every axiom plus the event-calculus/moment background."""
        return tuple(a.formula for a in self.axioms) + self.background()

    def certain_axioms(self) -> list:
        return [a for a in self.axioms if a.certain]

    def removable_axioms(self) -> list:
        return [a for a in self.axioms if not a.certain]


# bounds of the Herbrand closure: its rounds, and its size in terms (the
# largest bundled KB, scenarios/lottery_stress.kb, has 2,002)
_HERBRAND_ROUNDS = 4
_HERBRAND_CAP = 10_000


def _close(by_sort: dict, size: int, sig: Signature) -> bool:
    """Close the `size` terms in `by_sort` under the declared non-Boolean
    functions, in rounds; within a round a function applied later sees
    the terms that earlier ones made.  True when a round adds nothing.
    False when the rounds run out, or when a function's argument
    combinations could take the terms past `_HERBRAND_CAP`; that function
    then adds none."""
    for _ in range(_HERBRAND_ROUNDS):
        grew = False
        for fn in sorted(sig.functions):
            arg_sorts, result = sig.functions[fn]
            if result == "Boolean" or not arg_sorts:
                continue
            pools = [by_sort.get(s, {}) for s in arg_sorts]
            if size + math.prod(map(len, pools)) > _HERBRAND_CAP:
                return False
            for combo in itertools.product(*pools):
                if _join_sorts(by_sort, App(fn, combo, result), sig.sorts):
                    size += 1
                    grew = True
        if not grew:
            return True
    return False


def _require(cond: bool, msg: str, node: Node) -> None:
    if not cond:
        raise ParseError(msg, node.line, node.col)


def _sym(node: Node, what: str) -> str:
    _require(not node.is_list, f"expected {what}", node)
    return node.token.text


def _moment_sym(node: Node, sig: Signature) -> str:
    """A numeral or a constant declared at Moment or a subsort of it."""
    m = _sym(node, "moment")
    if not (is_numeral(m) or sig.sort_le(sig.constants.get(m, ""), "Moment")):
        raise ParseError(f"{m!r} is not a declared moment", node.line, node.col)
    return m


def parse_natural(text: str) -> int | None:
    """A budget's value, `text` in ASCII decimal digits only, or None: no
    sign, space, underscore or other script's digit."""
    return int(text) if text.isascii() and text.isdigit() else None


def parse_rational(text: str, node: Node) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational {text!r}", node.line, node.col)


def parse_kb(text: str) -> KbDocument:
    """Parse and fully validate a KB document."""
    kb = KbDocument()
    labels: set = set()
    pr_keys: set = set()
    for form in read_all(text):
        _require(form.is_list and bool(form.items), "expected a top-level form", form)
        head = _sym(form.items[0], "a form keyword")
        rest = form.items[1:]
        if head == "sort":
            _require(len(rest) in (1, 2), "(sort <name> [<parent>])", form)
            name = _sym(rest[0], "sort name")
            parent = _sym(rest[1], "parent sort") if len(rest) == 2 else None
            try:
                kb.sig.declare_sort(name, parent)
            except (SortError, UnknownSymbolError) as e:
                raise ParseError(str(e), form.line, form.col)
        elif head == "const":
            _require(len(rest) == 2, "(const <name> <sort>)", form)
            try:
                kb.sig.declare_const(_sym(rest[0], "name"), _sym(rest[1], "sort"))
            except (SortError, UnknownSymbolError) as e:
                raise ParseError(str(e), form.line, form.col)
        elif head == "func":
            _require(len(rest) == 3 and rest[1].is_list, "(func <name> (<sorts>) <sort>)", form)
            args = [_sym(x, "sort") for x in rest[1].items]
            try:
                kb.sig.declare_func(_sym(rest[0], "name"), args, _sym(rest[2], "sort"))
            except (SortError, UnknownSymbolError) as e:
                raise ParseError(str(e), form.line, form.col)
        elif head == "axiom":
            _require(len(rest) in (2, 3), "(axiom <label> [:certain] <formula>)", form)
            label = _sym(rest[0], "label")
            certain = False
            body = rest[1]
            if len(rest) == 3:
                _require(_sym(rest[1], "flag") == ":certain", "unknown axiom flag", rest[1])
                certain = True
                body = rest[2]
            if label in labels:
                raise ParseError(f"duplicate label {label!r}", form.line, form.col)
            labels.add(label)
            formula = sorted_formula(body, kb.sig)
            kb.axioms.append(AxiomEntry(label, formula, certain))
        elif head == "candidate":
            _require(len(rest) == 2, "(candidate <label> <formula>)", form)
            label = _sym(rest[0], "label")
            if label in labels:
                raise ParseError(f"duplicate label {label!r}", form.line, form.col)
            labels.add(label)
            formula = sorted_formula(rest[1], kb.sig)
            kb.candidates.append(CandidateEntry(label, formula))
        elif head == "pr":
            _require(len(rest) == 4, "(pr <agent> <moment> <formula> <rational>)", form)
            agent = _sym(rest[0], "agent")
            if agent not in kb.sig.constants or not kb.sig.sort_le(
                kb.sig.constants[agent], "Agent"
            ):
                raise ParseError(f"{agent!r} is not a declared agent", rest[0].line, rest[0].col)
            moment = _moment_sym(rest[1], kb.sig)
            formula = sorted_formula(rest[2], kb.sig)
            key = formula_key(formula)
            if key == formula_key(Falsum()):
                raise ParseError("probability entries cannot target falsum",
                                 rest[2].line, rest[2].col)
            value = parse_rational(_sym(rest[3], "rational"), rest[3])
            if not (0 <= value <= 1):
                raise ParseError(
                    f"probability {value} out of range [0,1]", rest[3].line, rest[3].col
                )
            if (agent, moment, key) in pr_keys:
                raise ParseError("duplicate probability entry", form.line, form.col)
            pr_keys.add((agent, moment, key))
            kb.prob_entries.append(ProbEntry(agent, moment, formula, value))
        elif head == "prior":
            _require(len(rest) == 2, "(prior <moment> <moment>)", form)
            moments = (kb.moment(_moment_sym(m, kb.sig)) for m in rest)
            kb.prior_atoms.append(Atom(App("prior", tuple(moments), "Boolean")))
        elif head == "param":
            _require(len(rest) == 2, "(param <name> <value>)", form)
            name = _sym(rest[0], "param name")
            if name not in _PARAM_NAMES:
                raise ParseError(f"unknown param {name!r}", rest[0].line, rest[0].col)
            value = _sym(rest[1], "value")
            if name == "ec-flavor":
                if value not in ("minimal", "inertial"):
                    raise ParseError("ec-flavor is minimal|inertial", rest[1].line, rest[1].col)
                kb.params.ec_flavor = value
            else:
                n = parse_natural(value)
                if n is None:
                    raise ParseError(f"param {name!r} expects a natural", rest[1].line, rest[1].col)
                setattr(kb.params, _PARAM_NAMES[name], n)
        else:
            raise ParseError(f"unknown form {head!r}", form.line, form.col)

    try:
        kb.order()
    except KbError as e:
        raise KbError(f"moment order: {e}")
    return kb


def widen_universe(base: dict, extra: dict) -> dict:
    """`base` with the terms of `extra` joined in, each sort it widens in
    print order; `base` itself when `extra` adds no term."""
    out = base
    for s, ts in extra.items():
        have = dict.fromkeys(base.get(s, ()))
        if all(t in have for t in ts):
            continue
        if out is base:
            out = dict(base)
        have.update(dict.fromkeys(ts))
        out[s] = tuple(sorted(have, key=print_term))
    return out


def load_kb(path: str) -> KbDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kb(fh.read())

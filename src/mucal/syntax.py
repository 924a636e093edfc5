"""Concrete syntax: parenthesized prefix notation for formulas.

Grammar sketch::

    formula ::= '(' 'not' formula ')'
              | '(' ('and'|'or'|'xor') formula formula+ ')'
              | '(' ('implies'|'iff') formula formula ')'
              | '(' ('forall'|'exists') '(' NAME [SORT] ')' formula ')'
              | '(' ('believes'|'perceives'|'withholds') term term formula ')'
              | 'false'
              | NAME                       ; 0-ary predicate or Boolean constant
              | '(' NAME term* ')'         ; declared Boolean function
    term    ::= NAME | INTEGER | '(' NAME term* ')'

Line comments start with ';'.  Binder sorts may be omitted when they are
inferable from the first occurrence of the variable in the body.
"""

from __future__ import annotations

from .errors import ParseError, SortError, UnknownSymbolError
from .logic import (
    And, App, Atom, Believes, Const, Exists, Falsum, Forall, Formula, Iff,
    Implies, Not, Or, Perceives, Record, Signature, Term, Var, Withholds,
    Xor, _check_formula, _nodes, is_numeral, print_term,
)

KEYWORDS = {
    "not", "and", "or", "xor", "implies", "iff", "forall", "exists",
    "believes", "perceives", "withholds", "false",
}


class Token(Record):
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int) -> None:
        self.text = text
        self.line = line
        self.col = col


class Node(Record):
    """Either an atom token or a parenthesized list of nodes."""

    __slots__ = ("items", "token", "line", "col")

    def __init__(self, items: list | None, token: Token | None, line: int, col: int) -> None:
        self.items = items
        self.token = token
        self.line = line
        self.col = col

    @property
    def is_list(self) -> bool:
        return self.items is not None


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(Token(c, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            tokens.append(Token(text[start:i], line, start_col))
    return tokens


def read_all(text: str) -> list:
    """Read every top-level form in the text."""
    tokens = tokenize(text)
    forms = []
    pos = 0
    while pos < len(tokens):
        node, pos = _read(tokens, pos)
        forms.append(node)
    return forms


def read_one(text: str) -> Node:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    node, pos = _read(tokens, 0)
    if pos != len(tokens):
        t = tokens[pos]
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node


def _read(tokens: list, pos: int):
    tok = tokens[pos]
    if tok.text == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unexpected end of input, '(' not closed", tok.line, tok.col)
            if tokens[pos].text == ")":
                return Node(items, None, tok.line, tok.col), pos + 1
            item, pos = _read(tokens, pos)
            items.append(item)
    if tok.text == ")":
        raise ParseError("unexpected ')'", tok.line, tok.col)
    return Node(None, tok, tok.line, tok.col), pos + 1


# ---------------------------------------------------------------------------
# Formula construction

def formula_from_node(node: Node, sig: Signature, env: dict | None = None) -> Formula:
    env = env or {}
    if not node.is_list:
        word = node.token.text
        if word == "false":
            return Falsum()
        if word in KEYWORDS:
            raise ParseError(f"{word!r} needs a parenthesized form", node.line, node.col)
        term = _symbol_term(word, sig, env, node)
        if term.sort != "Boolean":
            raise ParseError(f"{word!r} has sort {term.sort}, not Boolean", node.line, node.col)
        return Atom(term)

    if not node.items:
        raise ParseError("empty form", node.line, node.col)
    head = node.items[0]
    if head.is_list:
        raise ParseError("expected an operator or predicate name", head.line, head.col)
    op = head.token.text

    if op == "not":
        _arity(node, 1)
        return Not(formula_from_node(node.items[1], sig, env))
    if op in ("and", "or", "xor"):
        if len(node.items) < 3:
            raise ParseError(f"{op!r} needs at least two arguments", node.line, node.col)
        args = tuple(formula_from_node(x, sig, env) for x in node.items[1:])
        return {"and": And, "or": Or, "xor": Xor}[op](args)
    if op in ("implies", "iff"):
        _arity(node, 2)
        left = formula_from_node(node.items[1], sig, env)
        right = formula_from_node(node.items[2], sig, env)
        return (Implies if op == "implies" else Iff)(left, right)
    if op in ("forall", "exists"):
        _arity(node, 2)
        var = _binder_var(node.items[1], node.items[2], sig)
        inner = dict(env)
        inner[var.name] = var
        body = formula_from_node(node.items[2], sig, inner)
        return (Forall if op == "forall" else Exists)(var, body)
    if op in ("believes", "perceives", "withholds"):
        _arity(node, 3)
        agent = term_from_node(node.items[1], sig, env)
        moment = term_from_node(node.items[2], sig, env)
        body = formula_from_node(node.items[3], sig, env)
        cls = {"believes": Believes, "perceives": Perceives, "withholds": Withholds}[op]
        return cls(agent, moment, body)
    if op == "false":
        raise ParseError(f"malformed {op!r} form", node.line, node.col)

    # declared Boolean function application
    if op not in sig.functions:
        raise ParseError(f"unknown predicate or operator {op!r}", node.line, node.col)
    args = tuple(term_from_node(x, sig, env) for x in node.items[1:])
    arg_sorts, result = sig.functions[op]
    if result != "Boolean":
        raise ParseError(f"{op!r} yields sort {result}, not a formula", node.line, node.col)
    if len(args) != len(arg_sorts):
        raise ParseError(
            f"{op!r} expects {len(arg_sorts)} arguments, got {len(args)}", node.line, node.col
        )
    return Atom(App(op, args, result))


def _arity(node: Node, n: int) -> None:
    if len(node.items) != n + 1:
        head = node.items[0].token.text
        raise ParseError(f"{head!r} expects {n} arguments", node.line, node.col)


def _symbol_term(word: str, sig: Signature, env: dict, node: Node) -> Term:
    if word in env:
        return env[word]
    if is_numeral(word):
        return Const(word, "Moment")
    if word in sig.constants:
        return Const(word, sig.constants[word])
    if word in sig.functions and not sig.functions[word][0]:
        return App(word, (), sig.functions[word][1])
    raise ParseError(f"undeclared symbol {word!r}", node.line, node.col)


def term_from_node(node: Node, sig: Signature, env: dict) -> Term:
    if not node.is_list:
        return _symbol_term(node.token.text, sig, env, node)
    if not node.items or node.items[0].is_list:
        raise ParseError("expected a function application", node.line, node.col)
    fn = node.items[0].token.text
    if fn not in sig.functions:
        raise ParseError(f"unknown function {fn!r}", node.line, node.col)
    arg_sorts, result = sig.functions[fn]
    args = tuple(term_from_node(x, sig, env) for x in node.items[1:])
    if len(args) != len(arg_sorts):
        raise ParseError(
            f"{fn!r} expects {len(arg_sorts)} arguments, got {len(args)}", node.line, node.col
        )
    return App(fn, args, result)


def _binder_var(spec_node: Node, body: Node, sig: Signature) -> Var:
    if not spec_node.is_list or not spec_node.items or spec_node.items[0].is_list:
        raise ParseError("binder must be (name [sort])", spec_node.line, spec_node.col)
    name = spec_node.items[0].token.text
    if len(spec_node.items) == 2 and not spec_node.items[1].is_list:
        sort = spec_node.items[1].token.text
        if sort not in sig.sorts:
            raise ParseError(f"unknown sort {sort!r}", spec_node.line, spec_node.col)
        return Var(name, sort)
    if len(spec_node.items) > 2:
        raise ParseError("binder must be (name [sort])", spec_node.line, spec_node.col)
    sort = _infer_sort(name, body, sig)
    if sort is None:
        raise ParseError(
            f"cannot infer a sort for bound variable {name!r}", spec_node.line, spec_node.col
        )
    return Var(name, sort)


def _infer_sort(name: str, node: Node, sig: Signature) -> str | None:
    """Sort of the first occurrence of `name` in an argument position."""
    if not node.is_list:
        return None
    if not node.items or node.items[0].is_list:
        for item in node.items:
            got = _infer_sort(name, item, sig)
            if got:
                return got
        return None
    op = node.items[0].token.text
    if op in ("forall", "exists") and node.items[1].is_list and node.items[1].items:
        inner_name = node.items[1].items[0].token.text
        if inner_name == name:
            return None  # shadowed below
    if op in ("believes", "perceives", "withholds"):
        slots = ["Agent", "Moment", None]
        for slot_sort, item in zip(slots, node.items[1:]):
            if not item.is_list and item.token.text == name and slot_sort:
                return slot_sort
            got = _infer_sort(name, item, sig)
            if got:
                return got
        return None
    if op in sig.functions:
        arg_sorts, _ = sig.functions[op]
        for want, item in zip(arg_sorts, node.items[1:]):
            if not item.is_list and item.token.text == name:
                return want
            got = _infer_sort(name, item, sig)
            if got:
                return got
        return None
    for item in node.items[1:]:
        got = _infer_sort(name, item, sig)
        if got:
            return got
    return None


def sorted_formula(node: Node, sig: Signature) -> Formula:
    """The well-sorted formula a surface node denotes; raises ParseError
    at the node's position otherwise, with the sort error's message."""
    f = formula_from_node(node, sig)
    # sugar expansion only rearranges already-checked subformulas, so the
    # surface check suffices
    try:
        _check_formula(f, sig, {})
    except UnknownSymbolError as e:
        raise ParseError(str(e), node.line, node.col)
    except SortError as e:
        raise ParseError(f"formula is not well-sorted: {e}", node.line, node.col)
    return f


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a single well-sorted formula; raises ParseError with
    line/column on failure."""
    return sorted_formula(read_one(text), sig)


# ---------------------------------------------------------------------------
# Printing

def print_formula(f: Formula) -> str:
    """Deterministic surface form; ``parse_formula`` inverts it.

    Binder names that would shadow an enclosing binder are renamed with a
    numeric suffix, chosen to avoid every name in the formula; the output
    therefore reparses and reprints to itself.
    """
    return _print(f, {}, frozenset(), _all_var_names(f))


def _all_var_names(f: Formula) -> frozenset:
    return frozenset(
        n.var.name if isinstance(n, (Forall, Exists)) else n.name
        for n in _nodes(f, []) if isinstance(n, (Var, Forall, Exists))
    )


def _print(f: Formula, scope: dict, visible: frozenset, avoid: frozenset) -> str:
    if isinstance(f, Atom):
        t = _rename_term(f.term, scope)
        s = print_term(t)
        if isinstance(t, App) and not t.args:
            return t.fn
        return s
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Not):
        return "(not " + _print(f.body, scope, visible, avoid) + ")"
    if isinstance(f, (And, Or, Xor)):
        tag = {And: "and", Or: "or", Xor: "xor"}[type(f)]
        return "(" + tag + " " + " ".join(
            _print(a, scope, visible, avoid) for a in f.args
        ) + ")"
    if isinstance(f, (Implies, Iff)):
        tag = "implies" if isinstance(f, Implies) else "iff"
        return ("(" + tag + " " + _print(f.left, scope, visible, avoid) + " "
                + _print(f.right, scope, visible, avoid) + ")")
    if isinstance(f, (Forall, Exists)):
        tag = "forall" if isinstance(f, Forall) else "exists"
        name = f.var.name
        if name in visible:
            k = 2
            while f"{name}{k}" in visible or f"{name}{k}" in avoid:
                k += 1
            name = f"{name}{k}"
        inner = dict(scope)
        inner[f.var] = name
        return (f"({tag} ({name} {f.var.sort}) "
                + _print(f.body, inner, visible | {name}, avoid) + ")")
    tag = {Believes: "believes", Perceives: "perceives", Withholds: "withholds"}[type(f)]
    return (
        "(" + tag + " "
        + print_term(_rename_term(f.agent, scope)) + " "
        + print_term(_rename_term(f.moment, scope)) + " "
        + _print(f.body, scope, visible, avoid) + ")"
    )


def _rename_term(t: Term, scope: dict) -> Term:
    if isinstance(t, Var):
        new = scope.get(t)
        return Var(new, t.sort) if new is not None and new != t.name else t
    if isinstance(t, App):
        return App(t.fn, tuple(_rename_term(a, scope) for a in t.args), t.sort)
    return t

"""Sorted modal event-calculus reasoner with graded belief strengths."""

from .errors import (
    CheckError, KbError, MucalError, OrderingError, ParseError, ProofError,
    SortError, UnknownNameError, UnknownSymbolError,
)
from .logic import (
    And, App, Atom, Believes, Const, Exists, Falsum, Forall, Formula, Iff,
    Implies, Not, Or, Perceives, Signature, StrengthLevel, Var, Withholds,
    Xor, expand_sugar, free_vars, substitute, weight, well_sorted,
)
from .syntax import parse_formula, print_formula
from .kb import KbDocument, load_kb, parse_kb

__all__ = [
    "And", "App", "Atom", "Believes", "CheckError", "Const", "Exists",
    "Falsum", "Forall", "Formula", "Iff", "Implies", "KbDocument", "KbError",
    "MucalError", "Not", "Or", "OrderingError", "ParseError", "Perceives",
    "ProofError", "Signature", "SortError", "StrengthLevel",
    "UnknownNameError", "UnknownSymbolError", "Var", "Withholds", "Xor",
    "expand_sugar", "free_vars", "load_kb", "parse_formula",
    "parse_kb", "print_formula", "substitute", "weight", "well_sorted",
]

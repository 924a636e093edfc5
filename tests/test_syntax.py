import random

import pytest
from hypothesis import given, settings, strategies as st

from mucal.errors import ParseError
from mucal.kb import load_kb
from mucal.logic import (
    And, App, Atom, Believes, Const, Exists, Falsum, Forall, Iff, Implies,
    Not, Or, Perceives, Signature, Var, Withholds, Xor, formula_key,
)
from mucal.syntax import parse_formula, print_formula
from conftest import DESK_SCENARIOS, scenario_path


@pytest.fixture
def sig():
    s = Signature()
    s.declare_const("a", "Agent")
    s.declare_const("b", "Agent")
    s.declare_const("mary", "Agent")
    s.declare_const("john", "Agent")
    s.declare_const("now", "Moment")
    s.declare_const("t1", "Moment")
    s.declare_const("raining", "Fluent")
    s.declare_const("ticket1", "Object")
    s.declare_const("ticket2", "Object")
    s.declare_func("win", ("Object",), "Boolean")
    s.declare_func("p", (), "Boolean")
    s.declare_func("q", (), "Boolean")
    return s


def test_parse_nested_modal(sig):
    f = parse_formula(
        "(believes john now (perceives mary t1 (holds raining t1)))", sig
    )
    assert isinstance(f, Believes)
    assert isinstance(f.body, Perceives)
    assert f.agent == Const("john", "Agent")
    inner = f.body
    assert inner.body == Atom(App(
        "holds", (Const("raining", "Fluent"), Const("t1", "Moment")), "Boolean"
    ))


def test_parse_xor(sig):
    f = parse_formula("(xor (win ticket1) (win ticket2))", sig)
    assert isinstance(f, Xor)
    assert len(f.args) == 2


def test_parse_unbalanced(sig):
    with pytest.raises(ParseError):
        parse_formula("(believes a now", sig)


def test_parse_error_position(sig):
    with pytest.raises(ParseError) as e:
        parse_formula("(and (p)\n  (mystery))", sig)
    assert e.value.line == 2


@pytest.mark.parametrize("text", [
    "(win now)",  # a Moment where win takes an Object
    "(believes ticket1 now (win ticket1))",  # an Object as the agent
])
def test_parse_rejects_an_ill_sorted_formula(sig, text):
    with pytest.raises(ParseError) as e:
        parse_formula(text, sig)
    assert "not well-sorted" in str(e.value)
    assert (e.value.line, e.value.col) == (1, 1)


def test_parse_binder_sort_inference(sig):
    f = parse_formula("(exists (t) (win t))", sig)
    assert isinstance(f, Exists)
    assert f.var.sort == "Object"


def test_parse_binder_inference_failure(sig):
    with pytest.raises(ParseError):
        parse_formula("(exists (t) (p))", sig)


def test_roundtrip_nested_modal(sig):
    f = parse_formula(
        "(believes john now (perceives mary t1 (holds raining t1)))", sig
    )
    assert formula_key(parse_formula(print_formula(f), sig)) == formula_key(f)


def test_roundtrip_preserves_withholding(sig):
    f = parse_formula("(withholds a now (p))", sig)
    printed = print_formula(f)
    assert "withholds" in printed
    assert isinstance(parse_formula(printed, sig), Withholds)


def test_roundtrip_preserves_xor(sig):
    f = parse_formula("(xor (p) (q))", sig)
    assert "xor" in print_formula(f)


def test_shadowed_binders_renamed(sig):
    f = parse_formula(
        "(forall (x Object) (and (win x) (exists (x Object) (win x))))", sig
    )
    printed = print_formula(f)
    g = parse_formula(printed, sig)
    assert formula_key(g) == formula_key(f)
    # inner binder got a distinct name in the surface form
    assert printed.count("(x Object)") == 1


def test_roundtrip_corpus():
    for name in DESK_SCENARIOS + ["lottery_stress.kb"]:
        kb = load_kb(scenario_path(name))
        for entry in kb.axioms + kb.candidates:
            printed = print_formula(entry.formula)
            again = parse_formula(printed, kb.sig)
            assert formula_key(again) == formula_key(entry.formula)
            assert print_formula(again) == printed


# ---------------------------------------------------------------------------
# Randomized round trips

def random_formula(rng: random.Random, sig: Signature, depth: int, env: dict):
    atoms = [
        lambda: Atom(App("p", (), "Boolean")),
        lambda: Atom(App("q", (), "Boolean")),
        lambda: Atom(App("win", (env[rng.randrange(len(env))]
                                 if env and rng.random() < 0.5
                                 else Const(rng.choice(["ticket1", "ticket2"]), "Object"),),
                         "Boolean")),
        lambda: Falsum(),
    ]
    if depth <= 0:
        return rng.choice(atoms)()
    kind = rng.randrange(10)
    if kind <= 2:
        return rng.choice(atoms)()
    if kind == 3:
        return Not(random_formula(rng, sig, depth - 1, env))
    if kind == 4:
        n = rng.randrange(2, 4)
        cls = rng.choice([And, Or, Xor])
        return cls(tuple(random_formula(rng, sig, depth - 1, env) for _ in range(n)))
    if kind == 5:
        return Implies(random_formula(rng, sig, depth - 1, env),
                       random_formula(rng, sig, depth - 1, env))
    if kind == 6:
        return Iff(random_formula(rng, sig, depth - 1, env),
                   random_formula(rng, sig, depth - 1, env))
    if kind == 7:
        name = rng.choice(["x", "y", "z", "x"])  # collisions exercise shadowing
        var = Var(name, "Object")
        inner = dict(env)
        inner[len(env)] = var
        cls = rng.choice([Forall, Exists])
        return cls(var, random_formula(rng, sig, depth - 1, inner))
    agent = Const(rng.choice(["a", "b", "mary"]), "Agent")
    moment = Const(rng.choice(["now", "t1"]), "Moment")
    cls = rng.choice([Believes, Perceives, Withholds])
    return cls(agent, moment, random_formula(rng, sig, depth - 1, env))


def test_random_roundtrip_batch(sig):
    rng = random.Random(20260809)
    for _ in range(300):
        f = random_formula(rng, sig, depth=6, env={})
        printed = print_formula(f)
        again = parse_formula(printed, sig)
        assert formula_key(again) == formula_key(f)
        assert print_formula(again) == printed


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_roundtrip_property(seed):
    sig = Signature()
    sig.declare_const("a", "Agent")
    sig.declare_const("b", "Agent")
    sig.declare_const("mary", "Agent")
    sig.declare_const("now", "Moment")
    sig.declare_const("t1", "Moment")
    sig.declare_const("ticket1", "Object")
    sig.declare_const("ticket2", "Object")
    sig.declare_func("win", ("Object",), "Boolean")
    sig.declare_func("p", (), "Boolean")
    sig.declare_func("q", (), "Boolean")
    f = random_formula(random.Random(seed), sig, depth=5, env={})
    assert formula_key(parse_formula(print_formula(f), sig)) == formula_key(f)

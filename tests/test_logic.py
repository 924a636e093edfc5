import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from mucal import logic
from mucal.errors import SortError, UnknownSymbolError
from mucal.logic import (
    And, App, Atom, Believes, Const, Exists, Falsum, Forall, Iff, Implies,
    Not, Or, Perceives, Signature, StrengthLevel, Var, Withholds, Xor,
    expand_sugar, formula_key, free_vars, normalize, substitute,
    substitute_unchecked, weight, well_sorted,
)
from mucal.syntax import parse_formula, print_formula
from conftest import DESK_SCENARIOS, scenario_path
from mucal.kb import load_kb
from test_syntax import random_formula


@pytest.fixture
def sig():
    s = Signature()
    s.declare_const("t1", "Object")
    s.declare_const("t2", "Object")
    s.declare_const("a", "Agent")
    s.declare_const("mary", "Agent")
    s.declare_const("john", "Agent")
    s.declare_const("now", "Moment")
    s.declare_const("m1", "Moment")
    s.declare_const("raining", "Fluent")
    s.declare_func("win", ("Object",), "Boolean")
    return s


def win(t):
    return Atom(App("win", (t,), "Boolean"))


T1 = Const("t1", "Object")
T2 = Const("t2", "Object")
X = Var("x", "Object")


def test_builtin_sort_edges():
    s = Signature()
    assert s.sort_le("Self", "Agent")
    assert s.sort_le("Action", "Event")
    assert not s.sort_le("Agent", "Self")
    assert not s.sort_le("Moment", "Event")
    # exactly the two declared edges
    edges = {(n, p) for n, p in s.sorts.items() if p is not None}
    assert edges == {("Self", "Agent"), ("Action", "Event")}


def test_sort_graph_acyclic_by_construction():
    s = Signature()
    s.declare_sort("A")
    s.declare_sort("B", "A")
    # parents must already exist, so no declaration can close a cycle
    with pytest.raises(UnknownSymbolError):
        s.declare_sort("C", "C")
    with pytest.raises(SortError):
        s.declare_sort("A", "B")  # re-declaration rejected


def test_free_vars_falsum_and_bound():
    assert free_vars(Falsum()) == frozenset()
    assert free_vars(Exists(X, win(X))) == frozenset()
    assert free_vars(win(X)) == frozenset([X])


def test_substitute_single_occurrence():
    assert substitute(win(X), X, T1) == win(T1)


def test_substitute_bound_unchanged():
    f = Exists(X, win(X))
    assert substitute(f, X, T1) == f


def test_substitute_under_modality(sig):
    a = Const("a", "Agent")
    now = Const("now", "Moment")
    f = Believes(a, now, win(X))
    assert substitute(f, X, T2, sig) == Believes(a, now, win(T2))


def test_substitute_sort_mismatch(sig):
    with pytest.raises(SortError):
        substitute(win(X), X, Const("now", "Moment"), sig)


def test_substitute_subsort_allowed(sig):
    sig.declare_const("me", "Self")
    v = Var("ag", "Agent")
    f = Believes(v, Const("now", "Moment"), win(T1))
    out = substitute(f, v, Const("me", "Self"), sig)
    assert out.agent == Const("me", "Self")


def test_substitute_preserves_binder_multiset(sig):
    f = parse_formula(
        "(forall (x Object) (exists (y Object) (and (win x) (win y))))", sig
    )

    def binders(g):
        if isinstance(g, (Forall, Exists)):
            return [type(g).__name__] + binders(g.body)
        out = []
        from mucal.logic import children
        for c in children(g):
            out.extend(binders(c))
        return out

    before = sorted(binders(f))
    after = sorted(binders(substitute(f, Var("z", "Object"), T1)))
    assert before == after


def test_expand_withholding(sig):
    a = Const("a", "Agent")
    now = Const("now", "Moment")
    f = Withholds(a, now, win(T1))
    out = expand_sugar(f)
    assert out == And((
        Not(Believes(a, now, win(T1))),
        Not(Believes(a, now, Not(win(T1)))),
    ))


def test_expand_xor_two_disjuncts():
    f = Xor((win(T1), win(T2)))
    assert expand_sugar(f) == And((
        Or((win(T1), win(T2))),
        Not(And((win(T1), win(T2)))),
    ))


def test_expand_identity_without_sugar():
    f = And((win(T1), Not(win(T2))))
    assert expand_sugar(f) == f


def test_expand_idempotent_on_corpus():
    for name in DESK_SCENARIOS:
        kb = load_kb(scenario_path(name))
        for ax in kb.axioms + kb.candidates:
            once = expand_sugar(ax.formula)
            assert expand_sugar(once) == once


def test_corpus_well_sorted_before_and_after_expansion():
    for name in DESK_SCENARIOS:
        kb = load_kb(scenario_path(name))
        for ax in kb.axioms + kb.candidates:
            assert well_sorted(ax.formula, kb.sig)
            assert well_sorted(expand_sugar(ax.formula), kb.sig)


def test_well_sorted_holds(sig):
    f = parse_formula("(holds raining m1)", sig)
    assert well_sorted(f, sig)


def test_well_sorted_swapped_args(sig):
    bad = Atom(App("holds", (Const("m1", "Moment"), Const("raining", "Fluent")), "Boolean"))
    assert not well_sorted(bad, sig)


def test_well_sorted_nested_modal(sig):
    f = parse_formula(
        "(believes john now (perceives mary m1 (holds raining m1)))", sig
    )
    assert well_sorted(f, sig)


def test_well_sorted_unknown_symbol(sig):
    bad = Atom(App("mystery", (), "Boolean"))
    with pytest.raises(UnknownSymbolError) as e:
        well_sorted(bad, sig)
    assert "mystery" in str(e.value)


def test_normalize_alpha_blind(sig):
    f = parse_formula("(exists (t Object) (win t))", sig)
    g = parse_formula("(exists (u Object) (win u))", sig)
    assert normalize(f) == normalize(g)


def test_normalize_ac(sig):
    f = parse_formula("(and (win t1) (win t2))", sig)
    g = parse_formula("(and (win t2) (win t1))", sig)
    assert normalize(f) == normalize(g)


def test_normalize_does_not_capture_a_free_variable(sig):
    # a free `_v0` must not be bound by the name the first binder gets
    sig.declare_func("p", ("Object", "Object"), "Boolean")
    f = parse_formula("(exists (_v0 Object) (forall (y Object) (p _v0 y)))", sig).body
    g = parse_formula("(forall (y Object) (p y y))", sig)
    assert formula_key(f) != formula_key(g)
    assert free_vars(normalize(f)) == free_vars(f)


def test_equal_nodes_are_one_object(sig):
    # a term, an atom, a modal node and a quantifier built by substitution
    # are the very objects the parser builds for the same text
    def instance(text):
        q = parse_formula(text, sig)
        return substitute_unchecked(q.body, q.var, T1)

    atom = instance("(exists (x Object) (win x))")
    assert atom is parse_formula("(win t1)", sig)
    assert atom.term is App("win", (Const("t1", "Object"),), "Boolean")
    modal = instance("(exists (x Object) (believes a now (win x)))")
    assert modal is parse_formula("(believes a now (win t1))", sig)
    quant = instance("(exists (x Object) (forall (y Object) (and (win x) (win y))))")
    assert quant is parse_formula("(forall (y Object) (and (win t1) (win y)))", sig)
    assert quant != parse_formula("(forall (z Object) (and (win t1) (win z)))", sig)


def test_node_hash_is_the_hash_of_its_fields():
    # the frozen-dataclass hash, so set and dict iteration orders are kept
    p = win(T1)
    nodes = [
        X, T1, p.term, p, Falsum(), Not(p), And((p, win(T2))), Or((p,)),
        Implies(p, p), Iff(p, Falsum()), Xor((p, win(T2))), Forall(X, win(X)),
        Exists(X, win(X)), Believes(Const("a", "Agent"), Const("now", "Moment"), p),
        Perceives(Const("a", "Agent"), Const("1", "Moment"), p),
        Withholds(Const("a", "Agent"), Const("now", "Moment"), p),
    ]
    assert len({type(n) for n in nodes}) == 16
    for n in nodes:
        assert hash(n) == hash(tuple(getattr(n, name) for name in n.__slots__))


_FRESH = itertools.count()


def test_formula_key_of_an_and_chain_is_linear(monkeypatch):
    calls = [0]
    inner = logic._struct_key

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(logic, "_struct_key", counting)

    def key_calls(n):
        tag = f"chain{next(_FRESH)}_"  # fresh names: no stored keys to reuse
        atoms = [Atom(App(f"{tag}{i}", (), "Boolean")) for i in range(n)]
        chain = atoms[-1]
        for a in reversed(atoms[:-1]):
            chain = And((a, chain))
        calls[0] = 0
        formula_key(chain)
        return calls[0]

    assert key_calls(80) <= 2.5 * key_calls(40)


def test_normal_form_of_a_negation_is_the_staged_one(sig):
    # normalize takes a negation's normal form from its body's; the three
    # stages, run on the whole negation, are the reference
    def staged(f):
        plain = expand_sugar(f)
        taken = frozenset(v.name for v in free_vars(plain))
        return logic._alpha(logic._ac_sort(plain), {}, [0], taken)

    sig.declare_func("p", (), "Boolean")
    sig.declare_func("q", (), "Boolean")
    sig.declare_const("b", "Agent")
    rng = random.Random(7)
    for _ in range(500):
        f = random_formula(rng, sig, depth=5, env={})
        cases = [Not(f), Not(Not(f))]
        if isinstance(f, (Forall, Exists)):  # an open body: its free variable is kept
            cases.append(Not(f.body))
        for g in cases:
            assert normalize(g) is staged(g)


def test_second_normalize_builds_no_node(monkeypatch):
    # sugar, AC order and a binder: every stage of the normal form
    tag = f"norm{next(_FRESH)}_"
    atoms = [Atom(App(f"{tag}{i}", (X,), "Boolean")) for i in range(4)]
    f = Exists(X, Xor((atoms[2], And((atoms[3], atoms[0])), atoms[1])))
    first = normalize(f)
    built = [0]
    inner = logic._Node.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(logic._Node, "__new__", counting)
    assert normalize(f) is first
    assert built[0] == 0


def test_concurrent_construction_gives_one_object():
    tag = f"race{next(_FRESH)}_"
    results = [[] for _ in range(4)]

    def build(out):
        for i in range(2000):
            out.append(Not(Atom(App(f"{tag}{i}", (), "Boolean"))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(r,)) for r in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for built in zip(*results):
        assert all(b is built[0] for b in built)


def test_weight_examples(sig):
    p = Atom(App("p", (), "Boolean"))
    assert weight(p) == 1
    assert weight(win(T1)) == 2
    assert weight(Not(win(T1))) == 3


def test_strength_level_order():
    assert StrengthLevel.NONE < StrengthLevel.ACCEPTABLE
    assert list(StrengthLevel) == sorted(StrengthLevel)
    assert StrengthLevel.CERTAIN.label == "certain"


# ---------------------------------------------------------------------------
# The moment order and what an agent holds at a moment

def _prior(a, b):
    return Atom(App("prior", (Const(a, "Moment"), Const(b, "Moment")), "Boolean"))


def test_widened_is_the_same_order_when_nothing_is_new():
    order = logic.MomentOrder([("t1", "t2")], ["now", "3"])
    assert order.widened([("t1", "t2")], ["3", "t1"]) is order
    assert order.widened([], []) is order
    wider = order.widened([("t2", "now")], [])
    assert wider is not order
    assert wider.lt("t1", "now") and not order.lt("t1", "now")
    numeral = order.widened([], ["5"])
    assert numeral.lt("3", "5") and numeral.moments == ["3", "5", "now", "t1", "t2"]


def test_premise_set_cycle_is_kept_but_a_kb_cycle_is_rejected():
    order = logic.order_from_premises([_prior("t1", "t2"), _prior("t2", "t1")])
    assert order.lt("t1", "t1") and order.lt("t2", "t2")
    assert order.moments == ["t1", "t2"]
    from mucal.errors import KbError
    from mucal.kb import parse_kb
    with pytest.raises(KbError, match="cycle"):
        parse_kb("(const t1 Moment)(const t2 Moment)(prior t1 t2)(prior t2 t1)")


def test_held_content():
    order = logic.MomentOrder([("t0", "t1"), ("t1", "t2")])
    mary, john = Const("mary", "Agent"), Const("john", "Agent")
    t0, t1, t2 = (Const(m, "Moment") for m in ("t0", "t1", "t2"))
    p = Atom(App("p", (), "Boolean"))
    held = logic.held_content
    # a belief is held at its moment and later, not earlier
    assert held(Believes(mary, t1, p), mary, t1, order) is p
    assert held(Believes(mary, t0, p), mary, t1, order) is p
    assert held(Believes(mary, t2, p), mary, t1, order) is None
    # a percept only strictly later
    assert held(Perceives(mary, t1, p), mary, t1, order) is None
    assert held(Perceives(mary, t0, p), mary, t1, order) is p
    # another agent holds nothing of mary's, and a plain formula is no attitude
    assert held(Believes(mary, t0, p), john, t1, order) is None
    assert held(Perceives(mary, t0, p), john, t1, order) is None
    assert held(p, mary, t1, order) is None

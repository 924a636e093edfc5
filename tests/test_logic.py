import itertools
import random
import sys
import threading

import pytest

from mucal import logic
from mucal.errors import SortError, UnknownSymbolError
from mucal.logic import (
    BUILTIN_SORTS, And, App, Atom, Believes, Const, Exists, Falsum, Forall, Iff,
    Implies, Not, Or, Perceives, Signature, StrengthLevel, Var, Withholds, Xor,
    exclusion_atoms, exclusion_key, expand_sugar, formula_key, free_vars,
    negation_key, substitute, substitute_unchecked, weight, well_sorted, xor_conjuncts,
)
from mucal.prover import prove
from mucal.syntax import parse_formula
from conftest import DESK_SCENARIOS, builtin_universe, scenario_path
from mucal.kb import load_kb, parse_kb
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
    assert substitute(win(X), X, T1, Signature()) == win(T1)


def test_substitute_bound_unchanged():
    f = Exists(X, win(X))
    assert substitute(f, X, T1, Signature()) == f


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
    # a subsort of Moment that the KB declares
    kb = parse_kb("(sort Instant Moment)(const i1 Instant)(const a Agent)"
                  "(const t1 Object)(func win (Object) Boolean)")
    t = Var("t", "Moment")
    i1 = Const("i1", "Instant")
    out = substitute(Believes(Const("a", "Agent"), t, win(T1)), t, i1, kb.sig)
    assert out.moment == i1


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
    after = sorted(binders(substitute(f, Var("z", "Object"), T1, Signature())))
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


def _xor_shapes(f, rng):
    """f with some nodes put under a one-operand xor, a xor that repeats an
    operand, a xor nested in a one-operand and/or wrapper, or beside an
    empty xor."""
    kids = tuple(_xor_shapes(c, rng) for c in logic.children(f))
    g = logic.rebuild(f, kids)
    r = rng.random()
    if r < 0.08:
        return Xor((g,))
    if r < 0.16:
        return Xor((g, g))
    if r < 0.22:
        return Xor((g, kids[0] if kids else Not(g), g))
    if r < 0.3:
        return rng.choice([And, Or])((Xor((g, Not(g))),))
    if r < 0.34:
        return rng.choice([And, Or])((g, Xor(())))
    return g


def test_xor_key_is_its_pairwise_expansion_key(sig):
    from oracles import ref_expand

    _identity_sig(sig)
    rng = random.Random(31)
    xors = 0
    for _ in range(1500):
        f = _xor_shapes(random_formula(rng, sig, depth=4, env={}), rng)
        assert formula_key(f) == formula_key(ref_expand(f)), f
        assert formula_key(expand_sugar(f)) == formula_key(f)
        if isinstance(f, Xor):
            xors += 1
            assert formula_key(And(xor_conjuncts(f))) == formula_key(f), f
    assert xors > 100
    # a wide xor over atoms: its key is built without its exclusion nodes
    wide = Xor(tuple(Atom(App("w" + str(i), (), "Boolean")) for i in range(40)))
    before = len(Not._interned)
    key = formula_key(wide)
    assert len(Not._interned) == before
    assert key == formula_key(ref_expand(wide))
    assert key == formula_key(And(xor_conjuncts(wide)))


def test_exclusion_and_negation_helpers_spell_the_formula_identity(sig):
    # constants whose names hold commas and digits, so a key's commas do
    # not all separate operands
    _identity_sig(sig)
    for name in ("t,1", "2,x", "a,,b", "10"):
        sig.declare_const(name, "Object")
    rng = random.Random(17)
    names = ["t,1", "2,x", "a,,b", "10", "t1"]
    atoms = [win(Const(n, "Object")) for n in names] + [
        Atom(App("p", (), "Boolean")), Atom(App("q", (), "Boolean"))]
    for a, b in itertools.product(atoms, repeat=2):
        ka, kb = formula_key(a), formula_key(b)
        key = exclusion_key(ka, kb)
        assert key == exclusion_key(kb, ka) == formula_key(Not(And((a, b))))
        assert exclusion_atoms(key) == (min(ka, kb), max(ka, kb))
    for f in atoms + [random_formula(rng, sig, depth=4, env={}) for _ in range(300)]:
        assert negation_key(formula_key(f)) == formula_key(Not(f))
    # a key that is not a negated conjunction of an atom and more has none
    p, q = atoms[-2:]
    for f in (Not(p), Not(And((p, Or((q, atoms[0]))))), Not(Or((p, q))), And((p, q))):
        assert exclusion_atoms(formula_key(f)) is None, f


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
    assert formula_key(f) == formula_key(g)


def test_normalize_ac(sig):
    f = parse_formula("(and (win t1) (win t2))", sig)
    g = parse_formula("(and (win t2) (win t1))", sig)
    assert formula_key(f) == formula_key(g)


def test_normalize_does_not_capture_a_free_variable(sig):
    # a free `_v0` is keyed by its name, never as a bound variable
    sig.declare_func("p", ("Object", "Object"), "Boolean")
    f = parse_formula("(exists (_v0 Object) (forall (y Object) (p _v0 y)))", sig).body
    g = parse_formula("(forall (y Object) (p y y))", sig)
    assert formula_key(f) != formula_key(g)


def test_alpha_variants_with_an_or_under_two_binders_get_one_key(sig):
    # the or's operands mention both bound variables, so their order must
    # not depend on the variables' names
    sig.declare_sort("T")
    sig.declare_func("r", ("T", "T"), "Boolean")
    f = parse_formula("(forall (x T) (forall (y T) (or (r x y) (r y x))))", sig)
    g = parse_formula("(forall (y T) (forall (x T) (or (r y x) (r x y))))", sig)
    assert formula_key(f) == formula_key(g) == "all[T](all[T](or(a(r(b0,b1)),a(r(b1,b0)))))"


def _identity_sig(sig):
    sig.declare_func("p", (), "Boolean")
    sig.declare_func("q", (), "Boolean")
    sig.declare_const("b", "Agent")
    return sig


def _rename_binders(f, rng):
    """f with each binder renamed to a name drawn from a small pool, so that
    binders often trade names; its bound occurrences follow it."""
    if isinstance(f, (Forall, Exists)):
        body = _rename_binders(f.body, rng)
        others = free_vars(body) - {f.var}
        var = Var(rng.choice([n for n in "xyzu" if Var(n, f.var.sort) not in others]), f.var.sort)
        return type(f)(var, substitute_unchecked(body, f.var, var))
    return logic.rebuild(f, tuple(_rename_binders(c, rng) for c in logic.children(f)))


def _regroup(f, rng):
    """f with the operands of each and/or node shuffled, some of them grouped
    into a nested node of the same connective, and some nodes wrapped in a
    one-operand and/or node."""
    kids = [_regroup(c, rng) for c in logic.children(f)]
    if isinstance(f, (And, Or)):
        rng.shuffle(kids)
        if len(kids) > 2 and rng.random() < 0.5:
            i = rng.randrange(len(kids) - 1)
            j = rng.randrange(i + 2, len(kids) + 1)
            kids[i:j] = [type(f)(tuple(kids[i:j]))]
    g = logic.rebuild(f, tuple(kids))
    return rng.choice([And, Or])((g,)) if rng.random() < 0.1 else g


def test_key_survives_renaming_regrouping_and_sugar_expansion(sig):
    _identity_sig(sig)
    rng = random.Random(13)
    x, y, w = (Var(n, "Object") for n in "xyw")
    for _ in range(300):
        # two binders over an and/or whose operands differ only in which of
        # the two variables they mention where, beside a formula of any shape
        g = random_formula(rng, sig, depth=4, env={0: x, 1: y})
        swapped = substitute_unchecked(substitute_unchecked(
            substitute_unchecked(g, x, w), y, x), w, y)
        pair = Forall(x, Exists(y, rng.choice([And, Or])((g, swapped))))
        for f in (random_formula(rng, sig, depth=5, env={}), pair):
            key = formula_key(f)
            assert formula_key(_rename_binders(f, rng)) == key
            assert formula_key(_regroup(expand_sugar(f), rng)) == key
            assert formula_key(expand_sugar(f)) == key


def _propositional(rng, depth):
    atoms = [Atom(App(n, (), "Boolean")) for n in "pqr"] + [Falsum()]
    kind = rng.randrange(8) if depth > 0 else 0
    if kind < 2:
        return rng.choice(atoms)
    if kind == 2:
        return Not(_propositional(rng, depth - 1))
    if kind < 6:
        cls = (And, Or, Xor)[kind - 3]
        return cls(tuple(_propositional(rng, depth - 1) for _ in range(rng.randrange(1, 4))))
    cls = Implies if kind == 6 else Iff
    return cls(_propositional(rng, depth - 1), _propositional(rng, depth - 1))


def test_equal_keys_have_equal_truth_tables():
    from oracles import collect_atoms, holds_in

    rng = random.Random(29)
    classes: dict = {}
    for _ in range(3000):
        f = _propositional(rng, 3)
        classes.setdefault(formula_key(f), set()).add(f)
    shared = [fs for fs in classes.values() if len(fs) > 1]
    assert len(shared) > 50  # the check below compares many distinct formulas
    for fs in shared:
        names: set = set()
        for f in fs:
            collect_atoms(f, {}, names)
        names = sorted(names)
        for values in itertools.product((False, True), repeat=len(names)):
            assignment = dict(zip(names, values))
            assert len({holds_in(f, assignment, {}) for f in fs}) == 1


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
    inner = logic._key

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(logic, "_key", counting)

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


def test_key_of_a_negation_wraps_its_body_key(sig):
    _identity_sig(sig)
    rng = random.Random(7)
    for _ in range(500):
        f = random_formula(rng, sig, depth=5, env={})
        cases = [f, Not(f)]
        if isinstance(f, (Forall, Exists)):  # an open body: its free variable is kept
            cases.append(f.body)
        for g in cases:
            assert formula_key(Not(g)) == "n(" + formula_key(g) + ")"


def test_keying_a_sugar_free_formula_builds_no_node(monkeypatch):
    # and/or order, a one-operand node and a binder
    tag = f"key{next(_FRESH)}_"
    atoms = [Atom(App(f"{tag}{i}", (X,), "Boolean")) for i in range(4)]
    f = Exists(X, Or((atoms[2], And((atoms[3], Or((atoms[0],)))), atoms[1])))
    assert expand_sugar(f) is f  # looks every node up once, before counting
    built = [0]
    inner = logic._Node.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(logic._Node, "__new__", counting)
    assert formula_key(f) == f"ex[Object](or(a({tag}1(b0)),a({tag}2(b0)),and(a({tag}0(b0)),a({tag}3(b0)))))"
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


# ---------------------------------------------------------------------------
# What the ground-term walk reads off a formula: weight, symbols, ground terms

P = Atom(App("p", (), "Boolean"))
A = Const("a", "Agent")
NOW = Const("now", "Moment")


def test_weight_counts_each_node_over_its_operands():
    nested = Atom(App("r", (App("f", (T1,), "Object"), X), "Boolean"))
    assert weight(nested) == 4  # an atom weighs its term size
    assert weight(Falsum()) == 1
    assert weight(And((P, win(T1)))) == 1 + 1 + 2
    assert weight(Xor((P, P, P))) == 1 + 3
    assert weight(Implies(P, Falsum())) == 1 + 1 + 1
    assert weight(Forall(X, win(X))) == 1 + 2
    assert weight(Exists(X, P)) == 1 + 1  # an unused binder adds nothing
    assert weight(Believes(A, NOW, win(T1))) == 1 + 1 + 1 + 2
    moment = App("next", (NOW,), "Moment")
    assert weight(Withholds(A, moment, P)) == 1 + 1 + 2 + 1


def test_symbols_count_bound_variable_names_and_constant_symbols_do_not(sig):
    f = parse_formula("(forall (x Object) (win x))", sig)
    assert logic.symbols(f) == {"x", "win"}
    assert logic.constant_symbols(f) == {"win"}
    # a binder named like a declared constant is still a variable
    bound = Var("t1", "Object")
    shadow = Forall(bound, win(bound))
    assert logic.symbols(shadow) == {"t1", "win"}
    assert logic.constant_symbols(shadow) == {"win"}
    assert logic.constant_symbols(Forall(bound, win(T1))) == {"win", "t1"}
    # a binder whose variable never occurs adds no name
    assert logic.symbols(Exists(Var("y", "Object"), P)) == {"p"}
    assert logic.symbols(Believes(A, NOW, P)) == {"a", "now", "p"}


def test_collect_ground_terms_walks_atoms_agents_and_moments():
    later = App("next", (NOW,), "Moment")
    got = logic.collect_ground_terms((Believes(A, later, win(T1)),), BUILTIN_SORTS)
    # sorts in the order the walk first meets them, never in set order; a
    # ground atom is a formula, not a term, so there is no Boolean bucket
    assert list(got) == ["Agent", "Moment", "Object"]
    assert got["Agent"] == (A,)
    assert got["Moment"] == (later, NOW)  # print order: "(next now)" < "now"


def test_collect_ground_terms_skips_open_terms_but_keeps_their_ground_parts():
    c = Const("c", "Object")
    open_term = App("f", (c, App("g", (X,), "Object")), "Object")
    got = logic.collect_ground_terms((Atom(App("r", (open_term,), "Boolean")),), BUILTIN_SORTS)
    assert got == {"Object": (c,)}


def test_collect_ground_terms_joins_ancestor_sorts_and_orders_by_print_form():
    me = Const("me", "Self")
    assert logic.collect_ground_terms((Believes(me, NOW, P),), BUILTIN_SORTS)["Agent"] == (me,)
    sub = Const("s", "Sub")
    parents = {"Sub": "Object", "Object": None}
    f = And((win(T2), Atom(App("q", (sub,), "Boolean")), win(T1)))
    got = logic.collect_ground_terms((f,), parents)
    assert got["Sub"] == (sub,)
    assert got["Object"] == (sub, T1, T2)  # "s" < "t1" < "t2"
    assert logic.collect_ground_terms((f,), {})["Object"] == (T1, T2)
    b = App("b", (), "Object")
    got = logic.collect_ground_terms((Atom(App("r", (T1, b), "Boolean")),), BUILTIN_SORTS)
    assert got["Object"] == (b, T1)


def test_prove_on_sugared_premises_matches_prove_on_their_expansion(sig):
    # the default moment order does not depend on sugar expansion; the r_p
    # lift below needs `prior m1 now`, so a wrong order would change the proof
    gamma = [parse_formula(t, sig) for t in (
        "(xor (win t1) (win t2))", "(prior m1 now)",
        "(perceives a m1 (win t1))", "(withholds a m1 (win t2))",
    )]
    goal = parse_formula("(believes a now (or (win t1) (win t2)))", sig)
    expanded = [expand_sugar(g) for g in gamma]
    sugared = prove(gamma, goal, 3, builtin_universe(gamma + [goal]))
    assert sugared.outcome == "proved"
    assert sugared == prove(expanded, expand_sugar(goal), 3,
                            builtin_universe(expanded + [expand_sugar(goal)]))
    universe = logic.collect_ground_terms(gamma + [goal], BUILTIN_SORTS)
    raw = logic.order_from_premises(gamma + [goal], universe)
    plain = logic.order_from_premises(expanded + [expand_sugar(goal)], universe)
    assert (raw.pairs(), raw.moments) == (plain.pairs(), plain.moments)


def test_strength_level_order():
    assert StrengthLevel.NONE < StrengthLevel.ACCEPTABLE
    assert list(StrengthLevel) == sorted(StrengthLevel)
    assert StrengthLevel.CERTAIN.label == "certain"


# ---------------------------------------------------------------------------
# The moment order and what an agent holds at a moment

def _prior(a, b):
    return Atom(App("prior", (Const(a, "Moment"), Const(b, "Moment")), "Boolean"))


def test_premise_set_cycle_is_kept_but_a_kb_cycle_is_rejected():
    order = logic.order_from_premises([_prior("t1", "t2"), _prior("t2", "t1")], {})
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

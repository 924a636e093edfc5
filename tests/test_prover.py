import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from mucal import prover
from mucal.checker import check_proof
from mucal.errors import UnknownNameError
from mucal.kb import load_kb, parse_kb
from mucal.logic import (
    And, App, Atom, Const, Falsum, Implies, Not, Or, Xor, formula_key, negation_of,
    well_sorted,
)
from mucal.prover import prove, rho
from mucal.reasonable import ReasonEngine
from mucal.syntax import parse_formula
from conftest import builtin_universe, scenario_path
from oracles import truth_table_consistent, truth_table_entails

P = Atom(App("p", (), "Boolean"))
Q = Atom(App("q", (), "Boolean"))


def _lottery_axiom(kb):
    return [a.formula for a in kb.axioms]


# ---------------------------------------------------------------------------
# prove

def test_belief_in_a_conjunction_supports_each_conjunct(rain_kb):
    sig = rain_kb.sig
    f = parse_formula(
        "(believes john now (and (holds raining t1) (holds raining now)))", sig
    )
    goal = parse_formula("(believes john now (holds raining t1))", sig)
    res = prove((f,), goal, depth=2, universe=builtin_universe((f, goal)))
    assert res.outcome == "proved"


def test_prove_lottery_existential(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    gamma = _lottery_axiom(lottery_kb)
    res = prove(gamma, goal, depth=3, universe=builtin_universe([*gamma, goal]))
    assert res.outcome == "proved"
    # oracle: semantic entailment over the ticket universe
    assert truth_table_entails(
        _lottery_axiom(lottery_kb), goal, lottery_kb.herbrand()
    )


_ENTRY_KB = "(const c Object)(func r (Object) Boolean)(axiom x :certain (r c))"


@pytest.mark.parametrize("entry", [
    "prove", "Grounding", "consistent", "check_proof", "substitute", "collect_ground_terms",
])
def test_every_entry_point_needs_the_kbs_universe_or_signature(entry):
    # no entry point falls back to the built-in sorts or the premises' terms
    from mucal import logic, models

    kb = parse_kb(_ENTRY_KB)
    gamma = kb.all_premises()
    goal = parse_formula("(exists (x Object) (r x))", kb.sig)
    universe = kb.universe(gamma + (goal,))
    proof = prove(gamma, goal, kb.params.proof_depth, universe).proof
    assert check_proof(proof, gamma, goal, sig=kb.sig)
    budget = kb.params.consistency_depth
    calls = {
        "prove": lambda: prove(gamma, goal, kb.params.proof_depth),
        "Grounding": lambda: models.Grounding(gamma, budget),
        "consistent": lambda: models.consistent(gamma, budget),
        "check_proof": lambda: check_proof(proof, gamma, goal),
        "substitute": lambda: logic.substitute(goal.body, goal.var, Const("c", "Object")),
        "collect_ground_terms": lambda: logic.collect_ground_terms(gamma),
    }
    with pytest.raises(TypeError, match="universe|sig|parents"):
        calls[entry]()


def test_prove_nothing_from_empty():
    res = prove((), P, depth=3, universe=builtin_universe((P,)))
    assert res.outcome == "unknown"


def test_prove_negations_inconsistent_with_lottery(lottery_kb):
    sig = lottery_kb.sig
    negs = [parse_formula(f"(not (win ticket{i}))", sig) for i in range(1, 6)]
    gamma = _lottery_axiom(lottery_kb) + negs
    res = prove(gamma, Falsum(), depth=3, universe=builtin_universe([*gamma, Falsum()]))
    assert res.outcome == "proved"
    assert truth_table_consistent(gamma, lottery_kb.herbrand()) is False


def test_prove_for_agent_murder_with_theta1(murder_kb):
    goal = parse_formula("(murderer alice)", murder_kb.sig)
    theta1 = murder_kb.candidates[0].formula
    from mucal.prover import projection
    prems = projection(murder_kb, "s", "now", extra=(theta1,))
    res = prove(prems, goal, depth=3, universe=builtin_universe(prems + (goal,)))
    assert res.outcome == "proved"


def test_prove_for_agent_murder_without_theta(murder_kb):
    goal = parse_formula("(murderer alice)", murder_kb.sig)
    assert ReasonEngine(murder_kb).provable("s", "now", goal) is None


def test_prove_axiom_at_depth_zero(murder_kb):
    goal = parse_formula("(holds (owns alice) t0)", murder_kb.sig)
    # iterative deepening starts at budget 0, where an axiom is a premise
    proof = ReasonEngine(murder_kb).provable("s", "now", goal)
    assert proof is not None
    assert len(proof.steps) == 1
    assert proof.steps[0].rule == "premise"


def test_prove_for_agent_unknown_names(murder_kb):
    goal = parse_formula("(murderer alice)", murder_kb.sig)
    engine = ReasonEngine(murder_kb)
    with pytest.raises(UnknownNameError):
        engine.provable("nobody", "now", goal)
    with pytest.raises(UnknownNameError):
        engine.provable("s", "never", goal)


def test_prove_refutation_direction():
    gamma = (Not(P),)
    res = prove(gamma, P, depth=2, universe=builtin_universe(gamma + (P,)), refute=True)
    assert res.outcome == "refuted"
    assert formula_key(res.proof.goal) == formula_key(Not(P))


def test_prove_explosion():
    res = prove((P, Not(P)), Q, depth=2, universe=builtin_universe((P, Not(P), Q)))
    assert res.outcome == "proved"


# ---------------------------------------------------------------------------
# derived modal rules

def test_rp_derived_rule(rain_kb):
    f = parse_formula(
        "(perceives mary t1 (holds raining t1))", rain_kb.sig
    )
    prior = parse_formula("(prior t1 now)", rain_kb.sig)
    goal = parse_formula("(believes mary now (holds raining t1))", rain_kb.sig)
    res = prove((f, prior), goal, depth=2, universe=builtin_universe((f, prior, goal)))
    assert res.outcome == "proved"
    assert any(s.rule == "r_p" for s in res.proof.steps)


def test_a_goal_prior_atom_does_not_order_its_own_proof():
    # with t1 < t2 the percept would become a belief at t2 and contradict
    # the second premise; a model with t1 not before t2 satisfies both
    # premises and falsifies the goal, so the goal must not order its proof
    kb = parse_kb("(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)")
    gamma = tuple(parse_formula(s, kb.sig)
                  for s in ("(perceives a t1 (p))", "(not (believes a t2 (p)))"))
    goal = parse_formula("(prior t1 t2)", kb.sig)
    from mucal import models
    check = gamma + (Not(goal),)
    assert models.consistent(check, 256, builtin_universe(check)) == models.CONSISTENT
    assert prove(gamma, goal, 3, builtin_universe(gamma + (goal,))).outcome == "unknown"
    engine = ReasonEngine(parse_kb(
        "(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)"
        "(axiom x :certain (perceives a t1 (p)))"
        "(axiom y :certain (not (believes a t2 (p))))"
    ))
    assert engine.provable("a", "t1", goal) is None


def test_rb_derived_rule(rain_kb):
    sig = rain_kb.sig
    b1 = parse_formula("(believes mary t1 (holds raining t1))", sig)
    prior = parse_formula("(prior t1 now)", sig)
    goal = parse_formula(
        "(believes mary now (exists (t) (holds raining t)))", sig
    )
    res = prove((b1, prior), goal, depth=2, universe=builtin_universe((b1, prior, goal)))
    assert res.outcome == "proved"
    assert any(s.rule == "r_b" for s in res.proof.steps)


# ---------------------------------------------------------------------------
# monotonicity and determinism

def test_monotonicity_on_lottery(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    base = _lottery_axiom(lottery_kb)
    assert prove(base, goal, depth=3,
                 universe=builtin_universe([*base, goal])).outcome == "proved"
    extra = parse_formula("(not (win ticket1))", lottery_kb.sig)
    assert prove(base + [extra], goal, depth=3,
                 universe=builtin_universe([*base, extra, goal])).outcome == "proved"


def test_determinism_byte_identical(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    universe = builtin_universe([*_lottery_axiom(lottery_kb), goal])
    r1 = prove(_lottery_axiom(lottery_kb), goal, depth=3, universe=universe)
    r2 = prove(_lottery_axiom(lottery_kb), goal, depth=3, universe=universe)
    assert r1.proof == r2.proof


# ---------------------------------------------------------------------------
# rho

def test_rho_single_premise_proof(murder_kb):
    goal = parse_formula("(holds (owns alice) t0)", murder_kb.sig)
    proof = ReasonEngine(murder_kb).provable("s", "now", goal)
    # one step, four distinct symbols
    assert rho(proof) == 1 + Fraction(4, 1000)


def test_rho_monotone_in_steps(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    gamma = _lottery_axiom(lottery_kb)
    res = prove(gamma, goal, depth=3, universe=builtin_universe([*gamma, goal]))
    n = len(res.proof.steps)
    assert rho(res.proof) > n - 1
    assert rho(res.proof) < n + 1


def test_rho_existential_cheaper_than_negation_route(lottery_kb):
    sig = lottery_kb.sig
    pos = prove(
        _lottery_axiom(lottery_kb),
        parse_formula("(exists (t) (win t))", sig),
        depth=3,
        universe=lottery_kb.herbrand(),
    )
    negs = [parse_formula(f"(not (win ticket{i}))", sig) for i in range(1, 6)]
    neg = prove(
        negs,
        parse_formula("(not (exists (t) (win t)))", sig),
        depth=3,
        universe=lottery_kb.herbrand(),
    )
    assert pos.outcome == "proved" and neg.outcome == "proved"
    assert truth_table_entails(
        negs, parse_formula("(not (exists (t) (win t)))", sig),
        lottery_kb.herbrand(),
    )
    assert rho(pos.proof) < rho(neg.proof)


# ---------------------------------------------------------------------------
# the falsum watch index and the saturation cap

def _lottery_n(n, pairwise=False):
    """The n-ticket lottery; with `pairwise`, its axiom is the xor's
    pairwise expansion written out, which the prover saturates eagerly."""
    tickets = " ".join(f"(win ticket{i})" for i in range(1, n + 1))
    consts = "".join(f"(const ticket{i} Object)" for i in range(1, n + 1))
    axiom = f"(xor {tickets})"
    if pairwise:
        exclusions = " ".join(f"(not (and (win ticket{i}) (win ticket{j})))"
                              for i, j in itertools.combinations(range(1, n + 1), 2))
        axiom = f"(and (or {tickets}) {exclusions})"
    return parse_kb(
        "(const a Agent)(const now Moment)" + consts
        + "(func win (Object) Boolean)"
        + f"(axiom someone-wins :certain {axiom})"
    )


def _prove_goal(kb, text):
    goal = parse_formula(text, kb.sig)
    premises = kb.all_premises()
    return prove(premises, goal, depth=kb.params.proof_depth,
                 universe=kb.universe(premises + (goal,)), refute=True)


def _layers(env):
    """Every node of an environment: its search's base, then its own."""
    return {**env.base.nodes, **env.own}


def _unblocked_by_scan(env):
    nodes = _layers(env)
    out = set()
    for k, n in nodes.items():
        if not isinstance(n.formula, Not):
            continue
        body = n.formula.body
        if isinstance(body, Atom):
            atoms = (body,)
        elif isinstance(body, And) and all(isinstance(a, Atom) for a in body.args):
            atoms = body.args
        else:
            out.add(k)
            continue
        if formula_key(body) in nodes or all(
                formula_key(a) in nodes for a in atoms):
            out.add(k)
    return out


@pytest.mark.parametrize("scenario, goal", [
    ("lottery5.kb", "(exists (t) (win t))"),
    ("lottery5.kb", "(not (win ticket1))"),
    ("murder.kb", "(murderer alice)"),
    ("rain.kb", "(believes john now (holds raining t1))"),
    ("rain.kb", "(not (holds raining t1))"),
    (None, "(exists (t) (win t))"),
])
def test_falsum_index_matches_a_scan(monkeypatch, scenario, goal):
    kb = load_kb(scenario_path(scenario)) if scenario else _lottery_n(30)
    made = []  # (search, env), in creation order
    base_env, extend = prover._Search.base_env, prover._Search.extend

    def record_base(self):
        env = base_env(self)
        made.append((self, env))
        return env

    def record_extend(self, env, formulas):
        env2, assumes = extend(self, env, formulas)
        made.append((self, env2))
        return env2, assumes

    monkeypatch.setattr(prover._Search, "base_env", record_base)
    monkeypatch.setattr(prover._Search, "extend", record_extend)
    _prove_goal(kb, goal)
    monkeypatch.undo()
    assert len(made) > 1
    # children first, so the base index is built on a child's query
    for search, env in reversed(made):
        unblocked = set(env.unblocked())
        assert unblocked == _unblocked_by_scan(env)
        nodes = _layers(env)
        if prover._FALSE_KEY in nodes:
            continue
        # a blocked negation's body fails at budget 0
        fresh = prover._Search(search.gamma, search.universe, search.order)
        for k, n in nodes.items():
            if isinstance(n.formula, Not) and k not in unblocked:
                assert fresh.prove(env, n.formula.body, 0, frozenset(),
                                   frozenset()) is None


def test_thirty_ticket_lottery_skips_the_blocked_exclusions(monkeypatch):
    calls = [0]
    inner = prover._Search.prove

    def counting(self, *args):
        calls[0] += 1
        return inner(self, *args)

    monkeypatch.setattr(prover._Search, "prove", counting)
    res = _prove_goal(_lottery_n(30), "(exists (t) (win t))")
    assert res.outcome == "proved"
    assert rho(res.proof) == Fraction(7879, 125)
    assert len(res.proof.steps) == 63
    assert calls[0] <= 1000


def test_saturation_stops_building_at_the_cap(monkeypatch):
    built = [0]
    inner = prover._Node.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        inner(self, *args, **kwargs)

    kb = _lottery_n(100, pairwise=True)  # 4950 pairwise exclusions
    monkeypatch.setattr(prover._Node, "__init__", counting)
    res = _prove_goal(kb, "(exists (t) (win t))")
    assert res.outcome == "unknown"
    assert built[0] <= prover._SATURATION_CAP + 2


def test_falsum_step_uses_a_negated_conjunction_present_as_a_whole():
    # `(or (and b c))` has the key of `(and b c)` but is not and-eliminated,
    # so each conjunction below is derived whole, by the implication's
    # and_intro, while b, c, d and e stay absent.  In the first case the
    # assumed atom a can also wake the negation; in the second no atom of
    # the negated body is present, so only its body key can
    a, b, c, d, e, r = (Atom(App(n, (), "Boolean")) for n in "abcder")
    bc, de = Or((And((b, c)),)), Or((And((d, e)),))
    cases = [
        ((Not(And((a, b, c))), Implies(And((a, bc)), r)),
         Implies(a, Implies(bc, Falsum()))),
        ((Not(And((b, c, d, e))), Implies(And((bc, de)), r)),
         Implies(bc, Implies(de, Falsum()))),
    ]
    for gamma, goal in cases:
        res = prove(gamma, goal, depth=3, universe=builtin_universe(gamma + (goal,)))
        assert res.outcome == "proved"
        assert "neg_elim" in [s.rule for s in res.proof.steps]


# ---------------------------------------------------------------------------
# the shared base layer and the own layer

_LAYERS_KB = (
    "(sort T Object)(const c T)(const d T)(const a Agent)(const now Moment)"
    "(func p () Boolean)(func q () Boolean)(func s () Boolean)(func r (T) Boolean)"
)


@pytest.mark.parametrize("goal", [
    # split candidates and beliefs that only an assumption adds
    "(implies (and (or (p) (q)) (implies (p) (s)) (implies (q) (s))) (s))",
    "(implies (exists (x T) (and (r x) (p))) (p))",
    "(implies (and (exists (x T) (r x)) (forall (x T) (implies (r x) (s)))) (s))",
    "(implies (believes a now (and (p) (q))) (believes a now (p)))",
    "(implies (or (believes a now (p)) (believes a now (q))) (believes a now (or (p) (q))))",
])
def test_own_layer_joins_the_split_and_belief_indexes(goal):
    kb = parse_kb(_LAYERS_KB)
    g = parse_formula(goal, kb.sig)
    res = prove((), g, depth=kb.params.proof_depth, universe=kb.universe((g,)))
    assert res.outcome == "proved"


def test_eighty_ticket_lottery_branches_share_the_base(monkeypatch):
    kb = _lottery_n(80, pairwise=True)  # 3160 pairwise exclusions
    goal = parse_formula("(exists (t) (win t))", kb.sig)
    premises = kb.all_premises()
    universe = kb.universe(premises + (goal,))
    made = []  # (search, env), in creation order
    extend = prover._Search.extend

    def record_extend(self, env, formulas):
        env2, assumes = extend(self, env, formulas)
        made.append((self, env2))
        return env2, assumes

    monkeypatch.setattr(prover._Search, "extend", record_extend)
    tracemalloc.start()
    try:
        res = prove(premises, goal, depth=kb.params.proof_depth, universe=universe,
                    refute=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome == "proved"
    assert peak < 12 * 2**20
    assert len({id(search) for search, _ in made}) == 1
    base = made[0][1].base
    assert len(base.nodes) > 3000
    for _, env in made:
        assert env.base is base
        assert len(env.own) <= 4


def test_a_lift_to_a_subsort_moment_is_well_sorted():
    kb = parse_kb(
        "(sort Instant Moment)(const i0 Instant)(const i1 Instant)(const a Agent)"
        "(func p () Boolean)(axiom x :certain (perceives a i0 (p)))"
        "(axiom o :certain (prior i0 i1))"
    )
    gamma = tuple(ax.formula for ax in kb.axioms)
    goal = parse_formula("(believes a i1 (p))", kb.sig)
    res = prove(gamma, goal, 3, universe=kb.universe(gamma + (goal,)))
    assert res.outcome == "proved"
    assert [s.rule for s in res.proof.steps] == ["premise", "r_p"]
    assert all(well_sorted(s.formula, kb.sig) for s in res.proof.steps)
    # the checker joins i0 and i1 to the Moment bucket under the KB's sort
    # edges, as the KB's universe does
    assert check_proof(res.proof, gamma, goal, sig=kb.sig)


def test_the_moment_order_is_built_only_where_a_rule_reads_it(monkeypatch,
                                                             lottery_kb, murder_kb):
    def unread(*args):
        raise AssertionError("the moment order was built")

    monkeypatch.setattr(prover, "order_from_premises", unread)
    assert _prove_goal(lottery_kb, "(exists (t) (win t))").outcome == "proved"
    w = ReasonEngine(murder_kb).delta(
        "s", "now", parse_formula("(murderer alice)", murder_kb.sig))
    assert (w.theta_labels, w.distance) == (("theta1",), 9)
    # a percept lift reads it
    kb = parse_kb("(const a Agent)(func q () Boolean)")
    gamma = (parse_formula("(perceives a 3 (q))", kb.sig),)
    goal = parse_formula("(believes a 5 (q))", kb.sig)
    with pytest.raises(AssertionError, match="the moment order was built"):
        prove(gamma, goal, 3, builtin_universe(gamma + (goal,)))


# ---------------------------------------------------------------------------
# xor kept whole

def _xor_premises(rng, atoms, random_formula):
    """A premise set holding an xor over atoms, or over an odd operand,
    beside premises that name its operands: an operand or its negation,
    the conjunction of two, an implication out of an exclusion, and a
    one-operand wrapper keyed like a conjunction of two."""
    ops = tuple(rng.choice(atoms) if rng.random() < 0.85 else random_formula(rng, 1)
                for _ in range(rng.randrange(1, 6)))
    xor = Xor(ops)
    if rng.random() < 0.15:
        xor = rng.choice([Implies(rng.choice(atoms), xor), And((xor, rng.choice(atoms))),
                          Or((xor, random_formula(rng, 1)))])
    out = [xor]
    for _ in range(rng.randrange(0, 4)):
        a, b = rng.choice(atoms), rng.choice(atoms)
        out.append(rng.choice([
            a, Not(a), And((a, b)), Or((And((a, b)),)), Implies(Not(And((a, b))), b),
            Implies(a, Not(And((a, b)))), random_formula(rng, 1),
        ]))
    rng.shuffle(out)
    return tuple(out)


def test_xor_premises_prove_as_their_pairwise_expansion():
    from oracles import ref_expand
    from test_consistency import ENCODING_KB, LEAF_ATOMS, random_formula

    rng = random.Random(2602)
    outcomes = set()
    for _ in range(1500):
        gamma = _xor_premises(rng, LEAF_ATOMS, random_formula)
        a, b = rng.sample(LEAF_ATOMS, 2)
        goal = rng.choice([random_formula(rng, 1), Not(And((a, b))), a, Not(a), Falsum(),
                           Xor((a, b)), Implies(a, Not(b))])
        universe = ENCODING_KB.universe(gamma + (goal,))
        kept = prove(gamma, goal, depth=2, universe=universe, refute=True)
        expanded = tuple(map(ref_expand, gamma))
        ref = prove(expanded, ref_expand(goal), depth=2, universe=universe, refute=True)
        assert kept.outcome == ref.outcome, (gamma, goal)
        outcomes.add(kept.outcome)
        if kept.proof is not None:
            # the same proof, but for the xor_elim steps
            assert rho(kept.proof) == rho(ref.proof), (gamma, goal)
            for res, prems in ((kept, gamma), (ref, expanded)):
                want = goal if res.outcome == "proved" else negation_of(goal)
                assert check_proof(res.proof, prems, want, sig=ENCODING_KB.sig)
    assert outcomes == {"proved", "refuted", "unknown"}

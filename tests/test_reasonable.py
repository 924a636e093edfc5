from fractions import Fraction
from itertools import permutations

import pytest

import mucal.reasonable as reasonable
from mucal.kb import parse_kb
from mucal.logic import Falsum, weight
from mucal.prover import projection, prove
from mucal.reasonable import ProbTable, ReasonEngine, pr_lookup
from mucal.syntax import parse_formula
from oracles import brute_force_delta, pi


@pytest.fixture(scope="module")
def lottery_engine(lottery_kb):
    return ReasonEngine(lottery_kb)


@pytest.fixture(scope="module")
def murder_engine(murder_kb):
    return ReasonEngine(murder_kb)


# ---------------------------------------------------------------------------
# probability lookups

def test_pr_lookup_full_scale(lottery_full_kb):
    table = ProbTable.from_kb(lottery_full_kb)
    f = parse_formula("(win ticket1)", lottery_full_kb.sig)
    assert pr_lookup(table, "a", "now", f) == Fraction(1, 10**12)


def test_pr_lookup_complement(lottery_full_kb):
    table = ProbTable.from_kb(lottery_full_kb)
    f = parse_formula("(not (win ticket1))", lottery_full_kb.sig)
    assert pr_lookup(table, "a", "now", f) == 1 - Fraction(1, 10**12)


def test_pr_lookup_modal_undefined(lottery_kb):
    table = ProbTable.from_kb(lottery_kb)
    f = parse_formula(
        "(believes a now (believes a now (win ticket1)))", lottery_kb.sig
    )
    assert pr_lookup(table, "a", "now", f) is None


def test_pr_lookup_conjunction_undefined(lottery_kb):
    table = ProbTable.from_kb(lottery_kb)
    f = parse_formula("(and (win ticket1) (win ticket2))", lottery_kb.sig)
    assert pr_lookup(table, "a", "now", f) is None


# ---------------------------------------------------------------------------
# pi

def test_pi_identity(murder_kb):
    gamma = [a.formula for a in murder_kb.axioms]
    assert pi(gamma, gamma) == 0


def test_pi_single_atomic_addition():
    kb = parse_kb("(func p () Boolean)")
    p = parse_formula("(p)", kb.sig)
    assert pi([], [p]) == weight(p) == 1


def test_pi_symmetric(murder_kb):
    gamma = [a.formula for a in murder_kb.axioms]
    theta1 = [murder_kb.candidates[0].formula]
    assert pi(gamma, gamma + theta1) == pi(gamma + theta1, gamma)


def test_pi_murder_theta_ordering(murder_kb):
    gamma = [a.formula for a in murder_kb.axioms]
    theta1 = [murder_kb.candidates[0].formula]
    theta2 = [c.formula for c in murder_kb.candidates[1:]]
    assert pi(gamma, gamma + theta1) < pi(gamma, gamma + theta2)


# ---------------------------------------------------------------------------
# delta

def test_delta_provable_goal_is_zero(murder_kb):
    goal = parse_formula("(holds (owns alice) t0)", murder_kb.sig)
    w = ReasonEngine(murder_kb).delta("s", "now", goal)
    assert w is not None
    assert (w.theta, w.lam, w.distance) == ((), (), 0)


def test_delta_murder_witness_theta1(murder_engine, murder_kb):
    goal = parse_formula("(murderer alice)", murder_kb.sig)
    w = murder_engine.delta("s", "now", goal)
    assert w.theta_labels == ("theta1",)
    assert w.lam == ()
    assert w.distance == 9


def test_delta_negative_goal_uses_theta2(murder_engine, murder_kb):
    goal = parse_formula("(not (murderer alice))", murder_kb.sig)
    w = murder_engine.delta("s", "now", goal)
    assert w.theta_labels == ("theta2a", "theta2b")
    assert w.distance == 11


def test_delta_requires_removal():
    kb = parse_kb(
        "(const a Agent)(const now Moment)"
        "(func p () Boolean)(func q () Boolean)(func r () Boolean)"
        "(axiom keep :certain (q))"
        "(axiom drop (p))"
        "(axiom also (r))"
    )
    goal = parse_formula("(not (p))", kb.sig)
    w = ReasonEngine(kb).delta("a", "now", goal)
    assert w is not None
    assert ("drop",) == w.lam_labels
    assert w.theta_labels == ("+goal",)
    # oracle agrees on the distance
    assert brute_force_delta(kb, "a", "now", goal) == w.distance


def test_delta_falsum_has_no_witness(murder_kb):
    w = ReasonEngine(murder_kb).delta("s", "now", Falsum())
    assert w is None


def test_delta_certain_axioms_protected():
    kb = parse_kb(
        "(const a Agent)(const now Moment)(func p () Boolean)"
        "(axiom keep :certain (p))"
    )
    goal = parse_formula("(not (p))", kb.sig)
    assert ReasonEngine(kb).delta("a", "now", goal) is None


def test_delta_matches_bruteforce_on_corpus(murder_kb, counterfactual_kb):
    cases = [
        (murder_kb, "s", "now", "(murderer alice)"),
        (murder_kb, "s", "now", "(not (murderer alice))"),
        (murder_kb, "s", "now", "(murderer bob)"),
        (counterfactual_kb, "a", "t2", "(holds f t1)"),
        (counterfactual_kb, "a", "t2", "(holds g t1)"),
    ]
    for kb, agent, moment, text in cases:
        goal = parse_formula(text, kb.sig)
        w = ReasonEngine(kb).delta(agent, moment, goal)
        expect = brute_force_delta(kb, agent, moment, goal)
        got = None if w is None else w.distance
        assert got == expect, text


# ---------------------------------------------------------------------------
# more_reasonable

def test_clause1_basic():
    kb = parse_kb(
        "(const a Agent)(const now Moment)"
        "(func p () Boolean)(func q () Boolean)"
        "(pr a now (p) 7/10)(pr a now (q) 2/10)"
    )
    f = parse_formula("(p)", kb.sig)
    g = parse_formula("(q)", kb.sig)
    v = ReasonEngine(kb).more_reasonable("a", "now", f, g)
    assert v.holds and v.clause == "I"
    assert v.evidence["pr_left"] == Fraction(7, 10)
    assert v.evidence["pr_right"] == Fraction(2, 10)


def test_clause1_lottery_per_ticket(lottery_engine, lottery_kb):
    sig = lottery_kb.sig
    bel_neg = parse_formula("(believes a now (not (win ticket1)))", sig)
    bel_pos = parse_formula("(believes a now (win ticket1))", sig)
    v = lottery_engine.more_reasonable("a", "now", bel_neg, bel_pos)
    assert v.holds and v.clause == "I"
    assert v.evidence["pr_left"] == Fraction(4, 5)


def test_clause1_equal_probabilities_fail_both_ways():
    kb = parse_kb(
        "(const a Agent)(const now Moment)"
        "(func p () Boolean)(func q () Boolean)"
        "(pr a now (p) 1/2)(pr a now (q) 1/2)"
    )
    f = parse_formula("(p)", kb.sig)
    g = parse_formula("(q)", kb.sig)
    engine = ReasonEngine(kb)
    assert not engine.more_reasonable("a", "now", f, g).holds
    assert not engine.more_reasonable("a", "now", g, f).holds


def test_clause3_counterfactual_direction(counterfactual_kb, counterfactual_flip_kb):
    for kb, expect in ((counterfactual_kb, True), (counterfactual_flip_kb, False)):
        f = parse_formula("(believes a t2 (holds f t1))", kb.sig)
        g = parse_formula("(believes a t2 (holds g t1))", kb.sig)
        v = ReasonEngine(kb).more_reasonable("a", "t2", f, g)
        assert v.clause == "III"
        assert v.holds is expect


def test_irreflexive(murder_engine, murder_kb):
    f = parse_formula("(murderer alice)", murder_kb.sig)
    v = murder_engine.more_reasonable("s", "now", f, f)
    assert not v.holds
    assert v.note == "irreflexive"


# ---------------------------------------------------------------------------
# ordering axioms over the corpus

def _corpus_pairs(kb, agent, moment, texts):
    engine = ReasonEngine(kb)
    items = [parse_formula(t, kb.sig) for t in texts]
    verdicts = {}
    for i, f in enumerate(items):
        for j, g in enumerate(items):
            if i == j:
                continue
            verdicts[(i, j)] = engine.more_reasonable(agent, moment, f, g)
    return items, verdicts


CORPUS_COMPARISONS = [
    ("lottery", "a", "now", [
        "(win ticket1)", "(not (win ticket1))",
        "(win ticket2)", "(not (win ticket2))",
        "(exists (t) (win t))", "(not (exists (t) (win t)))",
    ]),
    ("murder", "s", "now", [
        "(murderer alice)", "(not (murderer alice))",
        "(murderer bob)", "(holds (owns alice) t3)",
        "(holds (owns alice) t0)",
    ]),
    ("counterfactual", "a", "t2", [
        "(holds f t1)", "(holds g t1)", "(not (holds f t1))",
    ]),
]


@pytest.fixture(scope="module")
def corpus_verdicts(lottery_kb, murder_kb, counterfactual_kb):
    kbs = {
        "lottery": lottery_kb,
        "murder": murder_kb,
        "counterfactual": counterfactual_kb,
    }
    out = []
    for name, agent, moment, texts in CORPUS_COMPARISONS:
        out.append(_corpus_pairs(kbs[name], agent, moment, texts))
    return out


def test_asymmetry_on_corpus(corpus_verdicts):
    checked = 0
    for items, verdicts in corpus_verdicts:
        for (i, j), v in verdicts.items():
            if v.holds:
                checked += 1
                assert not verdicts[(j, i)].holds
    assert checked > 5


def test_within_clause_transitivity_on_corpus(corpus_verdicts):
    checked = 0
    for items, verdicts in corpus_verdicts:
        n = len(items)
        for i, j, k in permutations(range(n), 3):
            vij = verdicts.get((i, j))
            vjk = verdicts.get((j, k))
            vik = verdicts.get((i, k))
            if not (vij and vjk and vik):
                continue
            if vij.holds and vjk.holds and vij.clause == vjk.clause == vik.clause:
                checked += 1
                assert vik.holds
    assert checked > 0


def test_falsum_never_more_reasonable(corpus_verdicts, lottery_kb, murder_kb,
                                      counterfactual_kb):
    kbs = [
        (lottery_kb, "a", "now"),
        (murder_kb, "s", "now"),
        (counterfactual_kb, "a", "t2"),
    ]
    for (kb, agent, moment), (_, _, _, texts) in zip(kbs, CORPUS_COMPARISONS):
        engine = ReasonEngine(kb)
        for text in texts:
            f = parse_formula(text, kb.sig)
            up = engine.more_reasonable(agent, moment, f, Falsum())
            down = engine.more_reasonable(agent, moment, Falsum(), f)
            assert not down.holds
            if up.clause != "inapplicable":
                assert up.holds


# ---------------------------------------------------------------------------
# best-first revision search

def test_delta_stops_at_first_minimal_witness(lottery_kb, monkeypatch):
    engine = ReasonEngine(lottery_kb)
    goal = parse_formula("(not (win ticket3))", lottery_kb.sig)
    assert engine.provable("a", "now", goal) is None
    calls = []
    real_prove = reasonable.prove

    def counting_prove(*args, **kwargs):
        calls.append(args[1])
        return real_prove(*args, **kwargs)

    monkeypatch.setattr(reasonable, "prove", counting_prove)
    w = engine.delta("a", "now", goal)
    # ewin, no1, no2 and no3 all weigh 3 and rank by label; nothing after
    # the witness is tried
    assert (w.theta_labels, w.lam_labels, w.distance) == (("no3",), (), 3)
    assert len(calls) <= 4


BUDGET_KB = """
(const a Agent)(const now Moment)
(const o1 Object)(const o2 Object)(const o3 Object)
(const o4 Object)(const o5 Object)(const o6 Object)
(func p () Boolean)(func r () Boolean)(func s () Boolean)
(func q (Object) Boolean)
(candidate c1 (p))
(candidate c2 (forall (x) (q x)))
(candidate c3 (and (s) (r) (s)))
(param consistency-depth 3)
"""

SKIPPED = "some revision pairs were skipped on a budget-exhausted check"


def test_budget_note_only_for_pairs_ranked_before_the_witness():
    # c2 grounds to six atoms, past the budget of three, so its check is
    # unknown; c1 (weight 1) ranks before it and c3 (weight 4) after it
    kb = parse_kb(BUDGET_KB)
    engine = ReasonEngine(kb)
    p = parse_formula("(p)", kb.sig)
    p_or_r = parse_formula("(or (p) (r))", kb.sig)
    v = engine.more_reasonable("a", "now", p, p_or_r)
    assert v.clause == "III"
    assert v.evidence["delta_left"].theta_labels == ("c1",)
    assert v.evidence["delta_right"].theta_labels == ("c1",)
    assert v.note == ""

    r = parse_formula("(r)", kb.sig)
    v = engine.more_reasonable("a", "now", r, p)
    assert v.evidence["delta_left"].theta_labels == ("c3",)
    assert v.note == SKIPPED

    # with no witness at all, every pair is tried and the note stands
    q = parse_formula("(q o1)", kb.sig)
    w = engine.delta("a", "now", q)
    assert w.theta_labels == ("+goal",)
    v = engine.more_reasonable("a", "now", q, p)
    assert v.note == SKIPPED


# ---------------------------------------------------------------------------
# the frame cache recomputes what the additions or the goal change

def _cold_proof(kb, agent, moment, goal, extra=()):
    prems = projection(kb, agent, moment, extra=extra)
    res = prove(prems, goal, depth=kb.params.proof_depth,
                universe=kb.universe(prems + (goal,)))
    return res.proof if res.outcome == "proved" else None


def test_candidate_prior_atom_extends_the_frame_order():
    kb = parse_kb(
        "(const a Agent)(const b Agent)(const now Moment)(const t1 Moment)"
        "(func p () Boolean)"
        "(axiom bp :certain (believes b t1 (p)))"
        "(candidate order (prior t1 now))"
    )
    goal = parse_formula("(believes b now (p))", kb.sig)
    engine = ReasonEngine(kb)
    assert engine.provable("a", "now", goal) is None
    assert _cold_proof(kb, "a", "now", goal) is None
    w = engine.delta("a", "now", goal)
    assert w.theta_labels == ("order",)
    assert w.distance == brute_force_delta(kb, "a", "now", goal) == 3
    cold = _cold_proof(kb, "a", "now", goal, extra=(kb.candidates[0].formula,))
    assert cold is not None
    assert w.proof == cold


def test_goal_numeral_moment_extends_the_frame_order():
    kb = parse_kb(
        "(const a Agent)(const b Agent)(const now Moment)"
        "(func p () Boolean)"
        "(axiom bp :certain (believes b 1 (p)))"
    )
    goal = parse_formula("(believes b 2 (p))", kb.sig)
    engine = ReasonEngine(kb)
    cold = _cold_proof(kb, "a", "now", goal)
    assert cold is not None
    assert engine.provable("a", "now", goal) == cold
    w = engine.delta("a", "now", goal)
    assert w.distance == brute_force_delta(kb, "a", "now", goal) == 0
    assert w.proof == cold


@pytest.mark.parametrize("named_by", [
    "",
    "(axiom k :certain (holds f 5))",
    "(candidate c1 (holds f 5))",
], ids=["nothing", "head", "addition"])
def test_every_numeral_moment_of_the_universe_is_ordered(named_by):
    # 5 is the KB's only numeral, and it is in the universe through the
    # `pr` entry even where no premise names it.  A proof orders it against
    # the goal's 3 and so lifts the percept to a belief at 5, as a cold
    # prove over the same universe does
    kb = parse_kb(
        "(const a Agent)(const now Moment)(const f Fluent)(func q () Boolean)"
        "(pr a 5 (q) 1/2)" + named_by
    )
    goal = parse_formula(
        "(implies (perceives a 3 (q)) (exists (t Moment) (believes a t (q))))", kb.sig
    )
    engine = ReasonEngine(kb)
    cold = _cold_proof(kb, "a", "now", goal)
    assert cold is not None
    assert engine.provable("a", "now", goal) == cold
    w = engine.delta("a", "now", goal)
    assert w.distance == 0
    assert w.proof == cold

from fractions import Fraction

import pytest

from mucal.errors import UnknownNameError
from mucal.kb import parse_kb
from mucal.logic import (
    And, App, Atom, Believes, Const, Not, Or, Perceives, expand_sugar,
    normalize,
)
from mucal.prover import ContextualizedFormula, contextualize, prove, rho
from mucal.reasonable import ReasonEngine
from mucal.syntax import parse_formula, print_formula
from oracles import truth_table_consistent, truth_table_entails

P = Atom(App("p", (), "Boolean"))
Q = Atom(App("q", (), "Boolean"))


def _lottery_axiom(kb):
    return [a.formula for a in kb.axioms]


# ---------------------------------------------------------------------------
# contextualize

def test_contextualize_nested_beliefs(rain_kb):
    f = parse_formula(
        "(believes john now (believes mary t1 (holds raining t1)))", rain_kb.sig
    )
    ctx = contextualize(f)
    assert len(ctx.context) == 2
    assert [fr.agent.name for fr in ctx.context] == ["john", "mary"]
    assert [fr.positive for fr in ctx.context] == [True, True]
    assert normalize(ctx.body) == normalize(
        parse_formula("(holds raining t1)", rain_kb.sig)
    )


def test_contextualize_identity_frame(rain_kb):
    f = parse_formula("(holds raining t1)", rain_kb.sig)
    ctx = contextualize(f)
    assert ctx.context == ()
    assert ctx.body == f


def test_contextualize_negative_polarity(rain_kb):
    f = parse_formula(
        "(not (believes john now (holds raining t1)))", rain_kb.sig
    )
    ctx = contextualize(f)
    assert len(ctx.context) == 1
    assert ctx.context[0].positive is False


def test_contextualize_compound_body_semantics(rain_kb):
    # a belief in a conjunction supports belief in each conjunct
    sig = rain_kb.sig
    f = parse_formula(
        "(believes john now (and (holds raining t1) (holds raining now)))", sig
    )
    ctx = contextualize(f)
    assert len(ctx.context) == 1
    goal = parse_formula("(believes john now (holds raining t1))", sig)
    res = prove((f,), goal, depth=2)
    assert res.outcome == "proved"


def test_contextualize_body_is_modal_free(rain_kb):
    f = parse_formula(
        "(believes john now (and (holds raining t1) "
        "(believes mary t1 (holds raining t1))))", rain_kb.sig
    )
    ctx = contextualize(f)
    from mucal.logic import MODAL, children

    def modal_free(g) -> bool:
        if isinstance(g, MODAL):
            return False
        return all(modal_free(c) for c in children(g))

    assert modal_free(ctx.body)


# ---------------------------------------------------------------------------
# prove

def test_prove_lottery_existential(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    res = prove(_lottery_axiom(lottery_kb), goal, depth=3)
    assert res.outcome == "proved"
    # oracle: semantic entailment over the ticket universe
    assert truth_table_entails(
        _lottery_axiom(lottery_kb), goal, lottery_kb.herbrand()
    )


def test_prove_nothing_from_empty():
    res = prove((), P, depth=3)
    assert res.outcome == "unknown"


def test_prove_negations_inconsistent_with_lottery(lottery_kb):
    sig = lottery_kb.sig
    negs = [parse_formula(f"(not (win ticket{i}))", sig) for i in range(1, 6)]
    gamma = _lottery_axiom(lottery_kb) + negs
    from mucal.logic import Falsum
    res = prove(gamma, Falsum(), depth=3)
    assert res.outcome == "proved"
    assert truth_table_consistent(gamma, lottery_kb.herbrand()) is False


def test_prove_for_agent_murder_with_theta1(murder_kb):
    goal = parse_formula("(murderer alice)", murder_kb.sig)
    theta1 = murder_kb.candidates[0].formula
    from mucal.prover import projection
    prems = projection(murder_kb, "s", "now", extra=(theta1,))
    res = prove(prems, goal, depth=3)
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
    res = prove(gamma, P, depth=2, refute=True)
    assert res.outcome == "refuted"
    assert normalize(res.proof.goal) == normalize(Not(P))


def test_prove_explosion():
    from mucal.logic import Falsum
    res = prove((P, Not(P)), Q, depth=2)
    assert res.outcome == "proved"


# ---------------------------------------------------------------------------
# derived modal rules

def test_rp_derived_rule(rain_kb):
    f = parse_formula(
        "(perceives mary t1 (holds raining t1))", rain_kb.sig
    )
    prior = parse_formula("(prior t1 now)", rain_kb.sig)
    goal = parse_formula("(believes mary now (holds raining t1))", rain_kb.sig)
    res = prove((f, prior), goal, depth=2)
    assert res.outcome == "proved"
    assert any(s.rule == "r_p" for s in res.proof.steps)


def test_rb_derived_rule(rain_kb):
    sig = rain_kb.sig
    b1 = parse_formula("(believes mary t1 (holds raining t1))", sig)
    prior = parse_formula("(prior t1 now)", sig)
    goal = parse_formula(
        "(believes mary now (exists (t) (holds raining t)))", sig
    )
    res = prove((b1, prior), goal, depth=2)
    assert res.outcome == "proved"
    assert any(s.rule == "r_b" for s in res.proof.steps)


# ---------------------------------------------------------------------------
# monotonicity and determinism

def test_monotonicity_on_lottery(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    base = _lottery_axiom(lottery_kb)
    assert prove(base, goal, depth=3).outcome == "proved"
    extra = parse_formula("(not (win ticket1))", lottery_kb.sig)
    assert prove(base + [extra], goal, depth=3).outcome == "proved"


def test_determinism_byte_identical(lottery_kb):
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    r1 = prove(_lottery_axiom(lottery_kb), goal, depth=3)
    r2 = prove(_lottery_axiom(lottery_kb), goal, depth=3)
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
    res = prove(_lottery_axiom(lottery_kb), goal, depth=3)
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

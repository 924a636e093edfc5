"""Property audits for the connective conditions on the comparison."""

from mucal import models
from mucal.kb import parse_kb
from mucal.logic import And
from mucal.prover import Proof, Step, rho
from mucal.reasonable import ReasonEngine
from mucal.syntax import parse_formula
from conftest import builtin_universe
from oracles import pi


def test_conjunction_condition_on_revision_clause(lottery_kb):
    # a conjunction more reasonable than a target forces each conjunct
    # to be more reasonable too
    engine = ReasonEngine(lottery_kb)
    sig = lottery_kb.sig
    conj = parse_formula("(and (not (win ticket1)) (not (win ticket2)))", sig)
    target = parse_formula("(not (exists (t) (win t)))", sig)
    v = engine.more_reasonable("a", "now", conj, target)
    assert v.holds and v.clause == "III"
    for text in ("(not (win ticket1))", "(not (win ticket2))"):
        part = engine.more_reasonable("a", "now", parse_formula(text, sig), target)
        assert part.holds, text


def test_conjunction_condition_on_cost_clause(murder_certain_kb):
    engine = ReasonEngine(murder_certain_kb)
    sig = murder_certain_kb.sig
    conj = parse_formula(
        "(and (murderer alice) (holds (owns alice) t3))", sig
    )
    # a target whose proof is strictly longer than the conjunction's
    longer = parse_formula(
        "(and (murderer alice) (holds (owns alice) t3) (holds (owns alice) t0)"
        " (implies (holds (owns alice) t0) (holds (owns alice) t3)))", sig
    )
    v = engine.more_reasonable("s", "now", conj, longer)
    if v.holds and v.clause == "II":
        for text in ("(murderer alice)", "(holds (owns alice) t3)"):
            part = engine.more_reasonable("s", "now",
                                          parse_formula(text, sig), longer)
            assert part.holds, text


def test_rho_one_extra_step_costs_one(murder_kb):
    goal = parse_formula("(holds (owns alice) t0)", murder_kb.sig)
    base = ReasonEngine(murder_kb).provable("s", "now", goal)
    padded = Proof(
        goal=base.goal,
        premises_used=base.premises_used,
        steps=base.steps + (Step(
            rule="and_intro", inputs=(len(base.steps) - 1,),
            formula=And((base.steps[-1].formula,)), assumptions=(),
        ),),
        depth=base.depth,
        universe=base.universe,
    )
    assert rho(padded) - rho(base) == 1


def test_witness_distance_equals_pi(murder_kb):
    engine = ReasonEngine(murder_kb)
    goal = parse_formula("(murderer alice)", murder_kb.sig)
    w = engine.delta("s", "now", goal)
    gamma = [a.formula for a in murder_kb.axioms]
    revised = [f for f in gamma] + [f for _, f in w.theta]
    removed = {label for label, _ in w.lam}
    revised = [
        a.formula for a in murder_kb.axioms if a.label not in removed
    ] + [f for _, f in w.theta]
    assert w.distance == pi(gamma, revised)


def test_consistent_on_axiom_sets():
    kb = parse_kb("(func p () Boolean)(axiom one (p))(axiom two (not (p)))")
    both = [a.formula for a in kb.axioms]
    assert models.consistent(both, 256, builtin_universe(both)) == "inconsistent"
    one = [kb.axioms[0].formula]
    assert models.consistent(one, 256, builtin_universe(one)) == "consistent"

import pytest

from mucal.errors import UnknownNameError
from mucal.eventcalc import background, ec_axioms
from mucal.kb import parse_kb
from mucal.logic import Not
from mucal.prover import prove
from mucal.syntax import parse_formula, print_formula
from mucal import models
from conftest import builtin_universe

INERTIAL_BASE = """
(param ec-flavor inertial)
(const e1 Event)
(const fl Fluent)
(const t1 Moment)
(const t2 Moment)
(prior t1 t2)
(axiom ev (happens e1 t1))
(axiom init (initiates e1 fl t1))
"""

CLIPPED_VARIANT = INERTIAL_BASE + """
(const e2 Event)
(axiom ev2 (happens e2 t1))
(axiom term (terminates e2 fl t1))
"""


def test_transitive_before():
    text = ("(const t0 Moment)(const t1 Moment)(const t3 Moment)"
            "(prior t0 t1)(prior t1 t3)")
    order = parse_kb(text).order()
    assert order.lt("t0", "t3")
    assert not order.lt("t3", "t0")


def test_before_irreflexive():
    order = parse_kb("(const t0 Moment)(const t1 Moment)(prior t0 t1)").order()
    assert not order.lt("t0", "t0")


def test_before_numeric():
    order = parse_kb("(prior 1 2)").order()
    assert order.lt("1", "2")
    assert not order.lt("2", "1")


def test_before_unknown_moment():
    kb = parse_kb("(const a Agent)(const t0 Moment)")
    assert kb.frame_terms("a", "t0")[1].name == "t0"
    with pytest.raises(UnknownNameError, match="unknown moment 'never'"):
        kb.frame_terms("a", "never")


def test_strict_partial_order_exhaustive(murder_kb):
    order = murder_kb.order()
    ms = order.moments
    for x in ms:
        assert not order.lt(x, x)
        for y in ms:
            if order.lt(x, y):
                assert not order.lt(y, x)
            for z in ms:
                if order.lt(x, y) and order.lt(y, z):
                    assert order.lt(x, z)


def test_minimal_flavor_has_no_clipped_schema():
    for f in ec_axioms("minimal"):
        assert "clipped" not in print_formula(f)
    assert ec_axioms("minimal") == ()


def test_inertial_holds_derivable():
    kb = parse_kb(INERTIAL_BASE)
    goal = parse_formula("(holds fl t2)", kb.sig)
    res = prove(kb.all_premises(), goal, depth=kb.params.proof_depth,
                universe=builtin_universe(kb.all_premises() + (goal,)))
    assert res.outcome == "proved"


def test_inertial_clipping_blocks():
    kb = parse_kb(CLIPPED_VARIANT)
    goal = parse_formula("(holds fl t2)", kb.sig)
    res = prove(kb.all_premises(), goal, depth=kb.params.proof_depth,
                universe=builtin_universe(kb.all_premises() + (goal,)))
    assert res.outcome == "unknown"


def test_inertial_clipping_blocks_oracle():
    # ground-model check: some model of the clipped KB falsifies the goal
    from oracles import truth_table_consistent
    kb = parse_kb(CLIPPED_VARIANT)
    goal = parse_formula("(holds fl t2)", kb.sig)
    sat = truth_table_consistent(
        kb.all_premises() + (Not(goal),), kb.herbrand(), atom_cap=24
    )
    assert sat is True


def test_inertial_consistent_standalone():
    kb = parse_kb("(param ec-flavor inertial)(const t1 Moment)")
    premises = kb.all_premises()
    assert models.consistent(premises, 256, builtin_universe(premises)) != models.INCONSISTENT


def test_initially_bridge():
    text = """
(param ec-flavor inertial)
(const t0 Moment)
(const t1 Moment)
(prior t0 t1)
(const fl Fluent)
(axiom start (initially fl))
"""
    kb = parse_kb(text)
    goal = parse_formula("(holds fl t1)", kb.sig)
    res = prove(kb.all_premises(), goal, depth=kb.params.proof_depth,
                universe=builtin_universe(kb.all_premises() + (goal,)))
    assert res.outcome == "proved"


def test_flavor_selected_by_param():
    kb = parse_kb("(param ec-flavor inertial)(const t1 Moment)")
    assert any("holds" in print_formula(f) for f in background(kb))
    kb2 = parse_kb("(const t1 Moment)")
    assert all("holds" not in print_formula(f) for f in background(kb2))

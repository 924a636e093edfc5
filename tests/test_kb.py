import os
from fractions import Fraction

import pytest

from mucal.errors import KbError, ParseError
from mucal.kb import _HERBRAND_CAP, parse_kb, widen_universe
from mucal.logic import Const, Signature, well_sorted
from mucal.reasonable import ReasonEngine
from mucal.syntax import parse_formula, print_term
from conftest import SCENARIOS, scenario_path

LOTTERY_SNIPPET = """
(const a Agent)
(const now Moment)
(const ticket1 Object)
(const ticket2 Object)
(const ticket3 Object)
(const ticket4 Object)
(const ticket5 Object)
(func win (Object) Boolean)
(axiom someone-wins :certain
  (xor (win ticket1) (win ticket2) (win ticket3) (win ticket4) (win ticket5)))
(pr a now (win ticket1) 1/5)
(pr a now (win ticket2) 1/5)
(pr a now (win ticket3) 1/5)
(pr a now (win ticket4) 1/5)
(pr a now (win ticket5) 1/5)
"""


def test_lottery_snippet_loads():
    kb = parse_kb(LOTTERY_SNIPPET)
    assert len(kb.axioms) == 1
    assert kb.axioms[0].certain
    assert len(kb.prob_entries) == 5
    assert all(e.value == Fraction(1, 5) for e in kb.prob_entries)
    assert kb.agents() == ["a"]
    assert kb.params.u == 2


def test_empty_file_defaults():
    kb = parse_kb("")
    assert kb.axioms == []
    assert kb.params.u == 2
    assert kb.params.ec_flavor == "minimal"


def test_comments_ignored():
    kb = parse_kb("; a comment line\n(func p () Boolean)\n(axiom one (p)) ; trailing\n")
    assert len(kb.axioms) == 1


def test_probability_out_of_range():
    with pytest.raises(ParseError) as e:
        parse_kb("(const a Agent)(const now Moment)(func p () Boolean)"
                 "(pr a now (p) 1.2)")
    assert "range" in str(e.value)


def test_duplicate_labels_rejected():
    with pytest.raises(ParseError) as e:
        parse_kb("(func p () Boolean)(axiom twice (p))(axiom twice (not (p)))")
    assert "duplicate" in str(e.value)


def test_duplicate_probability_key_rejected():
    text = ("(const a Agent)(const now Moment)(func p () Boolean)"
            "(pr a now (p) 1/2)(pr a now (p) 1/3)")
    with pytest.raises(ParseError) as e:
        parse_kb(text)
    assert "duplicate" in str(e.value)


def test_undeclared_symbol_in_axiom():
    with pytest.raises(ParseError):
        parse_kb("(axiom bad (mystery))")


def test_param_parsing():
    kb = parse_kb("(param u 4)(param proof-depth 5)(param add-max 1)"
                  "(param remove-max 0)(param consistency-depth 99)"
                  "(param ec-flavor inertial)")
    assert kb.params.u == 4
    assert kb.params.proof_depth == 5
    assert kb.params.add_max == 1
    assert kb.params.remove_max == 0
    assert kb.params.consistency_depth == 99
    assert kb.params.ec_flavor == "inertial"


def test_unknown_param_rejected():
    with pytest.raises(ParseError):
        parse_kb("(param widget 3)")


def test_moment_cycle_rejected():
    for cycle in ("(prior t1 t2)(prior t2 t1)",
                  "(axiom c :certain (and (prior t1 t2) (prior t2 t1)))"):
        with pytest.raises(KbError):
            parse_kb("(const t1 Moment)(const t2 Moment)" + cycle)


@pytest.mark.parametrize("stated", ["(prior t1 t2)", "(axiom o :certain (prior t1 t2))"])
def test_the_order_reads_prior_forms_and_certain_axioms(stated):
    # every agent holds the certain axioms, so a belief at t1 is held at t2
    kb = parse_kb(
        "(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)"
        + stated + "(axiom b (believes a t1 (p)))"
    )
    assert kb.order().lt("t1", "t2")
    assert ReasonEngine(kb).delta("a", "t2", parse_formula("(p)", kb.sig)).distance == 0


def test_prior_contradicting_numeric_order():
    with pytest.raises(KbError):
        parse_kb("(prior 2 1)")


def test_the_order_is_over_the_herbrand_moments():
    # a numeral only a `pr` entry names, and a constant of a subsort of
    # Moment, are moments; a frame at the subsort moment reads the axioms
    # that name it
    kb = parse_kb(
        "(sort Day Moment)(const d1 Day)(const now Moment)(const a Agent)"
        "(func p () Boolean)(pr a 5 (p) 1/2)(axiom x (believes a d1 (p)))"
    )
    assert kb.order().moments == ["5", "d1", "now"]
    assert kb.frame_terms("a", "d1")[1] == Const("d1", "Day")
    from mucal.prover import held_axioms
    assert [print_term(f.term) for f in held_axioms(kb, "a", "d1")] == ["p"]


@pytest.mark.parametrize("text", [
    "(sort Instant Moment)(const i0 Instant)(const i1 Instant)(prior i0 i1)",
    "(sort Instant Moment)(const i0 Instant)(const a Agent)(func p () Boolean)"
    "(pr a i0 (p) 1/2)",
], ids=["prior", "pr"])
def test_a_subsort_moment_is_a_moment_in_prior_and_pr_forms(text):
    kb = parse_kb(text)
    assert "i0" in kb.order().moments


def test_certain_flag_and_removability():
    kb = parse_kb("(func p () Boolean)(func q () Boolean)"
                  "(axiom fixed :certain (p))(axiom loose (q))")
    assert [a.label for a in kb.certain_axioms()] == ["fixed"]
    assert [a.label for a in kb.removable_axioms()] == ["loose"]


def test_herbrand_closure_includes_fluent_terms(murder_kb):
    fluents = murder_kb.herbrand()["Fluent"]
    names = {str(t) for t in fluents}
    assert len(fluents) == 3  # owns(alice), owns(bob), owns(s)
    assert murder_kb.finitely_ground()


def _object_names(kb):
    return {print_term(t) for t in kb.herbrand()["Object"]}


def test_herbrand_round_cap_keeps_four_rounds():
    # one constant and a binary function: 1, 2, 5, 26 and then 677 terms
    kb = parse_kb("(const c Object)(func g (Object Object) Object)")
    assert len(kb.herbrand()["Object"]) == 677
    assert not kb.finitely_ground()


def test_herbrand_function_applied_later_in_a_round_sees_earlier_terms():
    # g, applied after f in each round, also sees that round's f terms: 88
    # terms after four rounds, where fixed per-round pools would give 31
    kb = parse_kb("(const c Object)(func f (Object) Object)(func g (Object) Object)")
    assert len(kb.herbrand()["Object"]) == 88
    assert "(g (f c))" in _object_names(kb)
    assert not kb.finitely_ground()


def test_herbrand_closure_stops_at_its_size_cap():
    # unbounded, the fourth round would square 1,446 terms into 2,090,918
    kb = parse_kb("(const c Object)(const d Object)(func g (Object Object) Object)"
                  "(func p (Object) Boolean)(axiom a1 (p c))")
    names = _object_names(kb)
    assert len(names) <= _HERBRAND_CAP
    assert {"c", "d", "(g c c)"} <= names
    assert not kb.finitely_ground()


def test_widen_universe_returns_its_input_when_nothing_is_new():
    kb = parse_kb(LOTTERY_SNIPPET)
    u = kb.herbrand()
    assert widen_universe(u, {}) is u
    assert widen_universe(u, {"Object": u["Object"][1:3]}) is u
    assert kb.universe(tuple(a.formula for a in kb.axioms)) is u


def test_widen_universe_with_a_new_term_gives_a_new_dict_in_print_order():
    kb = parse_kb(LOTTERY_SNIPPET)
    u = kb.herbrand()
    before = dict(u)
    t0 = Const("ticket0", "Object")
    wider = widen_universe(u, {"Object": (t0,), "Moment": u["Moment"]})
    assert wider is not u and u == before
    assert [print_term(t) for t in wider["Object"]] == [f"ticket{i}" for i in range(6)]
    assert wider["Moment"] == u["Moment"]


# a moment declared at a subsort of Moment, with the inertial background
SUBSORT_MOMENT_KB = ("(sort Instant Moment)(const i0 Instant)(const a Agent)"
                     "(const f0 Fluent)(param ec-flavor inertial)")


def _scenario_text(name):
    with open(scenario_path(name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("text", [
    *(pytest.param(_scenario_text(n), id=n)
      for n in sorted(os.listdir(SCENARIOS)) if n.endswith(".kb")),
    pytest.param(SUBSORT_MOMENT_KB, id="subsort-moment"),
])
def test_the_background_is_well_sorted_and_adds_no_term_to_the_universe(text):
    kb = parse_kb(text)
    assert all(well_sorted(f, kb.sig) for f in kb.background())
    assert kb.universe(kb.background()) is kb.herbrand()
    assert "Boolean" not in kb.herbrand()
    assert kb.background() is kb.background()  # built once


def test_a_subsort_moment_keeps_its_declared_sort():
    kb = parse_kb(SUBSORT_MOMENT_KB)
    i0 = Const("i0", "Instant")
    assert kb.herbrand()["Moment"] == (i0,)
    assert kb.moment("i0") is i0 and kb.frame_terms("a", "i0")[1] is i0


@pytest.mark.parametrize("text", [
    "(axiom x (forall (p Boolean) p))",
    "(func f (Boolean) Object)",
], ids=["binder", "func-argument"])
def test_boolean_is_the_sort_of_formulas_not_of_terms(text):
    with pytest.raises(ParseError, match="Boolean is the sort of formulas"):
        parse_kb(text)


def test_a_boolean_binder_is_a_parse_error_on_its_own():
    with pytest.raises(ParseError, match="'p' is bound at Boolean; Boolean is the sort of formulas"):
        parse_formula("(forall (p Boolean) p)", Signature())


def test_candidate_formulas_validated():
    with pytest.raises(ParseError):
        parse_kb("(candidate c1 (win ticket9))")


@pytest.mark.parametrize("text", [
    "(prior --3 4)",
    "(const t Moment)(prior t ²)",
    "(param u ²)",
    "(func p (Moment) Boolean)(axiom a (p 01))(axiom b (p 1))",
    "(prior -0 0)",
], ids=["double-minus", "superscript-moment", "superscript-param",
        "leading-zero", "minus-zero"])
def test_malformed_numeral_is_parse_error(text):
    # a numeral is one optional '-' followed by ASCII digits, spelled as
    # `str(int(...))` spells it, so one value is one moment
    with pytest.raises(ParseError) as e:
        parse_kb(text)
    assert e.value.line == 1 and e.value.col >= 1

import pytest

from mucal.errors import OrderingError, ProofError, UnknownNameError
from mucal.kb import parse_kb
from mucal.logic import Falsum, StrengthLevel, formula_key
from mucal.strength import (
    BeliefStore, StrengthEngine, StrengthJudgment, TrailEntry,
    check_subsumption, explain,
)
from mucal.syntax import parse_formula


def _judgment(kb, agent, moment, text, level):
    f = parse_formula(text, kb.sig)
    return StrengthJudgment(
        agent, moment, f, StrengthLevel(level),
        frozenset(range(1, level + 1)),
        (TrailEntry("store", "test fixture", level),),
    )


# ---------------------------------------------------------------------------
# subsumption check

def test_check_subsumption_gap_flagged(lottery_kb):
    f = parse_formula("(win ticket1)", lottery_kb.sig)
    j = StrengthJudgment("a", "now", f, StrengthLevel.CERTAIN,
                         frozenset({1, 2, 3, 5}), ())
    assert not check_subsumption(j)


def test_check_subsumption_closed(lottery_kb):
    f = parse_formula("(win ticket1)", lottery_kb.sig)
    j = StrengthJudgment("a", "now", f, StrengthLevel.BEYOND_REASONABLE_DOUBT,
                         frozenset({1, 2, 3}), ())
    assert check_subsumption(j)


def test_check_subsumption_vacuous(lottery_kb):
    f = parse_formula("(win ticket1)", lottery_kb.sig)
    j = StrengthJudgment("a", "now", f, StrengthLevel.NONE, frozenset(), ())
    assert check_subsumption(j)


# ---------------------------------------------------------------------------
# classify

def test_lottery_classify_levels(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    engine.saturate(3, agent="a", moment="now")
    j5 = engine.classify("a", "now", parse_formula("(exists (t) (win t))", lottery_kb.sig))
    assert int(j5.level) == 5
    j2 = engine.classify("a", "now",
                         parse_formula("(not (exists (t) (win t)))", lottery_kb.sig))
    assert int(j2.level) == 2
    for j in (j5, j2):
        assert check_subsumption(j)


def test_murder_classify_presumption(murder_kb):
    engine = StrengthEngine(murder_kb)
    engine.saturate(3, agent="s", moment="now")
    j = engine.classify("s", "now", parse_formula("(murderer alice)", murder_kb.sig))
    assert int(j.level) == 2
    # decided by the revision clause with the persistence candidate
    b2 = [t for t in j.trail if t.verdict is not None and t.level == 2]
    assert b2 and b2[0].verdict.clause == "III"
    assert b2[0].verdict.evidence["delta_left"].theta_labels == ("theta1",)


def test_murder_certain_classify(murder_certain_kb):
    engine = StrengthEngine(murder_certain_kb)
    engine.saturate(3, agent="s", moment="now")
    j = engine.classify("s", "now",
                        parse_formula("(murderer alice)", murder_certain_kb.sig))
    assert int(j.level) >= 3
    w = engine.reason.delta("s", "now",
                            parse_formula("(murderer alice)", murder_certain_kb.sig))
    assert w.distance == 0


def test_classify_unknown_agent(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    with pytest.raises(UnknownNameError):
        engine.classify("nobody", "now", parse_formula("(win ticket1)", lottery_kb.sig))


def test_pool_growth_never_upgrades_to_certain(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    engine.saturate(3, agent="a", moment="now")
    f = parse_formula("(not (win ticket1))", lottery_kb.sig)
    small_pool = [parse_formula("(win ticket2)", lottery_kb.sig)]
    big_pool = small_pool + [
        parse_formula("(win ticket3)", lottery_kb.sig),
        parse_formula("(exists (t) (win t))", lottery_kb.sig),
    ]
    j_small = engine.classify("a", "now", f, pool=small_pool)
    j_big = engine.classify("a", "now", f, pool=big_pool)
    if 5 not in j_small.satisfied_levels:
        assert 5 not in j_big.satisfied_levels


def test_seeding_stores_no_level_above_beyond_reasonable_doubt():
    # (p) reaches level 3 only through its declared probability; the
    # certain (q) is more reasonable to believe, so (p) is evident, not
    # certain, and seeding (which has no pool) stores level 3 only
    kb = parse_kb(
        "(const a Agent)(const now Moment)(func p () Boolean)(func q () Boolean)"
        "(axiom aq :certain (q))(pr a now (p) 1)(candidate c (p))"
    )
    engine = StrengthEngine(kb)
    engine.saturate(3, agent="a", moment="now")
    p = parse_formula("(p)", kb.sig)
    assert int(engine.store.get("a", "now", formula_key(p)).level) == 3
    j = engine.classify("a", "now", p)
    assert int(j.level) == 4
    assert j.satisfied_levels == frozenset({1, 2, 3, 4})


# ---------------------------------------------------------------------------
# perception lifting

def test_rsp_rain_example(rain_kb):
    engine = StrengthEngine(rain_kb)
    percept = parse_formula(
        "(perceives mary t1 (holds raining t1))", rain_kb.sig
    )
    j = engine.infer_rsp(percept, "now")
    assert int(j.level) == 5
    assert j.agent == "mary" and j.moment == "now"


def test_rsp_strict_order_required(rain_kb):
    engine = StrengthEngine(rain_kb)
    percept = parse_formula(
        "(perceives mary t1 (holds raining t1))", rain_kb.sig
    )
    with pytest.raises(OrderingError):
        engine.infer_rsp(percept, "t1")


def test_rsp_feeds_pool_check(rain_kb):
    # percept-derived certainty participates in the evident-level pool scan
    engine = StrengthEngine(rain_kb)
    engine.saturate(2, agent="mary", moment="now")
    content = parse_formula("(holds raining t1)", rain_kb.sig)
    j = engine.classify("mary", "now", content)
    assert int(j.level) == 5
    stored = engine.store.get("mary", "now", formula_key(content))
    assert stored is not None and int(stored.level) == 5


# ---------------------------------------------------------------------------
# level propagation

def test_rsb_equal_levels(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    p1 = _judgment(lottery_kb, "a", "now", "(win ticket1)", 5)
    p2 = _judgment(lottery_kb, "a", "now", "(win ticket2)", 5)
    conc = parse_formula("(and (win ticket1) (win ticket2))", lottery_kb.sig)
    j = engine.infer_rsb([p1, p2], conc, "now")
    assert j is not None and int(j.level) == 5


def test_rsb_guard_blocks_level_gap(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    s3 = _judgment(lottery_kb, "a", "now", "(exists (t) (win t))", 5)
    s4 = _judgment(lottery_kb, "a", "now", "(not (exists (t) (win t)))", 2)
    j = engine.infer_rsb([s3, s4], Falsum(), "now")
    assert j is None
    assert any("spread 3 > u = 2" in d for d in engine.store.diagnostics)


def test_rsb_u3_fires_but_store_rejects(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    s3 = _judgment(lottery_kb, "a", "now", "(exists (t) (win t))", 5)
    s4 = _judgment(lottery_kb, "a", "now", "(not (exists (t) (win t)))", 2)
    j = engine.infer_rsb([s3, s4], Falsum(), "now", u=3)
    assert j is not None and int(j.level) == 2
    assert not engine.store.add(j)
    assert any("falsum" in d for d in engine.store.diagnostics)


def test_rsb_underivable_conclusion_raises(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    p1 = _judgment(lottery_kb, "a", "now", "(win ticket1)", 5)
    with pytest.raises(ProofError):
        engine.infer_rsb([p1], parse_formula("(win ticket2)", lottery_kb.sig), "now")


def test_rsb_guard_arithmetic_exhaustive(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    p = "(win ticket1)"
    q = "(win ticket2)"
    conc = parse_formula(f"(and {p} {q})", lottery_kb.sig)
    for s1 in range(1, 6):
        for s2 in range(1, 6):
            for u in range(0, 5):
                premises = [
                    _judgment(lottery_kb, "a", "now", p, s1),
                    _judgment(lottery_kb, "a", "now", q, s2),
                ]
                j = engine.infer_rsb(premises, conc, "now", u=u)
                if abs(s1 - s2) <= u:
                    assert j is not None and int(j.level) == min(s1, s2)
                else:
                    assert j is None


# ---------------------------------------------------------------------------
# saturation

def test_saturate_zero_rounds_seeds_percepts(rain_kb):
    # `--rounds 0` runs no propagation pass, but still seeds the certain
    # axioms and lifts the percepts
    store = StrengthEngine(rain_kb).saturate(0, agent="mary", moment="now")
    key = formula_key(parse_formula("(holds raining t1)", rain_kb.sig))
    assert list(store.judged) == [("mary", "now", key)]
    j = store.get("mary", "now", key)
    assert int(j.level) == 5
    assert [t.kind for t in j.trail] == ["rsp"]


def test_saturate_lottery_two_rounds(lottery_kb):
    store = StrengthEngine(lottery_kb).saturate(2, agent="a", moment="now")
    key5 = formula_key(parse_formula("(exists (t) (win t))", lottery_kb.sig))
    key2 = formula_key(parse_formula("(not (exists (t) (win t)))", lottery_kb.sig))
    assert int(store.get("a", "now", key5).level) == 5
    assert int(store.get("a", "now", key2).level) == 2
    falsum_key = formula_key(Falsum())
    assert store.get("a", "now", falsum_key) is None


def test_saturate_fixpoint_on_corpus(lottery_kb, murder_kb, rain_kb):
    frames = {
        id(lottery_kb): ("a", "now"),
        id(murder_kb): ("s", "now"),
        id(rain_kb): ("mary", "now"),
    }
    for kb in (lottery_kb, murder_kb, rain_kb):
        agent, moment = frames[id(kb)]
        engine = StrengthEngine(kb)
        engine.saturate(3, agent=agent, moment=moment)
        snapshot = {
            k: int(j.level) for k, j in engine.store.judged.items()
        }
        engine.saturate(3, agent=agent, moment=moment)
        after = {k: int(j.level) for k, j in engine.store.judged.items()}
        assert snapshot == after


def test_belief_consistency_after_saturation(lottery_kb):
    store = StrengthEngine(lottery_kb).saturate(3, agent="a", moment="now")
    from mucal.logic import negation_of
    for (agent, moment, key), j in store.judged.items():
        neg_key = formula_key(negation_of(j.formula))
        rival = store.get(agent, moment, neg_key)
        if rival is not None:
            assert rival.level != j.level


# ---------------------------------------------------------------------------
# store

def test_store_rejects_same_level_conflict(lottery_kb):
    store = BeliefStore()
    assert store.add(_judgment(lottery_kb, "a", "now", "(win ticket1)", 3))
    rival = _judgment(lottery_kb, "a", "now", "(not (win ticket1))", 3)
    assert not store.add(rival)
    assert store.diagnostics


def test_store_allows_distinct_levels(lottery_kb):
    store = BeliefStore()
    assert store.add(_judgment(lottery_kb, "a", "now", "(exists (t) (win t))", 5))
    assert store.add(_judgment(lottery_kb, "a", "now",
                               "(not (exists (t) (win t)))", 2))


def test_store_upgrade_keeps_max(lottery_kb):
    store = BeliefStore()
    store.add(_judgment(lottery_kb, "a", "now", "(win ticket1)", 2))
    store.add(_judgment(lottery_kb, "a", "now", "(win ticket1)", 4))
    store.add(_judgment(lottery_kb, "a", "now", "(win ticket1)", 1))
    key = formula_key(parse_formula("(win ticket1)", lottery_kb.sig))
    assert int(store.get("a", "now", key).level) == 4


# ---------------------------------------------------------------------------
# explanations

def test_explain_murder_presumption(murder_kb):
    engine = StrengthEngine(murder_kb)
    engine.saturate(3, agent="s", moment="now")
    j = engine.classify("s", "now", parse_formula("(murderer alice)", murder_kb.sig))
    report = explain(j)
    assert report["level"] == 2
    assert "some presumption in favor" in report["headline"]
    assert "more reasonable than believing its negation" in report["headline"]
    level2 = [d for d in report["details"]
              if d.get("satisfied") and "level 2" in d["comparison"]]
    assert level2 and "theta1" in level2[0]["evidence"]
    assert "theta2a" in level2[0]["evidence"]


def test_explain_percept_certainty(rain_kb):
    engine = StrengthEngine(rain_kb)
    percept = parse_formula("(perceives mary t1 (holds raining t1))", rain_kb.sig)
    j = engine.infer_rsp(percept, "now")
    report = explain(j)
    assert report["level"] == 5
    assert any("perceived at t1" in d["comparison"] for d in report["details"])


def test_explain_blocked_guard(lottery_kb):
    engine = StrengthEngine(lottery_kb)
    s3 = _judgment(lottery_kb, "a", "now", "(exists (t) (win t))", 5)
    s4 = _judgment(lottery_kb, "a", "now", "(not (exists (t) (win t)))", 2)
    engine.infer_rsb([s3, s4], Falsum(), "now")
    assert any("spread 3 > u = 2" in d for d in engine.store.diagnostics)


# ---------------------------------------------------------------------------
# audits from the design conditions

def test_cb1_audit_on_corpus(murder_kb, lottery_kb):
    # where believing beats believing the negation, believing also beats
    # not believing
    cases = [
        (murder_kb, "s", "now", "(murderer alice)"),
        (lottery_kb, "a", "now", "(not (win ticket1))"),
    ]
    from mucal.logic import Believes, Const, Not
    for kb, agent, moment, text in cases:
        engine = StrengthEngine(kb)
        f = parse_formula(text, kb.sig)
        a_t = Const(agent, kb.sig.constants[agent])
        m_t = Const(moment, "Moment")
        bel = Believes(a_t, m_t, f)
        bel_neg = Believes(a_t, m_t, Not(f))
        b2 = engine.reason.more_reasonable(agent, moment, bel, bel_neg)
        assert b2.holds
        not_bel = Not(bel)
        cb1 = engine.reason.more_reasonable(agent, moment, bel, not_bel)
        assert cb1.holds


def test_saturate_stores_only_the_frame():
    # two agents perceive at t1; the frame (mary, t2) reads only mary's
    # judgments at t2 or earlier, so nothing else is stored
    kb = parse_kb(
        "(const mary Agent)(const john Agent)"
        "(const t1 Moment)(const t2 Moment)(const now Moment)"
        "(prior t1 t2)(prior t2 now)"
        "(const raining Fluent)(const cold Fluent)"
        "(axiom sky :certain (holds cold t1))"
        "(axiom mary-saw (perceives mary t1 (holds raining t1)))"
        "(axiom john-saw (perceives john t1 (holds raining t1)))"
    )
    store = StrengthEngine(kb).saturate(0, agent="mary", moment="t2")
    assert sorted((a, m) for a, m, _ in store.judged) == [
        ("mary", "t1"), ("mary", "t2"), ("mary", "t2"),
    ]
    rain = formula_key(parse_formula("(holds raining t1)", kb.sig))
    assert [t.kind for t in store.get("mary", "t2", rain).trail] == ["rsp"]

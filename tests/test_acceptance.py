"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are exact unless stated; timings use a monotonic clock.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from mucal.checker import check_proof
from mucal.errors import CheckError
from mucal.kb import load_kb, parse_kb
from mucal.logic import Falsum, Signature, formula_key
from mucal.reasonable import ReasonEngine
from mucal.strength import StrengthEngine, check_subsumption
from mucal.syntax import parse_formula
from conftest import scenario_path
from oracles import brute_force_delta

from test_checker import corpus_proofs, _corrupt
from test_syntax import random_formula


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


# ---------------------------------------------------------------------------
# random KB generation shared by criteria 3, 4 and 5

def random_kb_text(rng: random.Random) -> str:
    n_atoms = rng.randrange(2, 7)
    atoms = [f"p{i}" for i in range(1, n_atoms + 1)]
    lines = ["(const a Agent)", "(const now Moment)"]
    lines += [f"(func {p} () Boolean)" for p in atoms]

    def formula(depth):
        if depth == 0 or rng.random() < 0.4:
            p = rng.choice(atoms)
            return f"(not ({p}))" if rng.random() < 0.4 else f"({p})"
        kind = rng.randrange(4)
        a, b = formula(depth - 1), formula(depth - 1)
        if kind == 0:
            return f"(and {a} {b})"
        if kind == 1:
            return f"(or {a} {b})"
        if kind == 2:
            return f"(implies {a} {b})"
        return f"(not {a})"

    for i in range(rng.randrange(0, 4)):
        flag = " :certain" if rng.random() < 0.3 else ""
        lines.append(f"(axiom ax{i}{flag} {formula(2)})")
    tabled = rng.sample(atoms, k=min(len(atoms), rng.randrange(0, 4)))
    for p in tabled:
        lines.append(f"(pr a now ({p}) {rng.randrange(0, 9)}/8)")
    for i in range(rng.randrange(0, 5)):
        lines.append(f"(candidate c{i} {formula(1)})")
    return "\n".join(lines)


def random_kbs(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = random_kb_text(rng)
        try:
            out.append((parse_kb(text), rng))
        except Exception:
            continue
    return out


# ---------------------------------------------------------------------------
# 1. lottery resolution

def test_acceptance_1_lottery_resolution():
    start = time.monotonic()
    kb = load_kb(scenario_path("lottery5.kb"))
    engine = StrengthEngine(kb)
    engine.saturate(3, agent="a", moment="now")

    j5 = engine.classify("a", "now", parse_formula("(exists (t) (win t))", kb.sig))
    assert int(j5.level) == 5

    j2 = engine.classify("a", "now",
                         parse_formula("(not (exists (t) (win t)))", kb.sig))
    assert int(j2.level) == 2

    falsum_key = formula_key(Falsum())
    for (agent, moment, key), j in engine.store.judged.items():
        assert key != falsum_key
    from mucal.logic import negation_of
    for (agent, moment, key), j in engine.store.judged.items():
        neg = engine.store.get(agent, moment,
                               formula_key(negation_of(j.formula)))
        assert neg is None or neg.level != j.level

    # full-scale table entry, probability clause only
    full = load_kb(scenario_path("lottery_full.kb"))
    fe = ReasonEngine(full)
    v = fe.more_reasonable(
        "a", "now",
        parse_formula("(believes a now (not (win ticket1)))", full.sig),
        parse_formula("(believes a now (win ticket1))", full.sig),
    )
    assert v.holds and v.clause == "I"
    assert v.evidence["pr_left"] == 1 - Fraction(1, 10**12)
    assert v.evidence["pr_right"] == Fraction(1, 10**12)

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"lottery resolution took {elapsed:.2f}s"
    _report(1, "lottery resolution")


# ---------------------------------------------------------------------------
# 2. murder presumption

def test_acceptance_2_murder_presumption():
    start = time.monotonic()
    kb = load_kb(scenario_path("murder.kb"))
    goal = parse_formula("(murderer alice)", kb.sig)
    neg = parse_formula("(not (murderer alice))", kb.sig)

    engine = StrengthEngine(kb)
    engine.saturate(3, agent="s", moment="now")
    j = engine.classify("s", "now", goal)
    assert int(j.level) == 2
    deciding = [t for t in j.trail if t.level == 2 and t.verdict is not None]
    assert deciding and deciding[0].verdict.clause == "III"
    witness = deciding[0].verdict.evidence["delta_left"]
    assert witness.theta_labels == ("theta1",)

    w_pos = engine.reason.delta("s", "now", goal)
    w_neg = engine.reason.delta("s", "now", neg)
    assert w_pos.distance < w_neg.distance

    certain = load_kb(scenario_path("murder_certain.kb"))
    engine2 = StrengthEngine(certain)
    engine2.saturate(3, agent="s", moment="now")
    j2 = engine2.classify("s", "now", parse_formula("(murderer alice)", certain.sig))
    assert int(j2.level) >= 3
    w2 = engine2.reason.delta("s", "now",
                              parse_formula("(murderer alice)", certain.sig))
    assert w2.distance == 0 and w2.theta == () and w2.lam == ()

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"murder presumption took {elapsed:.2f}s"
    _report(2, "murder presumption")


# ---------------------------------------------------------------------------
# 3. subsumption theorem property suite

def test_acceptance_3_subsumption_suite():
    violations = 0
    checked = 0

    corpus = [
        ("lottery5.kb", "a", "now",
         ["(exists (t) (win t))", "(not (exists (t) (win t)))",
          "(win ticket1)", "(not (win ticket1))"]),
        ("murder.kb", "s", "now",
         ["(murderer alice)", "(not (murderer alice))", "(murderer bob)"]),
        ("murder_certain.kb", "s", "now", ["(murderer alice)"]),
        ("counterfactual.kb", "a", "t2", ["(holds f t1)", "(holds g t1)"]),
        ("rain.kb", "mary", "now", ["(holds raining t1)"]),
    ]
    for name, agent, moment, texts in corpus:
        kb = load_kb(scenario_path(name))
        engine = StrengthEngine(kb)
        engine.saturate(3, agent=agent, moment=moment)
        for text in texts:
            j = engine.classify(agent, moment, parse_formula(text, kb.sig))
            checked += 1
            if not check_subsumption(j):
                violations += 1

    for kb, rng in random_kbs(seed=1108, count=200):
        engine = StrengthEngine(kb)
        engine.saturate(2, agent="a", moment="now")
        # levels 4 and 5 need a pool, which only classify has
        assert all(
            int(j.level) <= 3 for j in engine.store.judged.values()
            if all(t.kind == "cascade" for t in j.trail)
        )
        local = random.Random(rng.randrange(2**32))
        targets = []
        for _ in range(2):
            p = f"p{local.randrange(1, 3)}"
            text = f"({p})" if local.random() < 0.5 else f"(not ({p}))"
            targets.append(parse_formula(text, kb.sig))
        for goal in targets:
            j = engine.classify("a", "now", goal)
            checked += 1
            if not check_subsumption(j):
                violations += 1

    assert checked >= 200 + 11
    assert violations == 0
    _report(3, f"subsumption suite, {checked} classifications")


# ---------------------------------------------------------------------------
# 4. ordering axiom suite

def _decided_pairs(engine, agent, moment, items):
    verdicts = {}
    for i, f in enumerate(items):
        for j, g in enumerate(items):
            if i != j:
                verdicts[(i, j)] = engine.more_reasonable(agent, moment, f, g)
    return verdicts


def test_acceptance_4_ordering_axioms():
    suites = []
    corpus = [
        ("lottery5.kb", "a", "now",
         ["(win ticket1)", "(not (win ticket1))", "(win ticket2)",
          "(not (win ticket2))", "(exists (t) (win t))",
          "(not (exists (t) (win t)))"]),
        ("murder.kb", "s", "now",
         ["(murderer alice)", "(not (murderer alice))", "(murderer bob)",
          "(holds (owns alice) t0)", "(holds (owns alice) t3)"]),
        ("counterfactual.kb", "a", "t2",
         ["(holds f t1)", "(holds g t1)", "(not (holds f t1))"]),
    ]
    for name, agent, moment, texts in corpus:
        kb = load_kb(scenario_path(name))
        items = [parse_formula(t, kb.sig) for t in texts]
        suites.append((ReasonEngine(kb), agent, moment, items, kb))

    rng = random.Random(907)
    for kb, _ in random_kbs(seed=907, count=40):
        atoms = sorted(n for n in kb.sig.functions
                       if n.startswith("p") and not kb.sig.functions[n][0])
        texts = []
        for p in atoms[:3]:
            texts.append(f"({p})")
            texts.append(f"(not ({p}))")
        items = [parse_formula(t, kb.sig) for t in texts]
        suites.append((ReasonEngine(kb), "a", "now", items, kb))

    decided = 0
    triples_checked = 0
    for engine, agent, moment, items, kb in suites:
        verdicts = _decided_pairs(engine, agent, moment, items)
        for f in items:
            assert not engine.more_reasonable(agent, moment, f, f).holds
        for (i, j), v in verdicts.items():
            if v.holds:
                decided += 1
                assert not verdicts[(j, i)].holds, "asymmetry breach"
        n = len(items)
        for i, j, k in permutations(range(n), 3):
            vij, vjk, vik = verdicts[(i, j)], verdicts[(j, k)], verdicts[(i, k)]
            if vij.holds and vjk.holds and vij.clause == vjk.clause == vik.clause:
                triples_checked += 1
                assert vik.holds, "within-clause transitivity breach"
        # the falsum floor
        for f in items:
            up = engine.more_reasonable(agent, moment, f, Falsum())
            down = engine.more_reasonable(agent, moment, Falsum(), f)
            assert not down.holds
            if up.clause != "inapplicable":
                assert up.holds

    assert decided >= 50
    assert triples_checked >= 5
    _report(4, f"ordering axioms, {decided} decided pairs, "
               f"{triples_checked} transitivity triples")


# ---------------------------------------------------------------------------
# 5. delta oracle equivalence

def test_acceptance_5_delta_oracle():
    start = time.monotonic()
    goals_checked = 0
    rng = random.Random(515)
    for kb, kb_rng in random_kbs(seed=515, count=18):
        if len(kb.axioms) > 5:
            continue
        kb.candidates = kb.candidates[:3]
        atoms = sorted(n for n in kb.sig.functions
                       if n.startswith("p") and not kb.sig.functions[n][0])
        engine = ReasonEngine(kb)
        local = random.Random(kb_rng.randrange(2**32))
        goal_texts = []
        for p in atoms[:2]:
            goal_texts.append(f"({p})")
            goal_texts.append(f"(not ({p}))")
        if len(atoms) >= 2:
            goal_texts.append(f"(and (p1) (p2))")
        for text in goal_texts:
            goal = parse_formula(text, kb.sig)
            w = engine.delta("a", "now", goal)
            got = None if w is None else w.distance
            want = brute_force_delta(kb, "a", "now", goal)
            assert got == want, f"delta mismatch on {text}: {got} != {want}"
            goals_checked += 1

    # corpus instances under the same bounds
    for name, agent, moment, texts in [
        ("murder.kb", "s", "now",
         ["(murderer alice)", "(not (murderer alice))", "(murderer bob)",
          "(not (murderer bob))"]),
        ("counterfactual.kb", "a", "t2",
         ["(holds f t1)", "(holds g t1)", "(not (holds f t1))"]),
    ]:
        kb = load_kb(scenario_path(name))
        engine = ReasonEngine(kb)
        for text in texts:
            goal = parse_formula(text, kb.sig)
            w = engine.delta(agent, moment, goal)
            got = None if w is None else w.distance
            assert got == brute_force_delta(kb, agent, moment, goal)
            goals_checked += 1

    elapsed = time.monotonic() - start
    assert goals_checked >= 50, f"only {goals_checked} goals checked"
    assert elapsed < 60.0, f"delta oracle took {elapsed:.2f}s"
    _report(5, f"delta oracle equivalence, {goals_checked} goals "
               f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. proof checker soundness

def test_acceptance_6_checker_soundness(lottery_kb, murder_kb, rain_kb):
    triples = corpus_proofs(lottery_kb, murder_kb, rain_kb)
    assert all(p is not None for p, _, _ in triples)
    for proof, gamma, goal in triples:
        assert check_proof(proof, gamma, goal, sig=Signature())

    rng = random.Random(606)
    rejected = attempts = 0
    for proof, gamma, goal in triples:
        for _ in range(25):
            mutant, _desc = _corrupt(proof, rng)
            if mutant == proof:
                continue
            attempts += 1
            try:
                check_proof(mutant, gamma, goal, sig=Signature())
            except CheckError:
                rejected += 1
    assert attempts >= 100
    assert rejected == attempts
    _report(6, f"checker soundness, {len(triples)} replays, "
               f"{attempts} corruptions rejected")


# ---------------------------------------------------------------------------
# 7. counterfactual ordering

def test_acceptance_7_counterfactual_ordering():
    for name, expect in (("counterfactual.kb", True),
                         ("counterfactual_flip.kb", False)):
        kb = load_kb(scenario_path(name))
        engine = ReasonEngine(kb)
        f = parse_formula("(holds f t1)", kb.sig)
        g = parse_formula("(holds g t1)", kb.sig)
        v = engine.more_reasonable("a", "t2", f, g)
        assert v.clause == "III"
        wf = engine.delta("a", "t2", f)
        wg = engine.delta("a", "t2", g)
        assert v.holds == (wf.distance < wg.distance) == expect
        mirror = engine.more_reasonable("a", "t2", g, f)
        assert mirror.clause == "III"
        assert mirror.holds == (wg.distance < wf.distance) == (not expect)
    _report(7, "counterfactual ordering and flip")


# ---------------------------------------------------------------------------
# 8. propagation guard arithmetic

def test_acceptance_8_guard_arithmetic(lottery_kb):
    from test_strength import _judgment

    engine = StrengthEngine(lottery_kb)
    conc = parse_formula("(and (win ticket1) (win ticket2))", lottery_kb.sig)
    combos = 0
    for s1 in range(1, 6):
        for s2 in range(1, 6):
            for u in range(0, 5):
                premises = [
                    _judgment(lottery_kb, "a", "now", "(win ticket1)", s1),
                    _judgment(lottery_kb, "a", "now", "(win ticket2)", s2),
                ]
                j = engine.infer_rsb(premises, conc, "now", u=u)
                fired = j is not None
                assert fired == (abs(s1 - s2) <= u)
                if fired:
                    assert int(j.level) == min(s1, s2)
                combos += 1
    assert combos == 125
    _report(8, "propagation guard arithmetic, 125 combinations")


# ---------------------------------------------------------------------------
# 9. parser round trip

def test_acceptance_9_parser_roundtrip():
    from mucal.logic import Signature
    from mucal.syntax import print_formula as pf

    count = 0
    for name in ["lottery5.kb", "lottery_full.kb", "lottery_stress.kb",
                 "murder.kb", "murder_certain.kb", "counterfactual.kb",
                 "counterfactual_flip.kb", "rain.kb"]:
        kb = load_kb(scenario_path(name))
        for entry in kb.axioms + kb.candidates:
            printed = pf(entry.formula)
            assert formula_key(parse_formula(printed, kb.sig)) == formula_key(entry.formula)
            count += 1

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
    rng = random.Random(99)
    for _ in range(1000):
        f = random_formula(rng, sig, depth=6, env={})
        printed = pf(f)
        again = parse_formula(printed, sig)
        assert formula_key(again) == formula_key(f)
        assert pf(again) == printed
        count += 1
    assert count >= 1000
    _report(9, f"parser round trip, {count} formulas")

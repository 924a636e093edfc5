"""The revision search rejects a pair without a proof search when a ground
model of the proof's premises falsifies the goal (`ReasonEngine._refuted`,
which asks `models.Grounding.refutes`).

That skip is exact only if the prover never proves what the models check
refutes.  The agreement audit runs both on every consistent (additions,
removals) pair that the golden commands, the scenario knowledge bases and
a generated corpus reach, and checks that no skipped pair has a proof.

The same refutation gates `ReasonEngine.provable` and the propagation
pass, a model kept from an earlier check can answer a refutation, and the
rival test asks only for its verdict.  The skip audit checks every
refutation against the proof search it skips, every kept-model answer
against a cold check, and every verdict-only comparison against the full
verdict.
"""

import importlib.util
import os
import random
import sys

import pytest

from mucal import models
from mucal.checker import check_proof
from mucal.kb import load_kb, parse_kb
from mucal.logic import (
    Not, Signature, StrengthLevel, collect_ground_terms, expand_sugar, formula_key,
)
from mucal.prover import prove
from mucal.reasonable import ReasonEngine
from mucal.strength import StrengthEngine
from mucal.syntax import parse_formula
from conftest import DESK_SCENARIOS, SCENARIOS, scenario_path
from oracles import brute_force_delta
from test_cli import MANIFEST, run_cli


class Audit:
    """Wraps `ReasonEngine._try_pair` to run, on every consistent pair, the
    refutation check as the search runs it, the same check grounded cold
    with no modal gate, and the prover."""

    def __init__(self, monkeypatch):
        self.pairs = []  # (proved, skipped, cold check, modal, goal)
        real = ReasonEngine._try_pair
        audit = self

        def try_pair(engine, agent, moment, target, theta, lam, distance):
            found = real(engine, agent, moment, target, theta, lam, distance)
            audit.check(engine, agent, moment, target, theta, lam, found)
            return found

        monkeypatch.setattr(ReasonEngine, "_try_pair", try_pair)

    def check(self, engine, agent, moment, target, theta, lam, found):
        kb = engine.kb
        content = target.content
        lam_labels = frozenset(a.label for a in lam)
        theta_forms = tuple(f for _, f in theta)
        frame = engine._frame(agent, moment, lam_labels)
        if engine._feasibility(frame, lam_labels, theta_forms, target) != models.CONSISTENT:
            assert found is None
            return
        skipped = engine._refuted(frame, target, theta_forms)
        proof = engine._prove(agent, moment, target, theta_forms, lam_labels)
        extra = tuple(expand_sugar(f) for f in theta_forms)
        premises = frame.head + extra + kb.background()
        # the cold check's universe is computed from scratch, not read
        # from the engine
        cold = models.consistent(
            premises + (Not(content),), kb.params.consistency_depth,
            kb.universe(premises + (content,)),
        )
        modal = models._has_modal(premises + (content,))
        goal = f"{agent}@{moment}: {content}"
        assert not (proof is not None and skipped), goal
        assert proof is None or check_proof(proof, premises, content, sig=Signature())
        assert (found is not None) == (proof is not None), goal
        if not modal:
            # the reused grounding answers as the cold one does
            assert skipped == (cold == models.CONSISTENT), goal
        self.pairs.append((proof is not None, skipped, cold, modal, goal))

    def disagreements(self) -> list:
        """Goals of proved pairs that the ungated check calls consistent."""
        return [p[4] for p in self.pairs if p[0] and p[2] == models.CONSISTENT]


# ---------------------------------------------------------------------------
# the generated corpus

CORPUS_SIG = """
(const a Agent)(const b Agent)(const c Agent)
(const t0 Moment)(const t1 Moment)(const now Moment)
(prior t0 t1)(prior t1 now)
(const o1 Object)(const o2 Object)
(func p () Boolean)(func q () Boolean)(func r (Object) Boolean)
"""
AGENTS = ("a", "b", "c")
MOMENTS = ("t0", "t1", "now")


def corpus_formula(rng, depth, var=None, modal=True):
    leaves = ["(p)", "(q)", "(r o1)", "(r o2)"] + ([f"(r {var})"] * 2 if var else [])
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(leaves)
        return f"(not {leaf})" if rng.random() < 0.3 else leaf
    kinds = ("not", "and", "or", "implies", "quant") + ("modal", "modal") * modal
    kind = rng.choice(kinds)
    sub = lambda: corpus_formula(rng, depth - 1, var, modal)  # noqa: E731
    if kind == "not":
        return f"(not {sub()})"
    if kind in ("and", "or", "implies"):
        return f"({kind} {sub()} {sub()})"
    if kind == "quant" and var is None:
        q = rng.choice(("forall", "exists"))
        return f"({q} (x Object) {corpus_formula(rng, depth - 1, 'x', modal)})"
    if kind != "modal":
        return f"(not {sub()})"
    return modal_formula(rng, sub())


def modal_formula(rng, body, kinds=("believes", "believes", "perceives")):
    kind = rng.choice(kinds)
    return f"({kind} {rng.choice(AGENTS)} {rng.choice(MOMENTS)} {body})"


def belief_chain(rng, body, depth):
    for _ in range(depth):
        body = modal_formula(rng, body, kinds=("believes",))
    return body


def corpus_kb(rng):
    """A KB text with certain, held, perceived and plain axioms and with
    candidates, and goals that weaken a candidate or stand alone:
    quantified, and (in the modal KBs, three in five) beliefs nested
    three deep."""
    modal = rng.random() < 0.6
    lines = [CORPUS_SIG]
    for i in range(rng.randrange(1, 4)):
        f = corpus_formula(rng, 2, modal=modal)
        forms = ("certain", "held", "percept", "plain") if modal else ("certain", "plain")
        form = rng.choice(forms)
        if form == "certain":
            lines.append(f"(axiom ax{i} :certain {f})")
        elif form == "held":
            lines.append(f"(axiom ax{i} (believes a {rng.choice(MOMENTS)} {f}))")
        elif form == "percept":
            lines.append(f"(axiom ax{i} (perceives a {rng.choice(('t0', 't1'))} {f}))")
        else:
            lines.append(f"(axiom ax{i} {f})")
    cands = []
    for i in range(rng.randrange(1, 4)):
        if modal and rng.random() < 0.3:
            f = belief_chain(rng, corpus_formula(rng, 1), 3)
        else:
            f = corpus_formula(rng, 2, modal=modal)
        cands.append(f)
        lines.append(f"(candidate c{i} {f})")
    goals = [corpus_formula(rng, 2, modal=modal)]
    goals.append(f"({rng.choice(('forall', 'exists'))} (x Object) "
                 f"{corpus_formula(rng, 1, 'x', modal)})")
    if modal:
        goals.append(belief_chain(rng, corpus_formula(rng, 1), 3))
    for f in rng.sample(cands, k=min(2, len(cands))):
        goals.append(f"(or {f} {corpus_formula(rng, 1, modal=modal)})")
        goals.append(weaken_belief(rng, f))
    return "\n".join(lines), goals


def weaken_belief(rng, f: str) -> str:
    """f with the body of its innermost belief prefix weakened by a
    disjunct, so that only belief closure derives it from f."""
    head = ""
    while f.startswith("(believes "):
        parts = f.split(" ", 3)
        head += " ".join(parts[:3]) + " "
        f = parts[3][:-1]
    return head + f"(or {f} {corpus_formula(rng, 0)})" + ")" * head.count("(")


def run_corpus(seed: int, count: int) -> None:
    rng = random.Random(seed)
    for _ in range(count):
        text, goals = corpus_kb(rng)
        kb = parse_kb(text)
        engine = ReasonEngine(kb)
        for g in goals:
            engine.delta("a", "now", parse_formula(g, kb.sig))


# ---------------------------------------------------------------------------
# one universe per KB

def test_axioms_and_candidates_name_only_herbrand_terms():
    # so every frame and every pool addition is checked over one universe,
    # and only a goal can widen it
    kbs = [load_kb(scenario_path(name)) for name in sorted(os.listdir(SCENARIOS))]
    rng = random.Random(1111)
    kbs += [parse_kb(corpus_kb(rng)[0]) for _ in range(60)]
    for kb in kbs:
        herbrand = kb.herbrand()
        for entry in kb.axioms + kb.candidates:
            terms = collect_ground_terms((entry.formula,), parents=kb.sig.sorts)
            for sort, ts in terms.items():
                assert set(ts) <= set(herbrand.get(sort, ())), (sort, entry.label)
        stated = tuple(e.formula for e in kb.axioms + kb.candidates)
        assert kb.universe(stated) is herbrand


# ---------------------------------------------------------------------------
# the agreement audit

def test_refutation_agreement_on_goldens(monkeypatch):
    audit = Audit(monkeypatch)
    for case in MANIFEST:
        run_cli(case["argv"])
    assert any(p[0] for p in audit.pairs)
    assert any(p[1] for p in audit.pairs)
    assert audit.disagreements() == []


def test_refutation_agreement_on_scenarios(monkeypatch):
    audit = Audit(monkeypatch)
    for name in DESK_SCENARIOS:
        kb = load_kb(scenario_path(name))
        engine = ReasonEngine(kb)
        agents = sorted(n for n, s in kb.sig.constants.items() if s == "Agent")
        moment = "now" if "now" in kb.order().moments else kb.order().moments[-1]
        goals = [c.formula for c in kb.candidates] + [
            Not(c.formula) for c in kb.candidates
        ] + [Not(a.formula) for a in kb.axioms]
        for agent in agents:
            for g in goals:
                engine.delta(agent, moment, g)
    assert any(p[0] for p in audit.pairs)
    assert any(p[1] for p in audit.pairs)
    assert audit.disagreements() == []


def test_refutation_agreement_on_generated_kbs(monkeypatch):
    audit = Audit(monkeypatch)
    run_corpus(seed=1111, count=60)
    proved = [p for p in audit.pairs if p[0]]
    assert any(not p[3] for p in proved) and any(p[3] for p in proved)
    assert sum(p[1] for p in audit.pairs) >= 100
    # the ungated check disagrees with the prover only where a modal node
    # turns the skip off
    assert all(p[3] for p in audit.pairs if p[0] and p[2] == models.CONSISTENT)


# ---------------------------------------------------------------------------
# what the modal gate keeps

@pytest.mark.parametrize("text, goal, labels", [
    # a belief that only and-elimination yields, read by belief closure
    ("(candidate c1 (and (believes b now (p)) (q)))",
     "(believes b now (or (p) (r o1)))", ("c1",)),
    # belief closure three beliefs deep
    ("(candidate c1 (believes b now (believes c now (believes a now (and (p) (q))))))",
     "(believes b now (believes c now (believes a now (p))))", ("c1",)),
    # a belief assumed by implication introduction
    ("(candidate c1 (q))",
     "(implies (believes b t1 (p)) (and (q) (believes b now (or (p) (q)))))", ("c1",)),
])
def test_gate_keeps_proofs_that_read_unstated_beliefs(text, goal, labels):
    kb = parse_kb(CORPUS_SIG + text)
    f = parse_formula(goal, kb.sig)
    w = ReasonEngine(kb).delta("a", "now", f)
    assert w.theta_labels == labels and w.proof is not None
    assert w.distance == brute_force_delta(kb, "a", "now", f)


# ---------------------------------------------------------------------------
# unknown never skips; a new term grounds cold

def test_unknown_refutation_goes_to_the_prover(monkeypatch):
    # the goal grounds to seven atoms, past the budget of three, so the
    # refutation check of every pair is unknown, while each feasibility
    # check needs at most one atom
    kb = parse_kb(
        "(const a Agent)(const now Moment)"
        "(const o1 Object)(const o2 Object)(const o3 Object)"
        "(const o4 Object)(const o5 Object)(const o6 Object)"
        "(func p () Boolean)(func s () Boolean)(func q (Object) Boolean)"
        "(candidate c1 (s))(candidate c2 (p))"
        "(param consistency-depth 3)"
    )
    goal = parse_formula("(or (p) (forall (x Object) (q x)))", kb.sig)
    refutations = []
    real = models.Grounding.solve

    def solve(g):
        out = real(g)
        if g.premises[-1:] == (Not(goal),):
            refutations.append(out)
        return out

    monkeypatch.setattr(models.Grounding, "solve", solve)
    engine = ReasonEngine(kb)
    w = engine.delta("a", "now", goal)
    # c1 ranks first and fails to prove; c2 proves
    assert (w.theta_labels, w.lam_labels) == (("c2",), ())
    assert w.distance == brute_force_delta(kb, "a", "now", goal)
    # one check per pair, and one for the direct `provable` check that
    # refutes first
    assert refutations == [models.UNKNOWN] * 3
    # the unknown checks leave no budget note: no pair was skipped on them
    v = engine.more_reasonable("a", "now", goal, parse_formula("(s)", kb.sig))
    assert v.note == ""


def test_goal_term_outside_the_frame_grounds_cold():
    # 7 is a moment only the goal names; over the frames' universe the
    # forall candidate would not reach it and the check would refute c1
    kb = parse_kb(
        "(const a Agent)(const now Moment)(const f Fluent)(const g Fluent)"
        "(axiom link :certain (forall (m Moment) (implies (holds g m) (holds f m))))"
        "(candidate c1 (forall (m Moment) (holds g m)))"
    )
    goal = parse_formula("(holds f 7)", kb.sig)
    engine = ReasonEngine(kb)
    assert not any(t.name == "7" for t in kb.herbrand()["Moment"])
    w = engine.delta("a", "now", goal)
    assert w.theta_labels == ("c1",)
    assert w.distance == brute_force_delta(kb, "a", "now", goal)


def test_a_goal_naming_only_new_atoms_reuses_the_frame_groundings(murder_kb, monkeypatch):
    # (owns bob) and t2 are in the Herbrand universe, so the goal's universe
    # is the frames' and every check extends a frame's grounding
    built = []
    init = models.Grounding.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(models.Grounding, "__init__", counting)
    goal = parse_formula("(holds (owns bob) t2)", murder_kb.sig)
    w = ReasonEngine(murder_kb).delta("s", "now", goal)
    assert (w.theta_labels, w.lam_labels, w.distance) == (("+goal",), (), 4)
    assert len(built) == 2


def test_addition_term_outside_the_frame_grounds_cold():
    # the fallback addition (holds f 7) names a moment the axioms do not;
    # over their universe the removable axiom would not reach it and the
    # pair with no removal would pass the feasibility check
    kb = parse_kb(
        "(const a Agent)(const now Moment)(const f Fluent)"
        "(axiom never (forall (m Moment) (not (holds f m))))"
    )
    goal = parse_formula("(holds f 7)", kb.sig)
    w = ReasonEngine(kb).delta("a", "now", goal)
    assert (w.theta_labels, w.lam_labels) == (("+goal",), ("never",))
    assert w.distance == brute_force_delta(kb, "a", "now", goal)


# ---------------------------------------------------------------------------
# the skip audit: provable, the propagation pass, kept models, verdicts

class SkipAudit:
    """Wraps every gate that skips work on a countermodel or a verdict.
    Each refutation (`models.Grounding.refutes`) is checked against the
    proof search it skips, at the KB's proof depth, each check a kept model
    answers against the same check grounded cold, and each verdict-only
    comparison against the full verdict of a second engine on the same KB,
    so that the audit leaves the audited engine's caches as they are."""

    def __init__(self, monkeypatch):
        self.provable = 0  # provable goals refuted
        self.windows = 0   # propagation conclusions refuted
        self.reused = 0    # checks a kept model answered
        self.verdicts = []  # the holds of each verdict-only comparison
        self.kb = None     # the KB of the engine built last
        audit = self
        shadows = {}
        init = ReasonEngine.__init__
        refutes = models.Grounding.refutes
        kept = models.Grounding._kept_model_satisfies
        more_reasonable = ReasonEngine.more_reasonable

        def audited_init(engine, kb):
            init(engine, kb)
            audit.kb = kb

        def audited_refutes(g, additions, goal, universe):
            out = refutes(g, additions, goal, universe)
            if out:
                premises = g.premises + tuple(expand_sugar(f) for f in additions)
                res = prove(premises, goal, depth=audit.kb.params.proof_depth,
                            universe=universe)
                assert res.outcome != "proved", (premises, goal)
                # counted by the method that asked: the propagation pass,
                # or `_refuted` on behalf of `provable`
                caller = sys._getframe(1)
                if caller.f_code.co_name == "_rsb_pass":
                    audit.windows += 1
                elif caller.f_back.f_code.co_name == "provable":
                    audit.provable += 1
            return out

        def audited_kept(g, premises):
            out = kept(g, premises)
            if out:
                cold = models.consistent(g.premises + premises, g.atom_budget, g.universe)
                assert cold != models.INCONSISTENT, premises
                audit.reused += 1
            return out

        def audited_more_reasonable(engine, agent, moment, f, g, *, verdict_only=False):
            out = more_reasonable(engine, agent, moment, f, g, verdict_only=verdict_only)
            if verdict_only:
                if engine not in shadows:
                    shadows[engine] = ReasonEngine(engine.kb)
                full = more_reasonable(shadows[engine], agent, moment, f, g)
                assert out.holds == full.holds, (f, g)
                audit.verdicts.append(full.holds)
            return out

        monkeypatch.setattr(ReasonEngine, "__init__", audited_init)
        monkeypatch.setattr(models.Grounding, "refutes", audited_refutes)
        monkeypatch.setattr(models.Grounding, "_kept_model_satisfies", audited_kept)
        monkeypatch.setattr(ReasonEngine, "more_reasonable", audited_more_reasonable)


def saturate_and_classify(kb, goals, moment="now") -> None:
    """Two propagation rounds for each agent at the moment, then the
    classification of each goal for each agent."""
    engine = StrengthEngine(kb)
    agents = sorted(n for n, s in kb.sig.constants.items() if s == "Agent")
    for agent in agents:
        engine.saturate(2, agent, moment)
    for agent in agents:
        for g in goals:
            engine.classify(agent, moment, g)


def test_skips_agree_on_goldens_and_scenarios(monkeypatch):
    audit = SkipAudit(monkeypatch)
    for case in MANIFEST:
        run_cli(case["argv"])
    # every scenario with an agent, except lottery_stress, whose xor
    # expansion alone takes seconds
    for name in DESK_SCENARIOS:
        kb = load_kb(scenario_path(name))
        moment = "now" if "now" in kb.order().moments else kb.order().moments[-1]
        goals = [c.formula for c in kb.candidates] + [Not(c.formula) for c in kb.candidates]
        saturate_and_classify(kb, goals, moment)
    assert audit.provable and audit.windows and audit.reused and audit.verdicts


def test_skips_agree_on_generated_kbs(monkeypatch):
    audit = SkipAudit(monkeypatch)
    rng = random.Random(1111)
    for _ in range(60):
        text, goals = corpus_kb(rng)
        kb = parse_kb(text)
        saturate_and_classify(kb, [parse_formula(g, kb.sig) for g in goals])
    assert audit.provable >= 50 and audit.windows and audit.reused and audit.verdicts


def bench_workloads():
    """`bench/workloads.py`, which writes the benchmark's KBs and commands."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("workloads", module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, sizes", [("lottery", (5, 7, 9)), ("timeline", (10, 20))])
def test_skips_agree_on_benchmark_kbs(name, sizes, tmp_path, monkeypatch):
    audit = SkipAudit(monkeypatch)
    w = bench_workloads().build(name, seed=1, sizes=sizes)
    for kb, text in w.kbs.items():
        (tmp_path / kb).write_text(text)
    for c in w.commands:
        rc, out = run_cli(c.mucal_args(str(tmp_path / c.kb)))
        assert rc == c.ref.exit and c.ref.line in out, c.label
    assert audit.provable and audit.reused
    if name == "lottery":
        assert audit.windows and audit.verdicts


def test_verdict_only_rival_test_when_the_belief_is_not_provable(monkeypatch):
    # (p) is beyond reasonable doubt by its probability alone, so the rival
    # test runs on a belief that is not provable: there (s), provable, beats
    # it on clause III, and the verdict-only comparison must say so; (s)
    # has no rival in the pool, so (p) is evident
    audit = SkipAudit(monkeypatch)
    kb = parse_kb(
        "(const a Agent)(const now Moment)(func p () Boolean)(func s () Boolean)"
        "(axiom given :certain (s))(pr a now (p) 1)(candidate c1 (p))"
    )
    p = parse_formula("(p)", kb.sig)
    j = StrengthEngine(kb).classify("a", "now", p, pool=[parse_formula("(s)", kb.sig)])
    assert j.level == StrengthLevel.EVIDENT
    assert audit.verdicts == [True]


def test_propagation_gate_keeps_proofs_that_read_unstated_beliefs(monkeypatch):
    # the belief in the certain axiom sits inside a conjunction, so `models`
    # pins nothing and has a model of the window without the conclusion,
    # while the prover reaches the conclusion by and-elimination and r_b
    audit = SkipAudit(monkeypatch)
    kb = parse_kb(
        CORPUS_SIG + "(axiom given :certain (and (believes b now (p)) (q)))"
        "(candidate c1 (believes b now (or (p) (q))))"
    )
    store = StrengthEngine(kb).saturate(2, "a", "now")
    c1 = parse_formula("(believes b now (or (p) (q)))", kb.sig)
    assert store.get("a", "now", formula_key(c1)).level == StrengthLevel.CERTAIN
    assert audit.windows == 0


NODE_CAP_KB = "(const a Agent)(const now Moment)" + "".join(
    f"(const o{i} Object)" for i in range(1, 9)
) + """
(func r (Object) Boolean)(func p () Boolean)(func q () Boolean)
(axiom names :certain (forall (x Object) (r x)))
(candidate c0 (p))
(candidate c1 (forall (w Object) (forall (x Object) (forall (y Object)
  (forall (z Object) (forall (v Object) (forall (u Object)
    (or (r w) (r x) (r y) (r z) (r v) (r u)))))))))
"""


def test_a_feasibility_check_that_overflows_reuses_no_model():
    # c1 grounds past the node cap, so its feasibility check is unknown
    # and leaves a budget note; every model of c0's pair makes c1 true,
    # so reading a kept model there would answer consistent instead
    kb = parse_kb(NODE_CAP_KB)
    engine = ReasonEngine(kb)
    q = parse_formula("(q)", kb.sig)
    v = engine.more_reasonable("a", "now", q, parse_formula("(p)", kb.sig))
    assert v.evidence["delta_left"].theta_labels == ("+goal",)
    assert v.note == "some revision pairs were skipped on a budget-exhausted check"

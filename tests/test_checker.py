import random

import pytest

from mucal.checker import check_proof
from mucal.errors import CheckError
from mucal.logic import (
    BUILTIN_SORTS, And, App, Atom, Believes, Const, Falsum, Not, Or, Signature, Xor,
    collect_ground_terms,
)
from mucal.prover import Proof, Step, prove, projection
from mucal.kb import parse_kb
from mucal.syntax import parse_formula
from conftest import builtin_universe

P = Atom(App("p", (), "Boolean"))
Q = Atom(App("q", (), "Boolean"))
R = Atom(App("r", (), "Boolean"))


def replace(record, **changes):
    """`record` with the named fields changed, rebuilt through its constructor."""
    values = [changes.pop(n, getattr(record, n)) for n in record.__slots__]
    assert not changes, f"no such fields: {sorted(changes)}"
    return type(record)(*values)


def corpus_proofs(lottery_kb, murder_kb, rain_kb):
    """(proof, gamma, goal) triples drawn from the scenario corpus."""
    out = []
    sig = lottery_kb.sig
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    goal = parse_formula("(exists (t) (win t))", sig)
    out.append((prove(gamma, goal, depth=3,
                     universe=builtin_universe(gamma + (goal,))).proof, gamma, goal))

    negs = tuple(parse_formula(f"(not (win ticket{i}))", sig) for i in range(1, 6))
    goal2 = parse_formula("(not (exists (t) (win t)))", sig)
    out.append((prove(negs, goal2, depth=3,
                      universe=lottery_kb.herbrand()).proof, negs, goal2))

    goal3 = Falsum()
    gamma3 = gamma + negs
    out.append((prove(gamma3, goal3, depth=3,
                     universe=builtin_universe(gamma3 + (goal3,))).proof, gamma3, goal3))

    theta1 = murder_kb.candidates[0].formula
    prems = projection(murder_kb, "s", "now", extra=(theta1,))
    goal4 = parse_formula("(murderer alice)", murder_kb.sig)
    out.append((prove(prems, goal4, depth=3,
                     universe=builtin_universe(prems + (goal4,))).proof, prems, goal4))

    prems5 = projection(murder_kb, "s", "now",
                        extra=tuple(c.formula for c in murder_kb.candidates[1:]))
    goal5 = parse_formula("(not (murderer alice))", murder_kb.sig)
    out.append((prove(prems5, goal5, depth=3,
                     universe=builtin_universe(prems5 + (goal5,))).proof, prems5, goal5))

    rsig = rain_kb.sig
    gamma6 = tuple(a.formula for a in rain_kb.axioms) + rain_kb.background()
    goal6 = parse_formula("(believes mary now (holds raining t1))", rsig)
    out.append((prove(gamma6, goal6, depth=2,
                     universe=builtin_universe(gamma6 + (goal6,))).proof, gamma6, goal6))
    return out


def test_corpus_proofs_replay(lottery_kb, murder_kb, rain_kb):
    triples = corpus_proofs(lottery_kb, murder_kb, rain_kb)
    assert all(p is not None for p, _, _ in triples)
    for proof, gamma, goal in triples:
        assert check_proof(proof, gamma, goal, sig=Signature())


def test_checker_rejects_wrong_goal(lottery_kb):
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    proof = prove(gamma, goal, depth=3, universe=builtin_universe(gamma + (goal,))).proof
    other = parse_formula("(win ticket1)", lottery_kb.sig)
    with pytest.raises(CheckError):
        check_proof(proof, gamma, other, sig=Signature())


def test_checker_rejects_foreign_premise(lottery_kb):
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    proof = prove(gamma, goal, depth=3, universe=builtin_universe(gamma + (goal,))).proof
    with pytest.raises(CheckError):
        check_proof(proof, (P,), goal, sig=Signature())


def _corrupt(proof: Proof, rng: random.Random):
    """One random structural corruption; returns (mutant, description)."""
    steps = list(proof.steps)
    mode = rng.randrange(5)
    if mode == 0:
        i = rng.randrange(len(steps))
        old = steps[i]
        new_formula = Falsum() if not isinstance(old.formula, Falsum) else P
        steps[i] = replace(old, formula=new_formula)
        return replace(proof, steps=tuple(steps)), f"formula of step {i}"
    if mode == 1:
        i = rng.randrange(len(steps))
        old = steps[i]
        steps[i] = replace(old, rule="mystery")
        return replace(proof, steps=tuple(steps)), f"rule of step {i}"
    if mode == 2 and len(steps) > 1:
        derived = [i for i, s in enumerate(steps) if s.inputs]
        if derived:
            i = rng.choice(derived)
            old = steps[i]
            bad = tuple(len(steps) + 3 for _ in old.inputs)
            steps[i] = replace(old, inputs=bad)
            return replace(proof, steps=tuple(steps)), f"inputs of step {i}"
    if mode == 3:
        return replace(proof, goal=Not(proof.goal)), "goal"
    if len(steps) > 1:
        return replace(proof, steps=tuple(steps[:-1])), "truncated"
    return replace(proof, steps=()), "emptied"


def test_fuzzed_corruptions_rejected(lottery_kb, murder_kb, rain_kb):
    rng = random.Random(97)
    triples = corpus_proofs(lottery_kb, murder_kb, rain_kb)
    rejected = 0
    attempts = 0
    for proof, gamma, goal in triples:
        for _ in range(30):
            mutant, desc = _corrupt(proof, rng)
            if mutant == proof:
                continue
            attempts += 1
            try:
                check_proof(mutant, gamma, goal, sig=Signature())
            except CheckError:
                rejected += 1
                continue
            raise AssertionError(f"corruption accepted: {desc}")
    assert attempts >= 100
    assert rejected == attempts


def test_checker_accepts_a_generator_premise_set():
    # the premise set is read twice (premise keys, then the moment order)
    kb = parse_kb(
        "(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)"
        "(prior t1 t2)(axiom x :certain (perceives a t1 (p)))"
    )
    gamma = tuple(ax.formula for ax in kb.axioms) + kb.background()
    goal = parse_formula("(believes a t2 (p))", kb.sig)
    result = prove(gamma, goal, depth=2, universe=builtin_universe(gamma + (goal,)))
    assert result.outcome == "proved"
    assert check_proof(result.proof, gamma, goal, sig=Signature())
    assert check_proof(result.proof, (g for g in gamma), goal, sig=Signature())


def test_checker_orders_a_numeral_only_the_goal_names():
    # the prover orders 3 before 5 over the proof's universe, which holds
    # the goal's 5; the checker replays over that universe, not gamma's
    kb = parse_kb("(const a Agent)(func q () Boolean)")
    gamma = (parse_formula("(perceives a 3 (q))", kb.sig),)
    goal = parse_formula("(believes a 5 (q))", kb.sig)
    result = prove(gamma, goal, 3, builtin_universe(gamma + (goal,)))
    assert result.outcome == "proved"
    assert [s.rule for s in result.proof.steps] == ["premise", "r_p"]
    assert check_proof(result.proof, gamma, goal, sig=Signature())


def test_checker_rejects_an_agent_of_another_sort():
    # both agents print as `a`; only their sorts tell them apart
    kb = parse_kb(
        "(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)"
        "(prior t1 t2)(axiom x :certain (perceives a t1 (p)))"
    )
    gamma = tuple(ax.formula for ax in kb.axioms) + kb.background()
    goal = parse_formula("(believes a t2 (p))", kb.sig)
    proof = prove(gamma, goal, depth=2, universe=builtin_universe(gamma + (goal,))).proof
    assert check_proof(proof, gamma, goal, sig=Signature())
    (i,) = [i for i, s in enumerate(proof.steps) if s.rule == "r_p"]
    step = proof.steps[i]
    assert step.formula.agent == Const("a", "Agent")
    other = Believes(Const("a", "Self"), step.formula.moment, step.formula.body)
    steps = proof.steps[:i] + (replace(step, formula=other),) + proof.steps[i + 1:]
    universe = dict(proof.universe)
    for sort, terms in collect_ground_terms((other,), BUILTIN_SORTS).items():
        universe[sort] = tuple(dict.fromkeys(universe.get(sort, ()) + tuple(terms)))
    forged = replace(proof, goal=other, steps=steps, universe=tuple(universe.items()))
    with pytest.raises(CheckError, match="agent mismatch"):
        check_proof(forged, gamma, other, sig=Signature())


# a KB ordering t1 < t2 < now, in which b believes things about a
_NESTED_KB = (
    "(const a Agent)(const b Agent)(const t1 Moment)(const t2 Moment)(const now Moment)"
    "(prior t1 t2)(prior t2 now)(func p () Boolean)"
)


def _nested_gamma(axioms):
    kb = parse_kb(_NESTED_KB + axioms)
    return kb, tuple(ax.formula for ax in kb.axioms) + kb.background()


def test_checker_replays_a_nested_belief_proof_under_the_outer_order():
    # the sub-search lifts a's percept at t1 to t2 under the KB's order;
    # b's believed content alone does not order t1 before t2
    kb, gamma = _nested_gamma("(axiom x :certain (believes b now (perceives a t1 (p))))")
    goal = parse_formula("(believes b now (believes a t2 (p)))", kb.sig)
    result = prove(gamma, goal, 3, builtin_universe(gamma + (goal,)))
    assert result.outcome == "proved"
    (r_b,) = [s for s in result.proof.steps if s.rule == "r_b"]
    assert [s.rule for s in r_b.extra[0].steps] == ["premise", "r_p"]
    assert check_proof(result.proof, gamma, goal, sig=Signature())


def test_checker_rejects_a_nested_lift_ordered_by_believed_content():
    # b believes that t2 precedes t1; the KB orders t1 < t2, so lifting a's
    # percept at t2 to t1 inside b's belief is not a step of the calculus
    kb, gamma = _nested_gamma(
        "(axiom x :certain (believes b now (and (prior t2 t1) (perceives a t2 (p)))))")
    (held,) = [f for f in gamma if isinstance(f, Believes)]
    content = held.body
    percept = content.args[1]
    lifted = Believes(percept.agent, Const("t1", "Moment"), percept.body)
    goal = Believes(held.agent, held.moment, lifted)
    universe = tuple(collect_ground_terms(gamma + (goal,), BUILTIN_SORTS).items())
    sub = Proof(goal=lifted, premises_used=(content,), steps=(
        Step("premise", (), content, (), ()),
        Step("and_elim", (0,), percept, (), (1,)),
        Step("r_p", (1,), lifted, (), (("t2", "t1"),)),
    ), depth=0, universe=universe)
    forged = Proof(goal=goal, premises_used=(held,), steps=(
        Step("premise", (), held, (), ()),
        Step("r_b", (0,), goal, (), (sub,)),
    ), depth=0, universe=universe)
    with pytest.raises(CheckError, match="perception moment is not strictly earlier"):
        check_proof(forged, gamma, goal, sig=Signature())



@pytest.mark.parametrize("kb_text, premises, goal_text, universe, sort", [
    # i1 is a Moment under the KB's sort edges, so a Moment bucket without
    # it does not cover the premise (not (q i1))
    ("(sort Instant Moment)(const i0 Instant)(const i1 Instant)(func q (Moment) Boolean)",
     ("(q i0)", "(not (q i1))"), "(forall (t Moment) (q t))",
     {"Instant": (Const("i0", "Instant"), Const("i1", "Instant")),
      "Moment": (Const("i0", "Instant"),)}, "Moment"),
    # the proof uses only (win t1), but its universe must still hold the
    # t2 that the unused premise names
    ("(const t1 Object)(const t2 Object)(func win (Object) Boolean)",
     ("(win t1)", "(not (win t2))"), "(forall (t Object) (win t))",
     {"Object": (Const("t1", "Object"),)}, "Object"),
])
def test_checker_rejects_a_universe_that_omits_a_premise_term(
        kb_text, premises, goal_text, universe, sort):
    # a forged proof of the universal goal from the first premise alone,
    # over a universe whose bucket for the goal's sort holds one case
    kb = parse_kb(kb_text)
    gamma = tuple(parse_formula(t, kb.sig) for t in premises)
    goal = parse_formula(goal_text, kb.sig)
    assert prove(gamma, goal, 3, kb.universe(gamma + (goal,))).outcome == "unknown"
    forged = Proof(goal=goal, premises_used=gamma[:1], steps=(
        Step("premise", (), gamma[0], (), ()),
        Step("forall_intro_ground", (0,), goal, (), universe[goal.var.sort]),
    ), depth=0, universe=tuple(universe.items()))
    with pytest.raises(CheckError, match=f"universe omits ground term of sort {sort}"):
        check_proof(forged, gamma, goal, sig=kb.sig)


# ---------------------------------------------------------------------------
# xor_elim: the inclusive disjunction, or one pair's exclusion

PQR = Xor((P, Q, R))


def _xor_elim_proof(src, out, extra):
    """premise `src`, then one xor_elim step from it to `out`."""
    return Proof(goal=out, premises_used=(src,), steps=(
        Step("premise", (), src, (), ()),
        Step("xor_elim", (0,), out, (), extra),
    ), depth=0, universe=())


@pytest.mark.parametrize("out, extra", [
    (Or((P, Q, R)), ()),
    (Not(And((P, R))), (0, 2)),
    (Not(And((Q, R))), (1, 2)),
])
def test_checker_accepts_xor_elim(out, extra):
    assert check_proof(_xor_elim_proof(PQR, out, extra), (PQR,), out, sig=Signature())


@pytest.mark.parametrize("src, out, extra, why", [
    (PQR, Not(And((P, P))), (0, 0), "no pair of operand positions"),
    (PQR, Not(And((Q, P))), (1, 0), "no pair of operand positions"),
    (PQR, Not(And((P, R))), (0, 3), "no pair of operand positions"),
    (PQR, Not(And((P, R))), (-3, 2), "no pair of operand positions"),
    (PQR, Not(And((P, R))), (0, 1), "neither the disjunction nor the selected exclusion"),
    (Or((P, Q, R)), Or((P, Q, R)), (), "input is not an exclusive disjunction"),
    (And((P, Q, R)), Not(And((P, Q))), (0, 1), "input is not an exclusive disjunction"),
    (PQR, Or((P, Q)), (), "neither the disjunction nor the selected exclusion"),
    (PQR, Or((P, Q, R, P)), (), "neither the disjunction nor the selected exclusion"),
])
def test_checker_rejects_a_forged_xor_elim(src, out, extra, why):
    with pytest.raises(CheckError, match=why):
        check_proof(_xor_elim_proof(src, out, extra), (src,), out, sig=Signature())

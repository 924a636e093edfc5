import random

import pytest

from mucal.checker import check_proof
from mucal.errors import CheckError
from mucal.logic import App, Atom, Believes, Const, Falsum, Not, collect_ground_terms
from mucal.prover import Proof, prove, projection
from mucal.syntax import parse_formula

P = Atom(App("p", (), "Boolean"))


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
    out.append((prove(gamma, goal, depth=3).proof, gamma, goal))

    negs = tuple(parse_formula(f"(not (win ticket{i}))", sig) for i in range(1, 6))
    goal2 = parse_formula("(not (exists (t) (win t)))", sig)
    out.append((prove(negs, goal2, depth=3,
                      universe=lottery_kb.herbrand()).proof, negs, goal2))

    goal3 = Falsum()
    gamma3 = gamma + negs
    out.append((prove(gamma3, goal3, depth=3).proof, gamma3, goal3))

    theta1 = murder_kb.candidates[0].formula
    prems = projection(murder_kb, "s", "now", extra=(theta1,))
    goal4 = parse_formula("(murderer alice)", murder_kb.sig)
    out.append((prove(prems, goal4, depth=3).proof, prems, goal4))

    prems5 = projection(murder_kb, "s", "now",
                        extra=tuple(c.formula for c in murder_kb.candidates[1:]))
    goal5 = parse_formula("(not (murderer alice))", murder_kb.sig)
    out.append((prove(prems5, goal5, depth=3).proof, prems5, goal5))

    rsig = rain_kb.sig
    gamma6 = tuple(a.formula for a in rain_kb.axioms) + rain_kb.background()
    goal6 = parse_formula("(believes mary now (holds raining t1))", rsig)
    out.append((prove(gamma6, goal6, depth=2).proof, gamma6, goal6))
    return out


def test_corpus_proofs_replay(lottery_kb, murder_kb, rain_kb):
    triples = corpus_proofs(lottery_kb, murder_kb, rain_kb)
    assert all(p is not None for p, _, _ in triples)
    for proof, gamma, goal in triples:
        assert check_proof(proof, gamma, goal)


def test_checker_rejects_wrong_goal(lottery_kb):
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    proof = prove(gamma, goal, depth=3).proof
    other = parse_formula("(win ticket1)", lottery_kb.sig)
    with pytest.raises(CheckError):
        check_proof(proof, gamma, other)


def test_checker_rejects_foreign_premise(lottery_kb):
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    goal = parse_formula("(exists (t) (win t))", lottery_kb.sig)
    proof = prove(gamma, goal, depth=3).proof
    with pytest.raises(CheckError):
        check_proof(proof, (P,), goal)


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
                check_proof(mutant, gamma, goal)
            except CheckError:
                rejected += 1
                continue
            raise AssertionError(f"corruption accepted: {desc}")
    assert attempts >= 100
    assert rejected == attempts


def test_checker_accepts_a_generator_premise_set():
    # the premise set is read twice (premise keys, then the moment order)
    from mucal.kb import parse_kb

    kb = parse_kb(
        "(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)"
        "(prior t1 t2)(axiom x :certain (perceives a t1 (p)))"
    )
    gamma = tuple(ax.formula for ax in kb.axioms) + kb.background()
    goal = parse_formula("(believes a t2 (p))", kb.sig)
    result = prove(gamma, goal, depth=2)
    assert result.outcome == "proved"
    assert check_proof(result.proof, gamma, goal)
    assert check_proof(result.proof, (g for g in gamma), goal)


def test_checker_rejects_an_agent_of_another_sort():
    # both agents print as `a`; only their sorts tell them apart
    from mucal.kb import parse_kb

    kb = parse_kb(
        "(const a Agent)(const t1 Moment)(const t2 Moment)(func p () Boolean)"
        "(prior t1 t2)(axiom x :certain (perceives a t1 (p)))"
    )
    gamma = tuple(ax.formula for ax in kb.axioms) + kb.background()
    goal = parse_formula("(believes a t2 (p))", kb.sig)
    proof = prove(gamma, goal, depth=2).proof
    assert check_proof(proof, gamma, goal)
    (i,) = [i for i, s in enumerate(proof.steps) if s.rule == "r_p"]
    step = proof.steps[i]
    assert step.formula.agent == Const("a", "Agent")
    other = Believes(Const("a", "Self"), step.formula.moment, step.formula.body)
    steps = proof.steps[:i] + (replace(step, formula=other),) + proof.steps[i + 1:]
    universe = dict(proof.universe)
    for sort, terms in collect_ground_terms((other,)).items():
        universe[sort] = tuple(dict.fromkeys(universe.get(sort, ()) + tuple(terms)))
    forged = replace(proof, goal=other, steps=steps, universe=tuple(universe.items()))
    with pytest.raises(CheckError, match="agent mismatch"):
        check_proof(forged, gamma, other)

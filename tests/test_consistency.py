import pytest

from mucal.kb import parse_kb
from mucal.logic import App, Atom, Falsum, Not
from mucal import models
from mucal.prover import prove
from mucal.syntax import parse_formula
from oracles import truth_table_consistent

P = Atom(App("p", (), "Boolean"))
Q = Atom(App("q", (), "Boolean"))


def test_direct_contradiction():
    assert models.consistent((P, Not(P))) == models.INCONSISTENT


def test_single_atom():
    assert models.consistent((P,)) == models.CONSISTENT


def test_falsum_inconsistent():
    assert models.consistent((Falsum(),)) == models.INCONSISTENT


def test_murder_with_theta1_consistent(murder_kb):
    gamma = tuple(a.formula for a in murder_kb.axioms)
    theta1 = murder_kb.candidates[0].formula
    check = gamma + (theta1,) + murder_kb.background()
    assert models.consistent(
        check, universe=murder_kb.herbrand()
    ) == models.CONSISTENT
    # oracle: ground-model enumeration over the murder Herbrand base
    assert truth_table_consistent(check, murder_kb.herbrand(), atom_cap=24) is True


def test_murder_with_both_thetas_inconsistent(murder_kb):
    gamma = tuple(a.formula for a in murder_kb.axioms)
    extra = tuple(c.formula for c in murder_kb.candidates)
    check = gamma + extra + murder_kb.background()
    assert models.consistent(
        check, universe=murder_kb.herbrand()
    ) == models.INCONSISTENT
    assert truth_table_consistent(check, murder_kb.herbrand(), atom_cap=24) is False


def test_lottery_axiom_consistent(lottery_kb):
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    assert models.consistent(gamma, universe=lottery_kb.herbrand()) == models.CONSISTENT
    assert truth_table_consistent(gamma, lottery_kb.herbrand()) is True


def test_lottery_with_all_negations(lottery_kb):
    sig = lottery_kb.sig
    gamma = tuple(a.formula for a in lottery_kb.axioms) + tuple(
        parse_formula(f"(not (win ticket{i}))", sig) for i in range(1, 6)
    )
    assert models.consistent(gamma, universe=lottery_kb.herbrand()) == models.INCONSISTENT
    assert truth_table_consistent(gamma, lottery_kb.herbrand()) is False


def test_budget_exhaustion_is_unknown(lottery_kb):
    gamma = tuple(a.formula for a in lottery_kb.axioms)
    assert models.consistent(gamma, atom_budget=2) == models.UNKNOWN


def test_quantified_consistency():
    kb = parse_kb(
        "(const c1 Object)(const c2 Object)(func r (Object) Boolean)"
        "(axiom all (forall (x Object) (r x)))"
        "(axiom neg (not (r c1)))"
    )
    gamma = tuple(a.formula for a in kb.axioms)
    assert models.consistent(gamma, universe=kb.herbrand()) == models.INCONSISTENT
    assert truth_table_consistent(gamma, kb.herbrand()) is False


def test_belief_closure_forces_inconsistency():
    kb = parse_kb(
        "(const a Agent)(const now Moment)(func p () Boolean)(func q () Boolean)"
        "(axiom b1 (believes a now (and (p) (q))))"
        "(axiom nb (not (believes a now (p))))"
    )
    gamma = tuple(a.formula for a in kb.axioms)
    # believing the conjunction forces the conjunct belief by closure
    assert models.consistent(gamma, universe=kb.herbrand()) == models.INCONSISTENT


def test_belief_atoms_stay_open():
    kb = parse_kb(
        "(const a Agent)(const now Moment)(func p () Boolean)"
        "(axiom fact (p))"
        "(axiom nb (not (believes a now (p))))"
    )
    gamma = tuple(a.formula for a in kb.axioms)
    # a fact being true does not force the agent to believe it
    assert models.consistent(gamma, universe=kb.herbrand()) == models.CONSISTENT


def test_random_ground_sets_match_oracle():
    import random

    rng = random.Random(4242)
    kb = parse_kb(
        "(func p () Boolean)(func q () Boolean)(func r () Boolean)"
    )
    atoms = [parse_formula(t, kb.sig) for t in ("(p)", "(q)", "(r)")]

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.35:
            f = rng.choice(atoms)
            return Not(f) if rng.random() < 0.4 else f
        from mucal.logic import And, Implies, Or
        kind = rng.randrange(3)
        a, b = rand_formula(depth - 1), rand_formula(depth - 1)
        return [And((a, b)), Or((a, b)), Implies(a, b)][kind]

    for _ in range(120):
        gamma = tuple(rand_formula(2) for _ in range(rng.randrange(1, 5)))
        got = models.consistent(gamma)
        want = truth_table_consistent(gamma, {})
        assert (got == models.CONSISTENT) == want


def test_belief_closure_reaches_quantifier_instances():
    kb = parse_kb(
        "(const a Agent)(const now Moment)(const c Object)"
        "(func p (Object) Boolean)(func q (Object) Boolean)"
        "(axiom b (believes a now (p c)))"
        "(axiom nb (forall (x Object) (not (believes a now (or (p x) (q x))))))"
    )
    gamma = tuple(a.formula for a in kb.axioms)
    hand = gamma[:1] + (parse_formula("(not (believes a now (or (p c) (q c))))", kb.sig),)
    # the belief in (or (p c) (q c)) exists only as an instance of the
    # quantifier; closure must still pin it, as it does when stated by hand
    assert models.consistent(hand, universe=kb.herbrand()) == models.INCONSISTENT
    assert prove(gamma, Falsum()).outcome == "proved"
    assert models.consistent(gamma, universe=kb.herbrand()) == models.INCONSISTENT

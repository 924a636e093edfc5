"""Records and nodes keep the semantics of the data classes they replace:
constructor defaults, equality by class and fields, field-tuple hashes for
frozen records, read-only fields, and pickle and copy round trips."""

import copy
import pickle

import pytest

from mucal.kb import CandidateEntry, Params
from mucal.logic import App, Atom, Believes, Const, Falsum, Forall, Not, Var
from mucal.prover import Proof, ProofResult, Step
from mucal.reasonable import ProbTable, ReasonablenessVerdict, RevisionWitness
from mucal.strength import StrengthEngine, StrengthJudgment, TrailEntry
from mucal.syntax import Token, parse_formula


@pytest.fixture(scope="module")
def lottery_records(lottery_kb):
    """A proof, a witness, a verdict and a judgment from one lottery run."""
    sig = lottery_kb.sig
    engine = StrengthEngine(lottery_kb)
    engine.saturate(1, agent="a", moment="now")
    judgment = engine.classify("a", "now", parse_formula("(not (win ticket1))", sig))
    proof = engine.reason.provable("a", "now", parse_formula("(exists (t) (win t))", sig))
    witness = engine.reason.delta("a", "now", parse_formula("(win ticket1)", sig))
    verdict = engine.reason.more_reasonable(
        "a", "now",
        parse_formula("(believes a now (not (win ticket1)))", sig),
        parse_formula("(believes a now (win ticket1))", sig),
    )
    return {Proof: proof, RevisionWitness: witness,
            ReasonablenessVerdict: verdict, StrengthJudgment: judgment}


def test_records_from_a_lottery_run_survive_pickle_and_copy(lottery_records):
    for cls, record in lottery_records.items():
        assert type(record) is cls
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
    assert len(lottery_records[Proof].steps) > 1
    assert lottery_records[RevisionWitness].proof is not None
    assert lottery_records[ReasonablenessVerdict].evidence
    assert any(t.verdict is not None for t in lottery_records[StrengthJudgment].trail)


def test_frozen_records_are_read_only_and_hash_as_their_fields(lottery_records):
    for record in lottery_records.values():
        name = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        fields = tuple(getattr(record, n) for n in record.__slots__)
        try:
            want = hash(fields)
        except TypeError:  # a verdict's evidence is a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == want
    step = lottery_records[Proof].steps[0]
    assert hash(step) == hash((step.rule, step.inputs, step.formula, step.assumptions, step.extra))


def test_records_equal_only_records_of_their_own_class():
    p = Atom(App("p", (), "Boolean"))
    assert ProofResult("unknown") == ProofResult("unknown", None)
    assert ProofResult("unknown") != ("unknown", None)
    assert Step("premise", (), p, ()) != Step("premise", (), p, (), ("x",))
    assert CandidateEntry("c", p) != ("c", p)
    assert Token("a", 1, 2) == Token("a", 1, 2) != Token("a", 1, 3)


def test_mutable_records_are_unhashable_with_fresh_defaults():
    with pytest.raises(TypeError):
        hash(Params())
    params = Params()
    params.u = 5
    assert (params.u, params.proof_depth, params.ec_flavor) == (5, 3, "minimal")
    assert Params() != params
    assert ProbTable().entries is not ProbTable().entries
    one, other = ReasonablenessVerdict(True, "I"), ReasonablenessVerdict(True, "I")
    assert one.evidence == {} and one.evidence is not other.evidence
    assert TrailEntry("pool", "x") == TrailEntry("pool", "x", None, None)


def test_a_pickled_node_comes_back_as_the_interned_node():
    a, now = Const("a", "Agent"), Const("now", "Moment")
    x = Var("x", "Object")
    nodes = [x, Falsum(), Not(Atom(App("p", (), "Boolean"))),
             Forall(x, Atom(App("win", (x,), "Boolean"))),
             Believes(a, now, Atom(App("win", (Const("t1", "Object"),), "Boolean")))]
    for node in nodes:
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node


def test_node_fields_are_read_only():
    x = Var("x", "Object")
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        del x.sort
    assert (x.name, x.sort) == ("x", "Object")
    assert repr(x) == "Var(name='x', sort='Object')"

"""Independent step-by-step replay of proof objects.

The checker recomputes every rule application and the assumption
bookkeeping from scratch; it shares only the AST and the formula identity
(`logic.formula_key`) with the search, and reads sorts from the caller's
signature.  Any structural defect raises CheckError.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import CheckError
from .logic import (
    And, Believes, Const, Exists, Falsum, Forall, Formula, Iff, Implies,
    Not, Or, Perceives, Signature, collect_ground_terms, expand_sugar,
    formula_key, order_from_premises, substitute_unchecked,
)
from .prover import Proof, Step


def _eq(a: Formula, b: Formula) -> bool:
    return formula_key(a) == formula_key(b)


def check_proof(proof: Proof, gamma: Iterable[Formula],
                goal: Formula | None = None, *, sig: Signature) -> bool:
    """Replay the proof against the premise set under the signature of the
    KB it was proved in (`kb.sig`); True or CheckError."""
    try:
        return _check(proof, gamma, goal, None, sig)
    except CheckError:
        raise
    except Exception as e:  # corrupted objects must be rejected, not crash
        raise CheckError(f"malformed proof object: {type(e).__name__}: {e}")


def _check(proof: Proof, gamma: Iterable[Formula], goal: Formula | None,
           order, sig: Signature) -> bool:
    """Replay the proof over its own universe and the moment order the
    prover used there: `order` when the proof is an `r_b` subproof, which
    is the order of the proof it is nested in, and otherwise
    `order_from_premises` of the premise set over that universe.  That
    universe must hold each ground term of the goal and of every premise,
    used or not, in each bucket `sig` puts it in."""
    gamma = tuple(gamma)  # read three times below: keys, order, terms
    gamma_keys = {formula_key(g) for g in gamma}
    universe = {s: tuple(ts) for s, ts in proof.universe}
    if order is None:
        order = order_from_premises(gamma, universe)

    for f in proof.premises_used:
        if formula_key(f) not in gamma_keys:
            raise CheckError(f"premise not in the premise set: {f}")
    needed = collect_ground_terms(gamma + (proof.goal,), sig.sorts)
    for s, ts in needed.items():
        have = set(universe.get(s, ()))
        for t in ts:
            if t not in have:
                raise CheckError(f"universe omits ground term of sort {s}")

    steps = proof.steps
    if not steps:
        raise CheckError("empty proof")
    for i, step in enumerate(steps):
        if any(j >= i or j < 0 for j in step.inputs):
            raise CheckError(f"step {i}: forward or negative reference")
        _check_step(i, step, steps, gamma_keys, universe, order, sig)
        expected = _assumptions(i, step, steps)
        if tuple(sorted(expected)) != tuple(step.assumptions):
            raise CheckError(f"step {i}: assumption bookkeeping mismatch")

    last = steps[-1]
    if last.assumptions:
        raise CheckError("final step depends on undischarged assumptions")
    if not _eq(last.formula, proof.goal):
        raise CheckError("final step does not conclude the goal")
    if goal is not None and not _eq(proof.goal, expand_sugar(goal)):
        raise CheckError("proof goal differs from the requested goal")
    return True


def _assumptions(i: int, step: Step, steps: tuple) -> set:
    rule = step.rule
    ins = [steps[j] for j in step.inputs]
    if rule == "premise":
        return set()
    if rule == "assume":
        return {i}
    if rule in ("neg_intro", "imp_intro", "raa"):
        sub, a = ins
        a_idx = step.inputs[1]
        return set(sub.assumptions) - {a_idx}
    if rule in ("or_elim", "exists_elim_ground"):
        src = ins[0]
        out = set(src.assumptions)
        rest = step.inputs[1:]
        for a_idx, c_idx in zip(rest[0::2], rest[1::2]):
            out |= set(steps[c_idx].assumptions) - {a_idx}
        return out
    out: set = set()
    for j in step.inputs:
        out |= set(steps[j].assumptions)
    return out


def _check_step(i: int, step: Step, steps: tuple, gamma_keys: set,
                universe: dict, order, sig: Signature) -> None:
    rule = step.rule
    ins = [steps[j] for j in step.inputs]
    f = step.formula

    def fail(msg: str):
        raise CheckError(f"step {i} ({rule}): {msg}")

    if rule == "premise":
        if ins:
            fail("premises take no inputs")
        if formula_key(f) not in gamma_keys:
            fail("not a premise")
    elif rule == "assume":
        if ins:
            fail("assumptions take no inputs")
    elif rule == "and_elim":
        (src,) = ins
        k = step.extra[0]
        if not isinstance(src.formula, And):
            fail("input is not a conjunction")
        if not _eq(f, src.formula.args[k]):
            fail("output is not the selected conjunct")
    elif rule == "and_intro":
        if not isinstance(f, And) or len(f.args) != len(ins):
            fail("arity mismatch")
        for arg, src in zip(f.args, ins):
            if not _eq(arg, src.formula):
                fail("conjunct does not match its input")
    elif rule == "or_intro":
        (src,) = ins
        if not isinstance(f, Or):
            fail("output is not a disjunction")
        if not any(_eq(arg, src.formula) for arg in f.args):
            fail("input is not a disjunct of the output")
    elif rule == "imp_elim":
        imp, ante = ins
        if not isinstance(imp.formula, Implies):
            fail("first input is not an implication")
        if not _eq(imp.formula.left, ante.formula):
            fail("antecedent mismatch")
        if not _eq(f, imp.formula.right):
            fail("output is not the consequent")
    elif rule == "imp_intro":
        sub, a = ins
        if a.rule != "assume":
            fail("second input must be an assumption")
        if not isinstance(f, Implies):
            fail("output is not an implication")
        if not _eq(f.left, a.formula) or not _eq(f.right, sub.formula):
            fail("implication does not match the subderivation")
    elif rule == "iff_elim":
        (src,) = ins
        if not isinstance(src.formula, Iff):
            fail("input is not a biconditional")
        want = (
            Implies(src.formula.left, src.formula.right)
            if step.extra[0] == "lr"
            else Implies(src.formula.right, src.formula.left)
        )
        if not _eq(f, want):
            fail("output direction mismatch")
    elif rule == "iff_intro":
        lr, rl = ins
        if not isinstance(f, Iff):
            fail("output is not a biconditional")
        if not _eq(lr.formula, Implies(f.left, f.right)):
            fail("left-to-right direction mismatch")
        if not _eq(rl.formula, Implies(f.right, f.left)):
            fail("right-to-left direction mismatch")
    elif rule == "neg_elim":
        pos, neg = ins
        if not isinstance(f, Falsum):
            fail("output must be falsum")
        if not _eq(neg.formula, Not(pos.formula)):
            fail("inputs are not complementary")
    elif rule == "neg_intro":
        sub, a = ins
        if a.rule != "assume":
            fail("second input must be an assumption")
        if not isinstance(sub.formula, Falsum):
            fail("subderivation must conclude falsum")
        if not _eq(f, Not(a.formula)):
            fail("output is not the negated assumption")
    elif rule == "raa":
        sub, a = ins
        if a.rule != "assume":
            fail("second input must be an assumption")
        if not isinstance(sub.formula, Falsum):
            fail("subderivation must conclude falsum")
        if not _eq(a.formula, Not(f)):
            fail("assumption is not the negated output")
    elif rule == "dn_elim":
        (src,) = ins
        if not (isinstance(src.formula, Not) and isinstance(src.formula.body, Not)):
            fail("input is not a double negation")
        if not _eq(f, src.formula.body.body):
            fail("output mismatch")
    elif rule == "efq":
        (src,) = ins
        if not isinstance(src.formula, Falsum):
            fail("input must be falsum")
    elif rule == "forall_elim":
        (src,) = ins
        vars_ = []
        body = src.formula
        for var, term in step.extra:
            if not isinstance(body, Forall) or body.var != var:
                fail("binder mismatch")
            vars_.append((body.var, term))
            body = body.body
        inst = body
        for var, term in vars_:
            inst = substitute_unchecked(inst, var, term)
        if not _eq(f, inst):
            fail("instance mismatch")
    elif rule == "forall_intro_ground":
        if not isinstance(f, Forall):
            fail("output is not universal")
        pool = universe.get(f.var.sort, ())
        if tuple(step.extra) != tuple(pool) or not pool:
            fail("cases do not cover the universe")
        if len(ins) != len(pool):
            fail("case count mismatch")
        for t, src in zip(pool, ins):
            if not _eq(src.formula, substitute_unchecked(f.body, f.var, t)):
                fail("case instance mismatch")
    elif rule == "exists_intro":
        (src,) = ins
        if not isinstance(f, Exists):
            fail("output is not existential")
        (witness,) = step.extra
        if not _eq(src.formula, substitute_unchecked(f.body, f.var, witness)):
            fail("witness instance mismatch")
    elif rule == "or_elim":
        src = ins[0]
        if not isinstance(src.formula, Or):
            fail("source is not a disjunction")
        rest = step.inputs[1:]
        if len(rest) != 2 * len(src.formula.args):
            fail("case count mismatch")
        for arg, (a_idx, c_idx) in zip(src.formula.args, zip(rest[0::2], rest[1::2])):
            a, c = steps[a_idx], steps[c_idx]
            if a.rule != "assume" or not _eq(a.formula, arg):
                fail("case assumption mismatch")
            if not _eq(c.formula, f):
                fail("case conclusion mismatch")
    elif rule == "exists_elim_ground":
        src = ins[0]
        if not isinstance(src.formula, Exists):
            fail("source is not existential")
        pool = universe.get(src.formula.var.sort, ())
        if tuple(step.extra) != tuple(pool) or not pool:
            fail("cases do not cover the universe")
        rest = step.inputs[1:]
        if len(rest) != 2 * len(pool):
            fail("case count mismatch")
        for t, (a_idx, c_idx) in zip(pool, zip(rest[0::2], rest[1::2])):
            a, c = steps[a_idx], steps[c_idx]
            want = substitute_unchecked(src.formula.body, src.formula.var, t)
            if a.rule != "assume" or not _eq(a.formula, want):
                fail("case assumption mismatch")
            if not _eq(c.formula, f):
                fail("case conclusion mismatch")
    elif rule == "r_p":
        (src,) = ins
        if not isinstance(src.formula, Perceives):
            fail("input is not a perception")
        if not isinstance(f, Believes):
            fail("output is not a belief")
        sf = src.formula
        if sf.agent != f.agent:
            fail("agent mismatch")
        if not (isinstance(sf.moment, Const) and isinstance(f.moment, Const)):
            fail("moments must be ground")
        if not order.lt(sf.moment.name, f.moment.name):
            fail("perception moment is not strictly earlier")
        if not _eq(sf.body, f.body):
            fail("content mismatch")
    elif rule == "r_b":
        if not isinstance(f, Believes) or not isinstance(f.moment, Const):
            fail("output is not a ground belief")
        contents = []
        for src in ins:
            sf = src.formula
            if not isinstance(sf, Believes) or not isinstance(sf.moment, Const):
                fail("inputs must be ground beliefs")
            if sf.agent != f.agent:
                fail("agent mismatch")
            if not order.le(sf.moment.name, f.moment.name):
                fail("belief moment is after the conclusion moment")
            contents.append(sf.body)
        (sub,) = step.extra
        if not isinstance(sub, Proof):
            fail("missing closure subproof")
        if not _eq(sub.goal, f.body):
            fail("subproof does not conclude the believed content")
        content_keys = {formula_key(c) for c in contents}
        for p in sub.premises_used:
            if formula_key(p) not in content_keys:
                fail("subproof uses a premise outside the believed contents")
        _check(sub, contents, None, order, sig)
    else:
        fail("unknown rule")

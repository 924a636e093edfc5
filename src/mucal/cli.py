"""Command-line interface.

Exit codes are a stable contract:

    prove           0 proved, 1 unknown, 2 refuted
    strength        the level number (1..5), 10 when no level is assigned
    compare         0 verdict computed
    counterfactual  0 witness found, 3 no consistent revision found
    explain         0 explanation rendered
    check-kb        0 document valid

    64              usage, parse, sort or name errors (any command)
    141             standard output closed before the answer was written

Each command accepts only the options it reads: --depth on every command
but check-kb, --u and --rounds on strength and explain, --trace on prove,
strength and counterfactual.  Rationals print as exact fractions.
MUCAL_DEPTH overrides the default proof depth; --depth overrides both.
Budgets (--depth, --u, --rounds and MUCAL_DEPTH) are non-negative
integers; anything else exits 64.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from .errors import MucalError
from .kb import KbDocument, load_kb
from .logic import StrengthLevel
from .prover import Proof, prove, rho
from .reasonable import ReasonEngine, ReasonablenessVerdict, RevisionWitness
from .strength import StrengthEngine, explain as explain_judgment, verdict_detail
from .syntax import parse_formula, print_formula


def _proof_trace(proof: Proof, indent: str = "") -> str:
    lines = []
    for i, s in enumerate(proof.steps):
        ins = ",".join(str(j) for j in s.inputs)
        assm = ",".join(str(a) for a in s.assumptions)
        lines.append(
            f"{indent}{i}. {s.rule}[{ins}]" + (f" assume({assm})" if assm else "")
            + " " + print_formula(s.formula)
        )
    return "\n".join(lines)


def _proof_dict(proof: Proof) -> dict:
    return {
        "goal": print_formula(proof.goal),
        "premises": [print_formula(p) for p in proof.premises_used],
        "depth": proof.depth,
        "steps": [
            {
                "index": i,
                "rule": s.rule,
                "inputs": list(s.inputs),
                "assumptions": list(s.assumptions),
                "formula": print_formula(s.formula),
            }
            for i, s in enumerate(proof.steps)
        ],
    }


def _witness_dict(w: Optional[RevisionWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "theta": list(w.theta_labels),
        "lambda": list(w.lam_labels),
        "distance": str(Fraction(w.distance)),
    }


def _verdict_dict(v: ReasonablenessVerdict) -> dict:
    out = {"holds": v.holds, "clause": v.clause, "note": v.note}
    ev = {}
    for k, val in v.evidence.items():
        if isinstance(val, Fraction):
            ev[k] = str(val)
        elif isinstance(val, RevisionWitness):
            ev[k] = _witness_dict(val)
        elif isinstance(val, Proof):
            ev[k] = {"steps": len(val.steps)}
        elif val is None:
            ev[k] = None
        else:
            ev[k] = str(val)
    out["evidence"] = ev
    return out


def _natural(text: str) -> int:
    """A budget value: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _load(args) -> KbDocument:
    kb = load_kb(args.kb)
    depth = os.environ.get("MUCAL_DEPTH")
    if depth is not None:
        try:
            kb.params.proof_depth = _natural(depth)
        except argparse.ArgumentTypeError as e:
            raise MucalError(f"MUCAL_DEPTH: {e}")
    if getattr(args, "depth", None) is not None:
        kb.params.proof_depth = args.depth
    if getattr(args, "u", None) is not None:
        kb.params.u = args.u
    return kb


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json  # only here: a plain command does not pay for loading it

        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def cmd_prove(args) -> int:
    kb = _load(args)
    goal = parse_formula(args.formula, kb.sig)
    premises = kb.all_premises()
    result = prove(premises, goal, depth=kb.params.proof_depth,
                   universe=kb.universe(premises + (goal,)), refute=True)
    lines = [f"{result.outcome}: {print_formula(goal)}"]
    payload = {"outcome": result.outcome, "goal": print_formula(goal)}
    if result.proof is not None:
        cost = rho(result.proof)
        payload["cost"] = str(cost)
        if args.json:
            payload["proof"] = _proof_dict(result.proof)
        lines.append(f"cost: {cost}")
        if args.trace:
            lines.append(_proof_trace(result.proof))
    _emit(args, payload, "\n".join(lines))
    return {"proved": 0, "unknown": 1, "refuted": 2}[result.outcome]


def _trail_lines(report: dict) -> list:
    """One line per trail entry of an explanation report."""
    lines = []
    for d in report["details"]:
        tail = d.get("evidence") or d.get("note") or ""
        mark = ""
        if "satisfied" in d:
            mark = " [satisfied]" if d["satisfied"] else " [not satisfied]"
        lines.append(f"- {d['comparison']}{mark}" + (f" :: {tail}" if tail else ""))
    return lines


def _judge(args) -> tuple:
    """The formula's strength judgment at the frame, and its explanation."""
    kb = _load(args)
    goal = parse_formula(args.formula, kb.sig)
    engine = StrengthEngine(kb)
    engine.saturate(args.rounds, agent=args.agent, moment=args.at)
    j = engine.classify(args.agent, args.at, goal)
    return j, explain_judgment(j)


def cmd_strength(args) -> int:
    j, report = _judge(args)
    lines = [
        f"level {int(j.level)} ({j.level.label}) for {print_formula(j.formula)}",
        f"satisfied levels: {sorted(j.satisfied_levels)}",
    ]
    if args.trace:
        lines += _trail_lines(report)
    _emit(args, report, "\n".join(lines))
    return int(j.level) if j.level != StrengthLevel.NONE else 10


def cmd_compare(args) -> int:
    kb = _load(args)
    f = parse_formula(args.formula, kb.sig)
    g = parse_formula(args.other, kb.sig)
    v = ReasonEngine(kb).more_reasonable(args.agent, args.at, f, g)
    if v.note == "irreflexive":
        text = "not more reasonable (irreflexive)"
    elif v.holds:
        text = f"more reasonable via clause {v.clause}"
    elif v.clause == "inapplicable":
        text = f"inapplicable: {v.note or 'no clause decides the pair'}"
    else:
        text = f"not more reasonable (decided by clause {v.clause})"
    detail = verdict_detail(v)
    payload = _verdict_dict(v)
    payload["left"] = print_formula(f)
    payload["right"] = print_formula(g)
    _emit(args, payload, text + "\n" + detail)
    return 0


def cmd_counterfactual(args) -> int:
    kb = _load(args)
    goal = parse_formula(args.formula, kb.sig)
    w = ReasonEngine(kb).delta(args.agent, args.at, goal)
    if w is None:
        _emit(args, {"witness": None}, "no consistent revision found")
        return 3
    adds = ", ".join(w.theta_labels) or "(none)"
    drops = ", ".join(w.lam_labels) or "(none)"
    lines = [
        f"delta: {w.distance}",
        f"additions: {adds}",
        f"removals: {drops}",
    ]
    if args.trace and w.proof is not None:
        lines.append(_proof_trace(w.proof))
    payload = {"witness": _witness_dict(w)}
    if args.json and w.proof is not None:
        payload["proof"] = _proof_dict(w.proof)
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_explain(args) -> int:
    _, report = _judge(args)
    lines = [report["headline"]] + _trail_lines(report)
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_check_kb(args) -> int:
    kb = _load(args)
    info = {
        "axioms": len(kb.axioms),
        "certain": len(kb.certain_axioms()),
        "candidates": len(kb.candidates),
        "probabilities": len(kb.prob_entries),
        "agents": kb.agents(),
        "moments": kb.order().moments,
        "finitely_ground": kb.finitely_ground(),
    }
    text = "\n".join(f"{k}: {v}" for k, v in info.items())
    _emit(args, info, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucal",
        description="reasoner for sorted modal event-calculus knowledge bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, frame=True, depth=True, rounds=False,
                trace=False, formula=True):
        """A subcommand with exactly the options it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--kb", required=True, help="knowledge-base file")
        if depth:
            p.add_argument("--depth", type=_natural, default=None, help="proof depth budget")
        if rounds:
            p.add_argument("--u", type=_natural, default=None, help="level-spread bound")
            p.add_argument("--rounds", type=_natural, default=3, help="saturation rounds")
        if trace:
            p.add_argument("--trace", action="store_true", help="emit proof/evidence traces")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if frame:
            p.add_argument("--agent", required=True)
            p.add_argument("--at", required=True, help="moment of evaluation")
        if formula:
            p.add_argument("formula", help="formula in surface syntax")
        p.set_defaults(fn=fn)
        return p

    command("prove", cmd_prove, "prove a formula from the KB", frame=False, trace=True)
    command("strength", cmd_strength, "grade a belief's strength level",
            rounds=True, trace=True)
    command("compare", cmd_compare, "which of two formulas is more reasonable",
            ).add_argument("other", help="the formula compared against")
    command("counterfactual", cmd_counterfactual,
            "closest consistent revision deriving the formula", trace=True)
    command("explain", cmd_explain, "explain the strength judgment", rounds=True)
    command("check-kb", cmd_check_kb, "validate a KB file", frame=False,
            depth=False, formula=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 64 if e.code not in (0, None) else 0
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader left early: say nothing, and point stdout at devnull
        # so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a pipe reader's exit
    except (MucalError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())

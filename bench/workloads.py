"""Seeded workload families for the mucal benchmark.

Two knowledge-base families are generated here, and ``mucal`` only ever
sees the files they write:

* the N-ticket lottery, laid out like ``scenarios/lottery5.kb``
  (``lottery_entries(5)`` is that file, entry for entry);
* the murder timeline stretched to an M-moment ``prior`` chain, laid out
  like ``scenarios/murder.kb`` (``timeline_entries(4)`` is that file).

A seed chooses the queried ticket K, the order of entries inside each run
of same-kind entries (declarations stay ahead of their uses) and the order
of the commands.  Every command carries a reference answer: an exit code
and one output line, taken from the paper's golden transcripts in
``tests/golden`` and the README, never from running the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# Workload sizes.  The largest `timeline` and `wide` sizes run past a budget
# (the models atom budget, the prover's saturation cap) that makes answers
# miss their reference; they stay so that such misses show in pass_ratio.
SIZES = {
    "lottery": (5, 7, 9),
    "timeline": (10, 20, 40),
    "wide": (40, 80, 120),
}

EXISTS = "(exists (t) (win t))"


# ---------------------------------------------------------------------------
# Entries

def split_entries(text: str) -> list:
    """Top-level forms of a KB text, comments dropped and whitespace
    collapsed to single spaces, in file order."""
    entries, depth, cur = [], 0, []
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        for word in line.replace("(", " ( ").replace(")", " ) ").split():
            cur.append(word)
            if word == "(":
                depth += 1
            elif word == ")":
                depth -= 1
                if depth == 0:
                    entries.append(" ".join(cur).replace("( ", "(").replace(" )", ")"))
                    cur = []
    if depth or cur:
        raise ValueError("unbalanced KB text")
    return entries


def lottery_entries(n: int) -> list:
    tickets = [f"ticket{i}" for i in range(1, n + 1)]
    out = ["(const a Agent)", "(const now Moment)"]
    out += [f"(const {t} Object)" for t in tickets]
    out.append("(func win (Object) Boolean)")
    wins = " ".join(f"(win {t})" for t in tickets)
    out.append(f"(axiom someone-wins :certain (xor {wins}))")
    out += [f"(pr a now (win {t}) 1/{n})" for t in tickets]
    out.append(f"(candidate ewin {EXISTS})")
    out.append(f"(candidate nwin (not {EXISTS}))")
    out += [f"(candidate no{i} (not (win ticket{i})))" for i in range(1, n + 1)]
    return out


def timeline_entries(m: int) -> list:
    """The murder scenario with moments t0 < ... < t(m-1) < now; the
    murder happens at the last t moment, the sale at t1."""
    last = f"t{m - 1}"
    out = [
        "(const s Agent)", "(const alice Agent)", "(const bob Agent)",
        "(const sale Event)",
    ]
    out += [f"(const t{i} Moment)" for i in range(m)]
    out.append("(const now Moment)")
    out += [f"(prior t{i} t{i + 1})" for i in range(m - 1)]
    out.append(f"(prior {last} now)")
    out += [
        "(func owns (Agent) Fluent)",
        "(func murderer (Agent) Boolean)",
        "(axiom suspects :certain (xor (murderer alice) (murderer bob)))",
        "(axiom owner-did-it :certain (forall (x Agent) "
        f"(implies (holds (owns x) {last}) (murderer x))))",
        "(axiom alice-owned-t0 :certain (holds (owns alice) t0))",
        f"(candidate theta1 (implies (holds (owns alice) t0) (holds (owns alice) {last})))",
        "(candidate theta2a (happens sale t1))",
        f"(candidate theta2b (implies (happens sale t1) (holds (owns bob) {last})))",
    ]
    return out


def shuffle_runs(entries: list, rng: random.Random) -> list:
    """Shuffle inside each maximal run of entries with the same head, so
    every declaration still precedes its first use."""
    out, run = [], []
    for e in entries + [None]:
        if run and (e is None or e.split()[0] != run[0].split()[0]):
            rng.shuffle(run)
            out += run
            run = []
        if e is not None:
            run.append(e)
    return out


# ---------------------------------------------------------------------------
# Commands and reference answers

@dataclass(frozen=True)
class Reference:
    """The expected exit code and one line the output must contain.

    ``weak`` lists exit codes that are sound but incomplete answers
    (``unknown``, a lower level, no revision found): they miss the
    reference without contradicting it.  Any other mismatch is wrong.
    """
    exit: int
    line: str
    weak: tuple = ()


@dataclass(frozen=True)
class Command:
    kb: str                 # file name inside the work directory
    argv: tuple             # mucal arguments after the --kb flag's value
    ref: Reference

    @property
    def label(self) -> str:
        return f"{self.argv[0]}@{self.kb}"

    def mucal_args(self, kb_path: str) -> list:
        return [self.argv[0], "--kb", kb_path, *self.argv[1:]]


def _strength(kb, agent, moment, formula, printed, level, label):
    # a lower level or no level (exit 10) is a weaker, still sound answer
    weak = tuple(range(1, level)) + (10,)
    return Command(kb, ("strength", "--agent", agent, "--at", moment, formula),
                   Reference(level, f"level {level} ({label}) for {printed}", weak))


def lottery_commands(kb: str, k: int) -> list:
    """[PAPER] lottery resolution (tests/golden/lottery_strength_*): the
    existential winner is certain, each ticket's loss only presumed, and
    nothing combines the two into `no ticket wins`."""
    lose = f"(not (win ticket{k}))"
    frame = ("--agent", "a", "--at", "now")
    return [
        _strength(kb, "a", "now", EXISTS, "(exists (t Object) (win t))", 5, "certain"),
        _strength(kb, "a", "now", lose, lose, 2, "some presumption in favor"),
        Command(kb, ("compare", *frame, EXISTS, lose),
                Reference(0, "more reasonable via clause III")),
        Command(kb, ("counterfactual", *frame, f"(not {EXISTS})"),
                Reference(3, "no consistent revision found")),
    ]


def timeline_commands(kb: str, m: int) -> list:
    """[PAPER] murder presumption (tests/golden/murder_*): the minimal
    revision assumes persistence (theta1, distance 9), which grades
    `alice is the murderer` at level 2."""
    moments = sorted([f"t{i}" for i in range(m)] + ["now"])
    frame = ("--agent", "s", "--at", "now")
    return [
        Command(kb, ("check-kb",), Reference(0, f"moments: {moments}")),
        Command(kb, ("counterfactual", *frame, "(murderer alice)"),
                Reference(0, "delta: 9", weak=(3,))),
        _strength(kb, "s", "now", "(murderer alice)", "(murderer alice)",
                  2, "some presumption in favor"),
    ]


def wide_commands(kb: str, n: int, k: int) -> list:
    """[PAPER] the lottery entailment and the full-scale probability
    clause (tests/golden/lottery_prove_exists, lottery_full_compare)."""
    frame = ("--agent", "a", "--at", "now")
    return [
        Command(kb, ("prove", EXISTS),
                Reference(0, "proved: (exists (t Object) (win t))", weak=(1,))),
        Command(kb, ("check-kb",), Reference(0, f"probabilities: {n}")),
        Command(kb, ("compare", *frame, f"(not (win ticket{k}))", f"(win ticket{k})"),
                Reference(0, "more reasonable via clause I")),
    ]


@dataclass
class Workload:
    name: str
    kbs: dict        # file name -> KB text
    commands: list   # Command, in the seeded order


def _kb_text(entries: list) -> str:
    return "\n".join(entries) + "\n"


def build(name: str, seed: Optional[int], sizes: Optional[tuple] = None) -> Workload:
    """The workload's KB texts and command list for a seed.  Seed None
    keeps the canonical entry and command order and ticket 1."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    kbs, commands = {}, []
    for size in sizes or SIZES[name]:
        kb = f"{name}{size}.kb"
        if name == "timeline":
            entries = timeline_entries(size)
            cmds = timeline_commands(kb, size)
        else:
            entries = lottery_entries(size)
            k = 1 if seed is None else rng.randint(1, size)
            cmds = (lottery_commands(kb, k) if name == "lottery"
                    else wide_commands(kb, size, k))
        if seed is not None:
            entries = shuffle_runs(entries, rng)
        kbs[kb] = _kb_text(entries)
        commands += cmds
    if seed is not None:
        rng.shuffle(commands)
    return Workload(name, kbs, commands)

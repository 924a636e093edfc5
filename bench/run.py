"""The mucal benchmark.

    python3 bench/run.py --workload lottery|timeline|wide --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's knowledge bases
and command list are generated from the seed (see ``workloads.py``) into
``.bench_build/``; every command then runs the real CLI
(``python -m mucal.cli``) in a fresh process, one at a time, in a closed
loop with one client.  Each answer is checked against its reference.

``--trace 0`` measures set-up (a fresh interpreter importing the CLI and
loading each KB of the workload, repeated and the median taken), then
runs the whole command list at least twice, and again while another pass
is expected to end within ``--seconds``, and reports the end-to-end
metrics.  ``--trace 1`` runs the list once untraced
and once under ``tracer.py``, checks that both give byte-identical
answers, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
commands that missed their reference (weaker answer, wrong answer or the
per-command time cap); ``correct`` is false only when an answer
contradicts its reference or tracing changed an answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

SETUP_REPS = 7        # set-up measurements per run; the median is reported
MIN_PASSES = 2        # whole command-list passes per untraced run, at least
COMMAND_CAP_S = 60.0  # a command still running after this is killed: "capped"
RUN_BUDGET_S = 150.0  # no command starts later than this into a run

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
)

# per-layer metric -> the span it reads; methods are named without their class
_SPAN = {
    "reasonable.delta": "reasonable.ReasonEngine.delta",
    "reasonable.provable": "reasonable.ReasonEngine.provable",
    "reasonable.more_reasonable": "reasonable.ReasonEngine.more_reasonable",
    "strength.saturate": "strength.StrengthEngine.saturate",
    "strength.classify": "strength.StrengthEngine.classify",
    "kb.order": "kb.KbDocument.order",
    "kb.herbrand": "kb.KbDocument.herbrand",
}

PER_LAYER = (
    ("logic.normalize.calls", "count"),
    ("logic.normalize.s", "s"),
    ("logic.struct_key.calls", "count"),
    ("logic.struct_key.s", "s"),
    ("prover.prove.calls", "count"),
    ("prover.prove.self_s", "s"),
    ("prover.prove.unknown", "count"),
    ("prover.prove.proved_ratio", "ratio"),
    ("reasonable.delta.calls", "count"),
    ("reasonable.delta.self_s", "s"),
    ("reasonable.delta.prove_calls", "count"),
    ("logic.order_from_premises.calls", "count"),
    ("logic.order_from_premises.s", "s"),
    ("logic.collect_ground_terms.calls", "count"),
    ("logic.collect_ground_terms.s", "s"),
    ("eventcalc.background.calls", "count"),
    ("eventcalc.background.s", "s"),
    ("models.consistent.calls", "count"),
    ("models.consistent.self_s", "s"),
    ("models.consistent.unknown", "count"),
    ("kb.load_kb.s", "s"),
    ("kb.order.s", "s"),
    ("kb.herbrand.s", "s"),
    ("syntax.read_all.s", "s"),
    ("strength.saturate.s", "s"),
    ("strength.classify.s", "s"),
    ("reasonable.more_reasonable.calls", "count"),
    ("reasonable.provable.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("startup_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# ---------------------------------------------------------------------------
# Child processes

@dataclass
class Outcome:
    """One finished child process."""
    code: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    capped: bool
    spawned: float    # perf_counter just before the child was started


def run_child(argv: list, env: dict, workdir: Path, cap_s: float) -> Outcome:
    """Run argv to completion, killing it after cap_s seconds.

    The child is waited for with ``waitid(WNOWAIT)`` before it is reaped
    with ``wait4``, so its own CPU time and peak RSS are read and the kill
    timer can never signal a reused pid.
    """
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out:
        lock = threading.Lock()
        state = {"exited": False, "capped": False}

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["capped"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=workdir)
        timer = threading.Timer(max(cap_s, 0.0), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            ended = time.perf_counter()
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=proc.returncode,
        stdout=out_path.read_bytes(),
        wall_s=ended - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        capped=state["capped"],
        spawned=spawned,
    )


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHASHSEED", "MUCAL_DEPTH")}
    env["PYTHONPATH"] = str(SRC)
    # the hash seed follows the workload seed, so one seed repeats exactly
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


# ---------------------------------------------------------------------------
# Checking answers

def judge(cmd: workloads.Command, out: Outcome) -> str:
    """ok, capped, weak (a sound but incomplete answer) or wrong."""
    if out.capped:
        return "capped"
    ref = cmd.ref
    if out.code == ref.exit and ref.line in out.stdout.decode("utf-8", "replace").splitlines():
        return "ok"
    if out.code in ref.weak:
        return "weak"
    return "wrong"


@dataclass
class Result:
    cmd: workloads.Command
    out: Outcome
    status: str


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path,
                 deadline: float):
        self.workload = workload
        self.env = child_env(seed)
        self.workdir = workdir
        self.deadline = deadline

    def command(self, cmd: workloads.Command, traced_to: str = "") -> Result:
        args = cmd.mucal_args(str(self.workdir / cmd.kb))
        if traced_to:
            argv = [sys.executable, str(Path(tracer.__file__)), traced_to, "--", *args]
        else:
            argv = [sys.executable, "-m", "mucal.cli", *args]
        cap = min(COMMAND_CAP_S, self.deadline - time.perf_counter())
        out = run_child(argv, self.env, self.workdir, cap)
        return Result(cmd, out, judge(cmd, out))

    def one_pass(self, traced_dir: str = "") -> tuple:
        """(pass wall seconds, results) for the whole command list."""
        start = time.perf_counter()
        results = []
        for i, cmd in enumerate(self.workload.commands):
            spans = os.path.join(traced_dir, f"{i}.spans") if traced_dir else ""
            results.append(self.command(cmd, spans))
        return time.perf_counter() - start, results

    def setup_s(self) -> float:
        """Median over SETUP_REPS of: a fresh interpreter importing the CLI
        and loading one KB, summed over the workload's KBs."""
        code = "import sys\nfrom mucal.cli import load_kb\nload_kb(sys.argv[1])\n"
        sums = []
        for _ in range(SETUP_REPS):
            total = 0.0
            for kb in self.workload.kbs:
                out = run_child([sys.executable, "-c", code, kb], self.env,
                                self.workdir, COMMAND_CAP_S)
                if out.code != 0:
                    raise RuntimeError(f"loading {kb} failed with exit {out.code}")
                total += out.wall_s
            sums.append(total)
        return statistics.median(sums)


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(runner: Runner, seconds: float) -> tuple:
    setup = runner.setup_s()
    begin = time.perf_counter()
    walls, cpus, results = [], [], []
    while True:
        wall, res = runner.one_pass()
        walls.append(wall)
        cpus.append(sum(r.out.cpu_s for r in res))
        results += res
        now, typical = time.perf_counter(), statistics.median(walls)
        if now + typical > runner.deadline:
            break
        if len(walls) >= MIN_PASSES and now - begin + typical > seconds:
            break
    # each command's median over the passes, so that the number of passes
    # does not decide which commands the median falls between
    n = len(runner.workload.commands)
    ops = [statistics.median(r.out.wall_s for r in results[i::n]) for i in range(n)]
    passed = sum(r.status == "ok" for r in results)
    print(f"# {len(walls)} passes; op_p50_s is the median of {n} per-command medians")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_p50_s": statistics.median(ops),
        "peak_rss_mb": max(r.out.maxrss_kb for r in results) / 1024,
        "pass_ratio": passed / len(results),
        "setup_s": setup,
    }
    return results, metrics


def _no_spans() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "outcomes": {}, "parents": {}}


def per_layer(runner: Runner) -> tuple:
    plain_wall, plain = runner.one_pass()
    spans_dir = tempfile.mkdtemp(dir=runner.workdir)
    traced_wall, traced = runner.one_pass(spans_dir)
    changed = [t.cmd.label for p, t in zip(plain, traced)
               if (p.out.code, p.out.stdout) != (t.out.code, t.out.stdout)]
    for label in changed:
        print(f"# traced answer differs: {label}")

    merged: dict = {}
    startup = 0.0
    for i, t in enumerate(traced):
        path = os.path.join(spans_dir, f"{i}.spans")
        if not os.path.exists(path):
            continue
        header, stats = tracer.aggregate(path)
        os.remove(path)
        main = stats.get("cli.main")
        if main and main["calls"]:
            startup += main["first_start"] - t.out.spawned - header["install_s"]
        for name, st in stats.items():
            m = merged.setdefault(name, _no_spans())
            for k in ("calls", "s", "self_s"):
                m[k] += st[k]
            for k in ("outcomes", "parents"):
                for key, n in st[k].items():
                    m[k][key] = m[k].get(key, 0) + n

    def span(metric: str) -> dict:
        name = _SPAN.get(metric, metric)
        return merged.get(name) or _no_spans()

    prove = span("prover.prove")
    values = {
        "prover.prove.unknown": prove["outcomes"].get("unknown", 0),
        "prover.prove.proved_ratio":
            prove["outcomes"].get("proved", 0) / prove["calls"] if prove["calls"] else 0.0,
        "reasonable.delta.prove_calls": prove["parents"].get(_SPAN["reasonable.delta"], 0),
        "models.consistent.unknown": span("models.consistent")["outcomes"].get("unknown", 0),
        "cli.self_s": sum(m["self_s"] for n, m in merged.items() if n.startswith("cli.")),
        "startup_s": startup,
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    metrics = {}
    for name, _unit in PER_LAYER:
        if name in values:
            metrics[name] = values[name]
        else:
            layer, _, field = name.rpartition(".")
            metrics[name] = span(layer)[field]
    return plain, not changed, metrics


# ---------------------------------------------------------------------------

def build() -> None:
    """Byte-compile the package once, so no measured process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "mucal")],
                   check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mucal" / "cli.py").is_file():
        print(f"error: no mucal sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    build()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        wl = workloads.build(args.workload, args.seed)
        for name, text in wl.kbs.items():
            (workdir / name).write_text(text, encoding="utf-8")
        runner = Runner(wl, args.seed, workdir, started + RUN_BUDGET_S)
        if args.trace:
            results, same, metrics = per_layer(runner)
        else:
            results, metrics = end_to_end(runner, args.seconds)
            same = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in results[:len(wl.commands)]:
        print(f"# {r.status:6s} exit {r.out.code:3d} {r.out.wall_s:8.3f} s  {r.cmd.label}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    report = {
        "correct": same and not any(r.status == "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

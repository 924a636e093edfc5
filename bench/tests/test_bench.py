"""Tests of the benchmark itself: generators, references, tracing, names.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _golden(name: str) -> tuple:
    """(exit code, output lines) of a golden transcript."""
    text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    code = int(re.search(r"^# exit: (\d+)$", text, re.M).group(1))
    return code, [ln for ln in text.splitlines() if not ln.startswith("#")]


# -- generators ----------------------------------------------------------

def test_lottery5_reproduces_scenario():
    scenario = (ROOT / "scenarios" / "lottery5.kb").read_text(encoding="utf-8")
    assert workloads.lottery_entries(5) == workloads.split_entries(scenario)


def test_timeline4_reproduces_murder_scenario():
    scenario = (ROOT / "scenarios" / "murder.kb").read_text(encoding="utf-8")
    assert workloads.timeline_entries(4) == workloads.split_entries(scenario)


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_generation_is_deterministic_per_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.kbs == b.kbs and a.commands == b.commands
    c = workloads.build(name, 8)
    assert (a.kbs, a.commands) != (c.kbs, c.commands)


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_seed_only_permutes_entries_and_commands(name):
    canon = workloads.build(name, None)
    seeded = workloads.build(name, 3)
    assert canon.kbs.keys() == seeded.kbs.keys()
    for kb, text in canon.kbs.items():
        assert sorted(workloads.split_entries(text)) == sorted(
            workloads.split_entries(seeded.kbs[kb]))
    assert sorted(c.kb for c in canon.commands) == sorted(c.kb for c in seeded.commands)


def test_seeded_kbs_parse():
    from mucal import parse_kb

    for name in workloads.SIZES:
        wl = workloads.build(name, 11, sizes=(5,) if name != "timeline" else (4,))
        for text in wl.kbs.values():
            parse_kb(text)


# -- reference table -----------------------------------------------------

def _by_verb(cmds: list) -> dict:
    return {c.argv[0]: c for c in cmds}


def test_references_match_goldens():
    lottery = workloads.build("lottery", None, sizes=(5,)).commands
    exists = [c for c in lottery if c.argv[-1] == workloads.EXISTS and c.argv[0] == "strength"]
    code, lines = _golden("lottery_strength_exists")
    assert exists[0].ref.exit == code and exists[0].ref.line in lines

    wide = _by_verb(workloads.build("wide", None, sizes=(5,)).commands)
    code, lines = _golden("lottery_prove_exists")
    assert wide["prove"].ref.exit == code and wide["prove"].ref.line in lines
    code, lines = _golden("lottery_full_compare")
    assert wide["compare"].ref.exit == code and wide["compare"].ref.line in lines

    timeline = _by_verb(workloads.build("timeline", None, sizes=(4,)).commands)
    code, lines = _golden("murder_counterfactual")
    assert timeline["counterfactual"].ref.exit == code
    assert timeline["counterfactual"].ref.line in lines
    code, lines = _golden("murder_explain")
    assert lines[0].startswith("some presumption in favor:")
    assert timeline["strength"].ref.exit == 2
    assert "(some presumption in favor)" in timeline["strength"].ref.line


def test_noexists_reference_level_matches_golden():
    # the per-ticket losing belief carries the level the golden gives the
    # negated existential it feeds: some presumption in favor
    code, lines = _golden("lottery_strength_noexists")
    lose = [c for c in workloads.build("lottery", None, sizes=(5,)).commands
            if c.argv[0] == "strength" and c.argv[-1].startswith("(not (win")]
    assert lose[0].ref.exit == code
    assert lines[0].split(" for ")[0] in lose[0].ref.line


def test_judge_separates_weak_from_wrong():
    cmd = workloads.build("timeline", None, sizes=(4,)).commands[1]
    assert cmd.argv[0] == "counterfactual"

    def out(code, text, capped=False):
        return run.Outcome(code, text.encode(), 1.0, 1.0, 1, capped, 0.0)

    assert run.judge(cmd, out(0, "delta: 9\nadditions: theta1\n")) == "ok"
    assert run.judge(cmd, out(3, "no consistent revision found\n")) == "weak"
    assert run.judge(cmd, out(0, "delta: 7\n")) == "wrong"
    assert run.judge(cmd, out(64, "")) == "wrong"
    assert run.judge(cmd, out(-9, "", capped=True)) == "capped"


# -- tracing -------------------------------------------------------------

def test_no_unwrapped_alias_left():
    t = tracer.Tracer()
    t.install()
    try:
        wrappers = set(t.wrapped.values())
        assert any(w.__wrapped__.__name__ == "prove" for w in wrappers)
        for mod in tracer.mucal_modules():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj):
                    continue
                assert obj not in t.wrapped, f"{mod.__name__}.{name} left unwrapped"
                if obj.__module__.startswith("mucal") and not name.startswith("_"):
                    pytest.fail(f"public {mod.__name__}.{name} not wrapped")
            for cls_name in tracer.CLASSES.get(mod.__name__.rpartition(".")[2], ()):
                for name, obj in vars(getattr(mod, cls_name)).items():
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        assert obj in wrappers, f"{cls_name}.{name} not wrapped"
        import mucal.cli
        import mucal.reasonable
        import mucal.strength
        for mod in (mucal.cli, mucal.reasonable, mucal.strength):
            assert mod.prove in wrappers
    finally:
        t.uninstall()
    import mucal.prover
    assert not hasattr(mucal.prover.prove, "__wrapped__")


def test_traced_answers_equal_untraced(tmp_path):
    kb = tmp_path / "lottery4.kb"
    kb.write_text("\n".join(workloads.lottery_entries(4)) + "\n", encoding="utf-8")
    args = ["strength", "--kb", str(kb), "--agent", "a", "--at", "now",
            "(not (win ticket2))"]
    env = run.child_env(0)
    plain = subprocess.run([sys.executable, "-m", "mucal.cli", *args],
                           capture_output=True, env=env)
    spans = tmp_path / "s.spans"
    traced = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *args],
                            capture_output=True, env=env)
    assert plain.returncode == 2
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    _, stats = tracer.aggregate(str(spans))
    main = stats["cli.main"]
    assert main["calls"] == 1 and main["s"] >= main["self_s"] >= 0
    prove = stats["prover.prove"]
    assert prove["calls"] == sum(prove["outcomes"].values())
    assert stats["reasonable.ReasonEngine.delta"]["calls"] > 0


# -- names ---------------------------------------------------------------

def test_metric_names_and_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.SIZES)
    names = [n for n, _ in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

import io
import contextlib
import json
import os
import subprocess
import sys

import pytest

from mucal.cli import main

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
ROOT = os.path.normpath(os.path.join(HERE, ".."))


def run_cli(argv):
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return rc, buf.getvalue()


def load_golden(name):
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        lines = fh.read().splitlines(keepends=True)
    exit_code = None
    body = []
    for line in lines:
        if line.startswith("# exit: "):
            exit_code = int(line.split(":", 1)[1])
        elif line.startswith("#"):
            continue
        else:
            body.append(line)
    assert exit_code is not None, f"golden {name} lacks an exit line"
    return exit_code, "".join(body)


with open(os.path.join(GOLDEN, "manifest.json")) as fh:
    MANIFEST = json.load(fh)


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden_scenarios(case):
    want_rc, want_out = load_golden(case["name"])
    rc, out = run_cli(case["argv"])
    assert rc == want_rc
    assert out == want_out


def test_golden_determinism():
    # byte-identical output across repeated invocations
    for case in MANIFEST:
        rc1, out1 = run_cli(case["argv"])
        rc2, out2 = run_cli(case["argv"])
        assert (rc1, out1) == (rc2, out2)


def test_exit_code_parse_error():
    rc, _ = run_cli(["prove", "--kb", "scenarios/lottery5.kb", "(believes a now"])
    assert rc == 64


def test_exit_code_unknown_agent():
    rc, _ = run_cli([
        "strength", "--kb", "scenarios/lottery5.kb",
        "--agent", "nobody", "--at", "now", "(win ticket1)",
    ])
    assert rc == 64


_LOTTERY = ["--kb", "scenarios/lottery5.kb"]
_FRAME = _LOTTERY + ["--agent", "a", "--at", "now"]


@pytest.mark.parametrize("formula", [
    "(win now)",  # a Moment where win takes an Object
    "(believes ticket1 now (win ticket1))",  # an Object as the agent
], ids=["argument", "agent"])
@pytest.mark.parametrize("argv", [
    ["prove", *_LOTTERY, "F"],
    ["strength", *_FRAME, "F"],
    ["compare", *_FRAME, "F", "(win ticket1)"],
    ["compare", *_FRAME, "(win ticket1)", "F"],
    ["counterfactual", *_FRAME, "F"],
    ["explain", *_FRAME, "F"],
], ids=["prove", "strength", "compare", "compare-other", "counterfactual", "explain"])
def test_exit_code_ill_sorted_formula(argv, formula, capsys):
    rc, out = run_cli([formula if a == "F" else a for a in argv])
    assert rc == 64
    assert out == ""
    assert "not well-sorted" in capsys.readouterr().err


def test_exit_code_missing_kb():
    rc, _ = run_cli(["prove", "--kb", "scenarios/missing.kb", "(p)"])
    assert rc == 64


def test_exit_code_usage():
    rc, _ = run_cli(["frobnicate"])
    assert rc == 64


def test_counterfactual_falsum_no_witness():
    rc, out = run_cli([
        "counterfactual", "--kb", "scenarios/murder.kb",
        "--agent", "s", "--at", "now", "false",
    ])
    assert rc == 3
    assert "no consistent revision found" in out


def test_counterfactual_provable_goal_zero():
    rc, out = run_cli([
        "counterfactual", "--kb", "scenarios/murder.kb",
        "--agent", "s", "--at", "now", "(holds (owns alice) t0)",
    ])
    assert rc == 0
    assert "delta: 0" in out


def test_json_output_is_machine_readable():
    rc, out = run_cli([
        "compare", "--kb", "scenarios/counterfactual.kb", "--json",
        "--agent", "a", "--at", "t2", "(holds f t1)", "(holds g t1)",
    ])
    assert rc == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["clause"] == "III"
    assert payload["evidence"]["delta_left"]["theta"] == ["story-f"]
    assert payload["evidence"]["delta_left"]["distance"] == "15"


def test_json_strength_report():
    rc, out = run_cli([
        "strength", "--kb", "scenarios/lottery5.kb", "--json",
        "--agent", "a", "--at", "now", "(exists (t) (win t))",
    ])
    assert rc == 5
    payload = json.loads(out)
    assert payload["level"] == 5
    assert payload["level_name"] == "certain"
    assert payload["satisfied_levels"] == [1, 2, 3, 4, 5]


def test_depth_env_override(monkeypatch):
    monkeypatch.setenv("MUCAL_DEPTH", "0")
    rc, _ = run_cli(["prove", "--kb", "scenarios/lottery5.kb", "(exists (t) (win t))"])
    assert rc == 1  # the case split no longer fits the budget
    monkeypatch.delenv("MUCAL_DEPTH")
    rc2, _ = run_cli(["prove", "--kb", "scenarios/lottery5.kb", "(exists (t) (win t))"])
    assert rc2 == 0


def test_compare_irreflexive_message():
    rc, out = run_cli([
        "compare", "--kb", "scenarios/lottery5.kb",
        "--agent", "a", "--at", "now", "(win ticket1)", "(win ticket1)",
    ])
    assert rc == 0
    assert "not more reasonable (irreflexive)" in out


def fresh_env():
    """The environment of a fresh interpreter that imports this tree's mucal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_closed_stdout_exits_quietly():
    # the reader closes its end before any output arrives, as `| head -1`
    # does once it has its line
    proc = subprocess.Popen(
        [sys.executable, "-m", "mucal.cli", "strength",
         "--kb", "scenarios/lottery5.kb", "--agent", "a", "--at", "now",
         "(exists (t) (win t))"],
        cwd=ROOT, env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_importing_the_cli_leaves_out_code_generation_and_json():
    # every command pays for what `import mucal.cli` loads: `dataclasses`
    # (with the `inspect` it pulls in) compiles methods with `exec`, only
    # `--json` needs `json`, and annotations need no `typing`.  `-S` keeps
    # site hooks out of the count.
    code = ("import sys, mucal.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ["prove", "--kb", "scenarios/lottery5.kb", "--depth", "-1", "(exists (t) (win t))"],
    ["strength", "--kb", "scenarios/lottery5.kb", "--agent", "a", "--at", "now",
     "--rounds", "-2", "(exists (t) (win t))"],
    ["strength", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--u", "-1", "(murderer alice)"],
    ["prove", "--kb", "scenarios/lottery5.kb", "--depth", "two", "(exists (t) (win t))"],
], ids=["depth", "rounds", "u", "depth-not-a-number"])
def test_bad_budget_option_is_usage_error(argv, capsys):
    rc, out = run_cli(argv)
    assert rc == 64
    assert out == ""
    assert "expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "deep"])
def test_bad_depth_env_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("MUCAL_DEPTH", value)
    rc, out = run_cli(["prove", "--kb", "scenarios/lottery5.kb", "(exists (t) (win t))"])
    assert rc == 64
    assert out == ""
    assert "error: MUCAL_DEPTH: expected a non-negative integer" in capsys.readouterr().err


def test_prove_universe_follows_declared_subsorts(tmp_path):
    # a constant of a user subsort witnesses an existential over its parent
    kb = tmp_path / "ticket.kb"
    kb.write_text("(sort Ticket Object)(const a Agent)(const now Moment)"
                  "(const t1 Ticket)(func win (Object) Boolean)"
                  "(axiom w :certain (win t1))")
    rc, out = run_cli(["prove", "--kb", str(kb), "(exists (x Object) (win x))"])
    assert rc == 0
    assert out.startswith("proved: (exists (x Object) (win x))")


@pytest.mark.parametrize("argv", [
    ["compare", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--rounds", "7", "(murderer alice)", "(murderer bob)"],
    ["compare", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--u", "4", "(murderer alice)", "(murderer bob)"],
    ["compare", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--trace", "(murderer alice)", "(murderer bob)"],
    ["prove", "--kb", "scenarios/lottery5.kb", "--rounds", "2", "(exists (t) (win t))"],
    ["counterfactual", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--u", "1", "(murderer alice)"],
    ["explain", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--trace", "(murderer alice)"],
    ["check-kb", "--kb", "scenarios/murder.kb", "--depth", "9"],
    ["check-kb", "--kb", "scenarios/murder.kb", "--rounds", "2"],
], ids=["compare-rounds", "compare-u", "compare-trace", "prove-rounds",
        "counterfactual-u", "explain-trace", "check-kb-depth", "check-kb-rounds"])
def test_option_a_command_does_not_read_is_usage_error(argv):
    rc, out = run_cli(argv)
    assert rc == 64
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["prove", "--kb", "scenarios/lottery5.kb", "(exists (t) (win t))"],
    ["prove", "--kb", "scenarios/lottery5.kb", "--trace", "(exists (t) (win t))"],
    ["counterfactual", "--kb", "scenarios/murder.kb", "--agent", "s", "--at", "now",
     "--trace", "(murderer alice)"],
], ids=["prove", "prove-trace", "counterfactual-trace"])
def test_proof_payload_is_built_only_for_json(monkeypatch, argv):
    def refuse(proof):
        raise AssertionError("the --json proof payload was built without --json")

    monkeypatch.setattr("mucal.cli._proof_dict", refuse)
    rc, _ = run_cli(argv)
    assert rc == 0

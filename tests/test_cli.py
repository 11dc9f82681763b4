import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dendrimag import cli, ode, suites
from dendrimag.ode import REFERENCE_REFINEMENT
from dendrimag.report import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_magnus_order_two(capsys):
    code, out, _ = run_cli(capsys, "expand", "magnus", "--order", "2", "--basis", "prelie")
    assert code == 0
    assert "-1/2 (a>a)" in out


def test_expand_magnus_order_one(capsys):
    code, out, _ = run_cli(capsys, "expand", "magnus", "--order", "1")
    assert code == 0
    assert "deg 1: a" in out


def test_expand_fer_blocks(capsys):
    code, out, _ = run_cli(capsys, "expand", "fer", "--order", "3")
    assert code == 0
    assert "U_0" in out and "U_1" in out
    u1_part = out.split("U_1")[1]
    assert "deg 2: -1/2 (a>a)" in u1_part


def test_expand_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "expand", "magnus", "--order", "4", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "expand", "magnus", "--order", "4", "--format", "json")
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["blocks"][0]["components"]["2"] == {"(a>a)": "-1/2"}


GOLDEN_EXPAND = Path(__file__).parent / "golden" / "expand_sha256.txt"


def test_expand_matches_golden_digests(capsys):
    """Every expand output, orders 1..8, against its pinned sha256 (one line per command)."""
    golden = dict(line.split("  ")[::-1] for line in GOLDEN_EXPAND.read_text().splitlines())
    grid = itertools.product(("magnus", "fer"), ("prelie", "rooted", "planar"), range(1, 9), ("text", "json"))
    commands = [f"expand {kind} --order {n} --basis {basis} --format {fmt}" for kind, basis, n, fmt in grid]
    assert sorted(golden) == sorted(commands)
    for command in commands:
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == golden[command], command


def test_expand_bad_order(capsys):
    code, _, err = run_cli(capsys, "expand", "magnus", "--order", "0")
    assert code == 2 and "order" in err


def test_bad_flags_exit_2(capsys):
    assert run_cli(capsys, "expand", "magnus", "--basis", "nope")[0] == 2
    assert run_cli(capsys, "verify", "--suite", "nope")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2


@pytest.mark.parametrize("order,count", [(1, 1), (3, 5), (4, 14)])
def test_trees_counts(capsys, order, count):
    code, out, _ = run_cli(capsys, "trees", "--order", str(order))
    assert code == 0
    assert f"{count} planar binary trees" in out
    assert len([l for l in out.splitlines() if l and not l[0].isdigit()]) == count


def test_trees_ascii(capsys):
    code, out, _ = run_cli(capsys, "trees", "--order", "1", "--render", "ascii")
    assert code == 0
    assert "(o^o)" in out and "*" in out


def test_verify_small_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--order", "4")
    assert code == 0
    assert "info:" in out  # informational entries are labeled
    assert "hard checks passed" in out
    assert "4 monomials" in out and "2 monomials" in out


def test_verify_magnus_suite_order_eight(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "magnus", "--order", "8")
    assert code == 0
    assert "magnus order 8 [free-dendriform]" in out


# every checker a suite hands --order to; each takes the order as its third argument
ORDER_TAKING_CHECKERS = (
    "verify_magnus",
    "verify_fer",
    "power_sum_bridge_check",
    "spitzer_classical_check",
    "spitzer_noncommutative_check",
    "exp_image_check",
    "atkinson_check",
    "classical_magnus_check",
)


def test_verify_passes_order_to_every_checker(capsys, monkeypatch):
    calls = []

    def recorder(name):
        def record(target, a, order, *args, **kwargs):
            calls.append((name, order, kwargs.get("exact_onsets", False)))
            stub = VerificationReport(f"{name} stub")
            # atkinson_check returns its three factorization reports as a list
            return [stub] * 3 if name == "atkinson_check" else stub

        return record

    for name in ORDER_TAKING_CHECKERS:
        monkeypatch.setattr(suites, name, recorder(name))
    for suite in ("magnus", "fer", "spitzer", "atkinson", "chi"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--order", "7")
        assert code == 0
        if suite == "atkinson":  # three reports from each of the three instances
            assert out.count("atkinson_check stub") == 9, out
    assert {name for name, _, _ in calls} == set(ORDER_TAKING_CHECKERS)
    # only the free Fer onsets keep their floor of 8
    assert [order for _, order, onsets in calls if onsets] == [8]
    assert {order for _, order, onsets in calls if not onsets} == {7}, calls


def test_verify_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "chi", "--order", "3", "--seed", "5")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "chi", "--order", "3", "--seed", "5")
    assert out1 == out2


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DENDRIMAG_SEED", "99")
    _, out_env, _ = run_cli(capsys, "verify", "--suite", "chi", "--order", "3")
    monkeypatch.delenv("DENDRIMAG_SEED")
    _, out_flag, _ = run_cli(capsys, "verify", "--suite", "chi", "--order", "3", "--seed", "99")
    assert "seed 99" in out_env
    assert out_env == out_flag


def test_verify_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("DENDRIMAG_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suite", "chi", "--order", "2")
    assert code == 2 and out == ""
    assert "DENDRIMAG_SEED" in err


@pytest.mark.parametrize("order", ["0", "9"])
def test_verify_order_bounds(capsys, monkeypatch, order):
    def no_suite(*args, **kwargs):
        raise AssertionError("an out-of-bounds --order reached a suite")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    code, out, err = run_cli(capsys, "verify", "--suite", "magnus", "--order", order)
    assert code == 2 and out == ""
    assert "--order" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    failing = VerificationReport("rigged")
    failing.add("always fails", False, "by construction")

    def fake_run_suite(name, order, seed):
        return [failing]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "magnus")
    assert code == 1
    assert "FAIL" in out


def test_solve_roundtrip(tmp_path, capsys):
    matrix = {
        "n": 2,
        "degree": 1,
        "coeffs": [[0.0, 1.0, -1.0, 0.0], [0.5, 0.0, 0.0, -0.5]],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(matrix))
    out_csv = tmp_path / "conv.csv"
    code, out, _ = run_cli(
        capsys,
        "solve",
        "--matrix",
        str(path),
        "--steps",
        "8,16,32,64",
        "--method",
        "magnus4",
        "--out",
        str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "steps,h,error,slope_window"
    assert len(lines) == 5
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["method"] == "magnus4"
    assert 3.6 <= summary["slope"] <= 4.4


def test_solve_constant_matrix(tmp_path, capsys):
    import numpy as np
    import scipy.linalg

    c = [[0.0, 2.0], [-1.0, 0.3]]
    matrix = {"n": 2, "degree": 0, "coeffs": [[0.0, 2.0, -1.0, 0.3]]}
    path = tmp_path / "const.json"
    path.write_text(json.dumps(matrix))
    code, out, _ = run_cli(capsys, "solve", "--matrix", str(path), "--steps", "4")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    expected = scipy.linalg.expm(np.array(c))
    assert np.max(np.abs(np.array(summary["final"]) - expected)) <= 1e-10


@pytest.mark.parametrize("target", ["missing/conv.csv", "."], ids=["missing_parent", "directory"])
def test_solve_unwritable_out_exits_2(capsys, tmp_path, target):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "degree": 0, "coeffs": [[1.0]]}))
    out = tmp_path / target
    code, stdout, err = run_cli(capsys, "solve", "--matrix", str(path), "--steps", "4", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"solve: cannot write --out {out}: ") and "Traceback" not in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--matrix", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read matrix file" in err


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"degree": 0, "coeffs": [[1.0]]}, "n"),
        ({"n": 1, "coeffs": [[1.0]]}, "degree"),
        ({"n": 1, "degree": 0}, "coeffs"),
        ({"n": 2, "degree": 0, "coeffs": [[1.0, 2.0]]}, "coeffs[0]"),
        ({"n": 1, "degree": 0, "coeffs": [["x"]]}, "coeffs[0]"),
        ({"n": 1, "degree": 0, "coeffs": [["nan"]]}, "coeffs[0]"),
        ({"n": 1, "degree": 1, "coeffs": [[0.0], [float("inf")]]}, "coeffs[1]"),
        ({"n": True, "degree": 0, "coeffs": [[1.0]]}, "field 'n'"),
        ({"n": 2, "degree": 0, "coeffs": [[True, False, False, True]]}, "coeffs[0]"),
        ({"n": 2, "degree": 0, "coeffs": [["0", "1", "-1", "0"]]}, "coeffs[0] contains a non-numeric entry"),
        ({"n": 1, "degree": 0, "coeffs": [[10**400]]}, "coeffs[0] contains a non-finite entry"),
    ],
)
def test_solve_malformed_input_names_field(capsys, tmp_path, payload, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "solve", "--matrix", str(path))
    assert code == 2
    assert field in err


def test_solve_bad_steps(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "degree": 0, "coeffs": [[1.0]]}))
    code, _, err = run_cli(capsys, "solve", "--matrix", str(path), "--steps", "0,-3")
    assert code == 2 and "steps" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_rejects_non_finite_t_final(capsys, tmp_path, value):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "degree": 0, "coeffs": [[1.0]]}))
    code, _, err = run_cli(capsys, "solve", "--matrix", str(path), "--t-final", value)
    assert code == 2 and "--t-final" in err


@pytest.mark.parametrize(
    "payload,steps,names",
    [
        ({"n": 65, "degree": 0, "coeffs": [[0.0] * 65 * 65]}, "8", ["field 'n'"]),
        ({"n": 1, "degree": 9, "coeffs": [[0.0]] * 10}, "8", ["field 'degree'"]),
        ({"n": 1, "degree": 0, "coeffs": [[1.0]]}, "8,4097", ["--steps"]),
        ({"n": 64, "degree": 0, "coeffs": [[0.0] * 64 * 64]}, "32", ["--steps", "n = 64"]),
        # one step past the reference bound at n = 8, from the refinement ode uses
        (
            {"n": 8, "degree": 0, "coeffs": [[0.0] * 8 * 8]},
            str(cli.MAX_REFERENCE_ENTRIES // (REFERENCE_REFINEMENT * 8 * 8) + 1),
            ["--steps", "n = 8", f"{REFERENCE_REFINEMENT} * steps * n * n"],
        ),
    ],
)
def test_solve_input_bounds(capsys, tmp_path, monkeypatch, payload, steps, names):
    def no_solve(*args, **kwargs):
        raise AssertionError("an out-of-bounds input reached the integrator")

    monkeypatch.setattr(ode, "convergence_sweep", no_solve)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "solve", "--matrix", str(path), "--steps", steps)
    assert code == 2
    assert all(name in err for name in names), err


def test_solve_unknown_method_lists_choices(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "degree": 0, "coeffs": [[1.0]]}))
    code, _, err = run_cli(capsys, "solve", "--matrix", str(path), "--method", "rk4")
    assert code == 2
    assert all(name in err for name in ("fer1", "fer2", "magnus2", "magnus4")), err


def test_solve_overflow_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "degree": 0, "coeffs": [[1e300, 0.0, 0.0, 1e300]]}))
    code, out, err = run_cli(capsys, "solve", "--matrix", str(path), "--steps", "4")
    assert code == 2 and "overflow" in err and out == ""


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# Run in a fresh interpreter: this process has already imported numpy.
_IMPORT_BOUNDARY = """
import sys

import dendrimag
from dendrimag import cli

assert "numpy" not in sys.modules, "import dendrimag.cli loaded numpy"
for argv in (["trees", "--order", "3"], ["expand", "magnus", "--order", "3"], ["verify", "--suite", "chi", "--order", "3"]):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"{argv} loaded numpy"
assert cli.main(["solve", "--matrix", sys.argv[1], "--steps", "4,8"]) == 0
assert "numpy" in sys.modules, "solve ran without numpy"
"""


def test_exact_subcommands_never_load_numpy(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "degree": 0, "coeffs": [[0.5]]}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

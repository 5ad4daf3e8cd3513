"""Command-line entry points and exit codes."""

import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "stripflow"]

FAST = """
[space]
m = 1
A = 1.0

[geometry]
nu = 1.0
L = 16*pi
nx = 32
ny = 9
alpha = 0.5

[initial]
g0 = 0.001*sin(2*pi*x/L)

[solve]
mu = 0.0

[time]
dt = 0.02
t_end = 0.06

[output]
directory = {out}
formats = csv,json
"""

BREAKDOWN = FAST.replace("g0 = 0.001*sin(2*pi*x/L)",
                         "g0 = -0.85*exp(cos(2*pi*x/L) - 1)") \
                .replace("[time]", "[time]\nmargin_floor = 0.2")


def write(tmp_path, text, name="case.scn", out="result"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out), encoding="utf-8")
    return str(path)


def invoke(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd)


def test_version_flag():
    res = invoke("--version")
    assert res.returncode == 0
    assert res.stdout.strip()


def test_validate_good_scenario(tmp_path):
    path = write(tmp_path, FAST)
    res = invoke("validate", path)
    assert res.returncode == 0
    assert "passed" in res.stdout.lower() or "ok" in res.stdout.lower()


def test_validate_missing_file(tmp_path):
    res = invoke("validate", str(tmp_path / "nope.scn"))
    assert res.returncode == 2
    assert res.stderr.strip()


def test_validate_malformed_scenario(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("[space]\nm = 1\n", encoding="utf-8")
    res = invoke("validate", str(path))
    assert res.returncode == 2


@pytest.mark.parametrize("old, new", [
    ("g0 = 0.001*sin(2*pi*x/L)", "g0 = 1/0"),
    ("g0 = 0.001*sin(2*pi*x/L)", "g0 = x/0"),
    ("g0 = 0.001*sin(2*pi*x/L)", "g0 = log(0*x)"),
    ("g0 = 0.001*sin(2*pi*x/L)", "g0 = exp(1000)*x"),
    ("nu = 1.0", "nu = 1.0/0"),
])
def test_validate_non_finite_arithmetic_exit_code(tmp_path, capsys, old, new):
    """Arithmetic that divides by zero or leaves the double range is a
    validation failure (exit 2), not an internal error."""
    from stripflow import cli
    path = write(tmp_path, FAST.replace(old, new))
    assert cli.main(["validate", path]) == 2
    assert "validation failure" in capsys.readouterr().err


def test_run_completes_and_writes(tmp_path):
    path = write(tmp_path, FAST)
    res = invoke("run", path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "result"
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "manifest.json",
                                       "trajectory.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "Completed"
    # 3 steps + initial state
    traj = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(traj) == 1 + 4 * 32


def test_run_out_flag_overrides_directory(tmp_path):
    path = write(tmp_path, FAST)
    other = tmp_path / "elsewhere"
    res = invoke("run", path, "--out", str(other))
    assert res.returncode == 0
    assert other.exists()
    assert not (tmp_path / "result").exists()


def test_run_breakdown_exit_code(tmp_path):
    path = write(tmp_path, BREAKDOWN)
    res = invoke("run", path)
    assert res.returncode == 3
    out = tmp_path / "result"
    # breakdown still writes its outputs for post-mortem study
    assert (out / "trajectory.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "BoundaryApproach"


def test_run_invalid_scenario_exit_code(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text(FAST.format(out=tmp_path / "x")
                    .replace("nx = 32", "nx = 48"), encoding="utf-8")
    res = invoke("run", str(path))
    assert res.returncode == 2


def test_unknown_mode_rejected(tmp_path):
    path = write(tmp_path, FAST)
    res = invoke("run", path, "--mode", "diagnose-everything")
    assert res.returncode == 2


def test_diagnose_frozen_mode(tmp_path):
    path = write(tmp_path, FAST)
    res = invoke("run", path, "--mode", "diagnose-frozen")
    assert res.returncode == 0, res.stderr
    out = tmp_path / "result"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "diagnose-frozen"


def test_deterministic_repeat_is_byte_identical(tmp_path):
    path = write(tmp_path, FAST)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        res = invoke("run", path, "--out", str(out), "--deterministic")
        assert res.returncode == 0, res.stderr
    for name in ("trajectory.csv", "diagnostics.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

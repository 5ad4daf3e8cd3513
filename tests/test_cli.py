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

# two components that differ at every node: the frozen diagnostics, which
# need equal components at their freeze node, must refuse the scenario
UNEQUAL = FAST.replace("m = 1\nA = 1.0", "m = 2\nA = 2.0 0.5; 0.0 1.0") \
              .replace("g0 = 0.001*sin(2*pi*x/L)",
                       "g0 = 0.001*sin(2*pi*x/L); 0.002*sin(2*pi*x/L)")

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


@pytest.mark.parametrize("old, new, named", [
    ("t_end = 0.06", "t_end = 0.06\nmargin_flor = 0.5",
     "[section time] [key margin_flor]"),
    ("formats = csv,json", "formats = csv,json\n\n[extra]\nx = 1",
     "[section extra]"),
])
def test_validate_unknown_key_exit_code(tmp_path, capsys, old, new, named):
    """A misspelt key or a stray section is a validation failure naming it,
    not a silent fall-back to the default."""
    from stripflow import cli
    path = write(tmp_path, FAST.replace(old, new))
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: unknown ") and named in err


@pytest.mark.parametrize("old, new, named", [
    ("A = 1.0", "A = 1.0\nphi = 1.0", "[section space]"),
    ("A = 1.0", "A = 1.0\nM = -1", "[section space]"),
    ("mu = 0.0", "mu = -1", "[section solve] [key mu]"),
    ("mu = 0.0", "mu = 0.0\nrtol = 1e9", "[section solve] [key rtol]"),
    ("mu = 0.0", "mu = 0.0\nrtol = -1", "[section solve] [key rtol]"),
    ("alpha = 0.5", "alpha = 0.5\nh_min = -5",
     "[section geometry] [key h_min]"),
    ("directory = {out}", "directory =", "[section output] [key directory]"),
    ("nu = 1.0", "nu = sin", "[section geometry] [key nu]"),
    ("nu = 1.0", "nu = sin + 1", "[section geometry] [key nu]"),
    ("nu = 1.0", "nu = True", "[section geometry] [key nu]"),
    ("mu = 0.0", "mu = 1e200", "[section solve] [key mu]"),
    ("m = 1", "m = 0", "[section space] [key m]"),
    ("nu = 1.0", "nu = -1", "[section geometry] [key nu]"),
    ("L = 16*pi", "L = 0", "[section geometry] [key L]"),
    ("ny = 9", "ny = 3", "[section geometry] [key ny]"),
    ("dt = 0.02", "dt = 1e-320", "[section time]"),
])
def test_validate_out_of_range_value_exit_code(tmp_path, capsys, old, new,
                                               named):
    """A sector angle outside (pi/2, pi), a nonpositive resolvent bound, a
    negative spectral shift or one whose square overflows, an rtol outside
    (0, 0.01), a nonpositive h_min, nu or L, m < 1, ny < 5, a function name
    or a boolean used as a value, a step count t_end/dt that is not finite
    and an empty output directory are validation failures naming their
    section, found at load rather than by a later run."""
    from stripflow import cli
    path = write(tmp_path, FAST.replace(old, new))
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ") and named in err


def test_unexpected_load_error_is_internal(tmp_path, capsys, monkeypatch):
    """An exception from loading that is not a library error is an
    internal error (exit 4) with its traceback, not an uncaught exit 1."""
    from stripflow import cli

    def broken(path):
        raise RuntimeError("loader bug")
    monkeypatch.setattr(cli, "load_scenario", broken)
    assert cli.main(["validate", write(tmp_path, FAST)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "loader bug" in err


def test_validate_competing_initial_source_exit_code(tmp_path, capsys):
    """A table next to the g0 expression is a validation failure naming
    it, not a key that is read by nothing."""
    from stripflow import cli
    table = " ".join(["0.5"] * 32)
    path = write(tmp_path, FAST.replace(
        "g0 = 0.001*sin(2*pi*x/L)",
        f"g0 = 0.001*sin(2*pi*x/L)\ng0_table = {table}"))
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "[section initial] [key g0_table]" in err


def test_validate_complex_profile_exit_code(tmp_path, capsys):
    """An initial profile with an imaginary part is a validation failure
    naming [initial] g0: the strip operator is real."""
    from stripflow import cli
    path = write(tmp_path, FAST.replace(
        "g0 = 0.001*sin(2*pi*x/L)", "g0 = 0.001*j1*sin(2*pi*x/L)"))
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "real profile" in err and "[section initial] [key g0]" in err


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


def test_run_solver_failure_exit_code(tmp_path, capsys, scenario_dir,
                                     third_step_fails):
    """A failed step solve is exit 4, and the run still writes its outputs:
    the last diagnostics row is the SolverFailure with the failing solve's
    numbers, and the manifest explains the failure."""
    from stripflow import cli
    out = tmp_path / "result"
    scn = os.path.join(scenario_dir, "decay_sine.scn")
    assert cli.main(["run", scn, "--out", str(out)]) == 4
    assert "status=SolverFailure" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "manifest.json",
                                       "trajectory.csv"]
    last = (out / "diagnostics.csv").read_text().strip().splitlines()[-1]
    assert last.split(",")[3:] == ["3e-07", "180", "SolverFailure"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "SolverFailure"
    assert manifest["validation"]["failure_message"].startswith(
        "step 3 (t=0.06): stalled")


def test_run_new_profile_solver_failure_exit_code(tmp_path, capsys,
                                                 scenario_dir,
                                                 third_margin_fails):
    """A failed solve of a step's new profile (its margin's K(g)g) ends the
    run as a SolverFailure too, outputs written, with the last good
    profile's norms and the failing solve's numbers in the last row."""
    from stripflow import cli
    out = tmp_path / "result"
    scn = os.path.join(scenario_dir, "decay_sine.scn")
    assert cli.main(["run", scn, "--out", str(out)]) == 4
    assert "status=SolverFailure" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "manifest.json",
                                       "trajectory.csv"]
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert rows[-1].split(",")[3:] == ["3e-07", "180", "SolverFailure"]
    assert rows[-1].split(",")[1:3] == rows[-2].split(",")[1:3]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "SolverFailure"
    assert manifest["validation"]["failure_message"].startswith(
        "step 1 (t=0.02): stalled")


def test_run_into_foreign_working_directory_exit_code(tmp_path, capsys,
                                                     monkeypatch):
    """--out . in a directory that holds no earlier run's output is a
    validation failure; the directory's files are left alone."""
    from stripflow import cli
    path = write(tmp_path, FAST)
    work = tmp_path / "work"
    work.mkdir()
    (work / "notes.txt").write_text("keep me", encoding="utf-8")
    monkeypatch.chdir(work)
    assert cli.main(["run", path, "--out", "."]) == 2
    assert "validation failure: refusing" in capsys.readouterr().err
    assert os.listdir(work) == ["notes.txt"]
    assert (work / "notes.txt").read_text(encoding="utf-8") == "keep me"


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


@pytest.mark.parametrize("mode", ["diagnose-frozen", "diagnose-coercivity",
                                  "diagnose-localization"])
def test_diagnose_unequal_components_is_validation_failure(tmp_path, capsys,
                                                           mode):
    """Components that differ at the freeze node are bad input (exit 2,
    one line naming the node and the spread), not an internal error."""
    from stripflow import cli
    path = write(tmp_path, UNEQUAL)
    assert cli.main(["run", path, "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure: components of ")
    assert "differ at the freeze node x = " in err and "spread" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "result").exists()


def test_deterministic_repeat_is_byte_identical(tmp_path):
    path = write(tmp_path, FAST)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        res = invoke("run", path, "--out", str(out), "--deterministic")
        assert res.returncode == 0, res.stderr
    for name in ("trajectory.csv", "diagnostics.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

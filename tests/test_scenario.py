"""Scenario files: parsing, validation gates, deterministic artifacts."""

import json
import os
import time

import numpy as np
import pytest

from conftest import SCENARIO_DIR
from stripflow.dtn import DtNOperator
from stripflow.errors import ScenarioError
from stripflow.scenario import (
    export,
    load_scenario,
    run,
    safe_eval,
)
from stripflow.stepper import STATUS_BOUNDARY, STATUS_COMPLETED, evolve
from stripflow.strip import DiscreteStripOperator

MINIMAL = """
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
directory = out/minimal
formats = csv,json
"""


def write_scn(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -------------------------------------------------------------- expressions

def test_safe_eval_arithmetic():
    assert safe_eval("2*pi", {}) == pytest.approx(2 * np.pi)
    assert safe_eval("exp(0) + sqrt(4)", {}) == pytest.approx(3.0)
    assert safe_eval("sin(x)", {"x": np.pi / 2}) == pytest.approx(1.0)


def test_safe_eval_rejects_dunder():
    with pytest.raises(ScenarioError):
        safe_eval("__import__('os').system('true')", {})


def test_safe_eval_rejects_attributes():
    with pytest.raises(ScenarioError):
        safe_eval("(1).__class__", {})


@pytest.mark.parametrize("expr", ["open('/etc/passwd')", "sin", "sin + 1"])
def test_safe_eval_rejects_unknown_names(expr):
    """A name outside the grammar is refused, and so is a function name
    that is not called."""
    with pytest.raises(ScenarioError):
        safe_eval(expr, {})


def test_safe_eval_rejects_strings():
    with pytest.raises(ScenarioError):
        safe_eval("'sh'", {})


@pytest.mark.parametrize("expr", ["9**9**9", "(10**200)**2", "2**-2000"])
def test_safe_eval_bounds_powers(expr):
    """A tower of integer powers is refused at once instead of building an
    arbitrary-precision integer."""
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError, match="power"):
        safe_eval(expr, {})
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("expr", ["1/0", "1.0/0", "j1/0", "x/(2-2)"])
def test_safe_eval_refuses_zero_division(expr):
    with pytest.raises(ScenarioError, match="divides by zero"):
        safe_eval(expr, {"x": 1.0})


@pytest.mark.parametrize("expr", ["sin()", "exp(1, 2)", "sin(x, x)",
                                  "sin(100000000000000000000)"])
def test_safe_eval_refuses_bad_calls(expr):
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ScenarioError, match="calls"):
        safe_eval(expr, {"x": x})
    assert np.array_equal(x, np.linspace(0.0, 1.0, 5))


def test_safe_eval_powers_in_range():
    assert safe_eval("2**10", {}) == 1024.0
    assert safe_eval("(-2)**3 + 4**0.5", {}) == -6.0
    x = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(safe_eval("x**2", {"x": x}), x ** 2)


# ------------------------------------------------------------------ parsing

def test_minimal_scenario_loads(tmp_path):
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    assert scn.m == 1
    assert scn.nx == 32 and scn.ny == 9
    assert scn.L == pytest.approx(16 * np.pi)
    assert scn.profile().g.shape == (32, 1)
    assert scn.config.dt == 0.02
    assert scn.admissibility_report.in_W1


def test_checksum_stable(tmp_path):
    path = write_scn(tmp_path, MINIMAL)
    assert load_scenario(path).checksum == load_scenario(path).checksum


@pytest.mark.parametrize("name, checksum", [
    ("coupled_pair",
     "ce3781f010eea155a1f1c5e2544944a8e201bfe5f8079dd861d4a8c9cef93a25"),
    ("decay_sine",
     "9bf57d6feb73af3b5be22061cdd3a750357a3626eef3fd812f3b25be76f495e3"),
    ("flat",
     "e4364cdaee1f82f450752e13fe8a7896856c5752913c42623dcd6c9db5112771"),
    ("ramp",
     "44168233b38ba1ea8011ec916ca0631664f64b0fe118718e088cac4d9535bf60"),
])
def test_golden_checksums_are_pinned(name, checksum):
    """The canonical form behind the checksum keeps its bytes: a golden's
    manifests name the same scenario across releases."""
    scn = load_scenario(os.path.join(SCENARIO_DIR, name + ".scn"))
    assert scn.checksum == checksum


@pytest.mark.parametrize("old, new, section, key", [
    ("t_end = 0.06", "t_end = 0.06\nmargin_flor = 0.5", "time",
     "margin_flor"),
    ("formats = csv,json", "formats = csv,json\n\n[extra]\nx = 1", "extra",
     None),
    ("nu = 1.0", "nu = 1.0\ng0 = 0", "geometry", "g0"),
    ("g0 = 0.001*sin(2*pi*x/L)", "g0 = 0\ng0_table_2 = 0", "initial",
     "g0_table_2"),
])
def test_unknown_key_or_section_rejected(tmp_path, old, new, section, key):
    with pytest.raises(ScenarioError, match="unknown") as exc:
        load_scenario(write_scn(tmp_path, MINIMAL.replace(old, new)))
    assert (exc.value.section, exc.value.key) == (section, key)


COUPLED = MINIMAL.replace("m = 1\nA = 1.0", "m = 2\nA = 2.0 0.5; 0.0 1.0")
G0 = "g0 = 0.001*sin(2*pi*x/L)"
TABLE = " ".join(["0.0"] * 32)


@pytest.mark.parametrize("base, initial, key, match", [
    (MINIMAL, f"{G0}\ng0_table = {TABLE}", "g0_table", "one initial"),
    (MINIMAL, f"{G0}\ng0_table_1 = {TABLE}", "g0_table_1", "one initial"),
    (MINIMAL, f"g0_table = {TABLE}\ng0_table_1 = {TABLE}", "g0_table_1",
     "one initial"),
    (COUPLED, f"{G0}\ng0_table_1 = {TABLE}\ng0_table_2 = {TABLE}",
     "g0_table_1", "one initial"),
    (COUPLED, f"g0_table = {TABLE}\ng0_table_1 = {TABLE}\n"
     f"g0_table_2 = {TABLE}", "g0_table", "unknown key"),
], ids=["g0+table", "g0+table_1", "table+table_1", "m2-g0+tables",
        "m2-table+tables"])
def test_competing_initial_sources_rejected(tmp_path, base, initial, key,
                                            match):
    """[initial] takes exactly one of g0, g0_table (m = 1) or the
    g0_table_<c> set; a second source is refused, not silently unread."""
    text = base.replace(G0, initial)
    with pytest.raises(ScenarioError, match=match) as exc:
        load_scenario(write_scn(tmp_path, text))
    assert (exc.value.section, exc.value.key) == ("initial", key)


def test_complex_matrix_entry_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="real number") as exc:
        load_scenario(write_scn(tmp_path, MINIMAL.replace("A = 1.0",
                                                          "A = j1")))
    assert (exc.value.section, exc.value.key) == ("space", "A")


def test_missing_section_rejected(tmp_path):
    text = MINIMAL.replace("[time]\ndt = 0.02\nt_end = 0.06\n", "")
    with pytest.raises(ScenarioError, match="time"):
        load_scenario(write_scn(tmp_path, text))


def test_duplicate_key_rejected(tmp_path):
    text = MINIMAL.replace("nx = 32", "nx = 32\nnx = 64")
    with pytest.raises(ScenarioError, match="nx"):
        load_scenario(write_scn(tmp_path, text))


def test_bad_expression_rejected(tmp_path):
    text = MINIMAL.replace("g0 = 0.001*sin(2*pi*x/L)", "g0 = sin(")
    with pytest.raises(ScenarioError):
        load_scenario(write_scn(tmp_path, text))


@pytest.mark.parametrize("key, line", [
    ("g0", "g0 = x/0"),
    ("g0", "g0 = log(0*x)"),
    ("g0", "g0 = exp(1000)*x"),
    ("nu", "nu = exp(1000)"),
    ("A", "A = exp(1000)"),
])
def test_non_finite_values_rejected(tmp_path, key, line):
    text = "\n".join(line if raw.startswith(f"{key} = ") else raw
                     for raw in MINIMAL.splitlines())
    with pytest.raises(ScenarioError, match="not finite") as exc:
        load_scenario(write_scn(tmp_path, text))
    assert exc.value.key == key


def test_non_finite_table_entry_rejected(tmp_path):
    table = " ".join(["0.0"] * 31 + ["exp(1000)"])
    text = MINIMAL.replace("g0 = 0.001*sin(2*pi*x/L)", f"g0_table = {table}")
    with pytest.raises(ScenarioError, match="not finite") as exc:
        load_scenario(write_scn(tmp_path, text))
    assert (exc.value.section, exc.value.key) == ("initial", "g0_table")


def test_non_power_of_two_nx_rejected(tmp_path):
    text = MINIMAL.replace("nx = 32", "nx = 48")
    with pytest.raises(ScenarioError, match="power"):
        load_scenario(write_scn(tmp_path, text))


def test_alpha_range_enforced(tmp_path):
    text = MINIMAL.replace("alpha = 0.5", "alpha = 1.5")
    with pytest.raises(ScenarioError, match="alpha"):
        load_scenario(write_scn(tmp_path, text))


@pytest.mark.parametrize("old, new, section, key, match", [
    ("A = 1.0", "A = 1.0\nphi = 1", "space", "phi", r"phi must be in \(pi/2"),
    ("A = 1.0", "A = 1.0\nM = 0", "space", "M", "M must be positive"),
    ("dt = 0.02", "dt = 0.02\nnorm_cap = -1", "time", "norm_cap",
     "norm_cap must be positive"),
    ("dt = 0.02", "dt = 0.02\nmargin_floor = 0", "time", "margin_floor",
     "margin_floor must be positive"),
    ("dt = 0.02", "dt = -1", "time", "dt", "dt must be positive"),
    ("dt = 0.02", "dt = 0.02\noutput_stride = 0", "time", "output_stride",
     "output_stride must be at least 1"),
    ("dt = 0.02", "dt = 0.02\nscheme = rk4", "time", "scheme",
     "scheme must be semi_implicit_euler"),
    ("A = 1.0", "A = 1e7", "space", "A", r"resolves only moduli in \[0.05, 5000\]"),
    ("A = 1.0", "A = 1e4", "space", "A", r"resolves only moduli in \[0.05, 5000\]"),
])
def test_out_of_range_refusal_names_the_scenario_key(tmp_path, old, new,
                                                     section, key, match):
    """phi, M, norm_cap, margin_floor, dt, output_stride and scheme are
    refused under their own key, not under the name of the constructor
    parameter that takes them; an A whose eigenvalues the interpolation
    norm cannot resolve is refused under A."""
    text = MINIMAL.replace(old, new)
    with pytest.raises(ScenarioError, match=match) as exc:
        load_scenario(write_scn(tmp_path, text))
    assert (exc.value.section, exc.value.key) == (section, key)


def test_matrix_shape_enforced(tmp_path):
    text = MINIMAL.replace("m = 1", "m = 2")
    with pytest.raises(ScenarioError):
        load_scenario(write_scn(tmp_path, text))


def test_degenerate_initial_profile_rejected(tmp_path):
    text = MINIMAL.replace("g0 = 0.001*sin(2*pi*x/L)",
                           "g0 = -1.5*exp(cos(2*pi*x/L) - 1)")
    with pytest.raises(ScenarioError, match="[Ee]llipticity|degener"):
        load_scenario(write_scn(tmp_path, text))


def test_unknown_output_format_rejected(tmp_path):
    text = MINIMAL.replace("formats = csv,json", "formats = csv,hdf5")
    with pytest.raises(ScenarioError, match="format"):
        load_scenario(write_scn(tmp_path, text))


def test_coupled_matrix_rows(tmp_path):
    text = MINIMAL.replace("m = 1", "m = 2")
    text = text.replace("A = 1.0", "A = 2.0 0.5; 0.0 1.0")
    text = text.replace("g0 = 0.001*sin(2*pi*x/L)",
                        "g0 = 0.001*sin(2*pi*x/L); 0.001*sin(2*pi*x/L)")
    scn = load_scenario(write_scn(tmp_path, text))
    assert scn.m == 2
    assert scn.A.entries.shape == (2, 2)
    assert scn.A.entries[0, 1] == 0.5
    assert scn.profile().g.shape == (32, 2)


# ----------------------------------------------------------------- artifacts

def read_trajectory(out_dir):
    """Round-trip reader for export(); returns (times, g, diagnostics) with
    g stacked (time, node, component) and one dict per diagnostics row."""
    path = os.path.join(out_dir, "trajectory.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([line.strip().split(",") for line in fh],
                        dtype=float)
    times = np.unique(rows[:, 0])
    g = (rows[:, 2::2] + 1j * rows[:, 3::2]).reshape(
        times.size, -1, (len(header) - 2) // 2)
    path = os.path.join(out_dir, "diagnostics.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        diagnostics = [dict(zip(header, line.strip().split(",")))
                       for line in fh]
    return times, g, diagnostics


def test_export_round_trip(tmp_path):
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    traj = evolve(scn.profile(), scn.A, scn.config)
    out = str(tmp_path / "out")
    os.makedirs(out)
    export(traj, out)
    times, g, diags = read_trajectory(out)
    assert times.shape[0] == len(traj.times)
    assert np.allclose(times, traj.times)
    for s, prof in enumerate(traj.profiles):
        assert np.array_equal(g[s], prof.g)      # repr round-trip is exact
    assert len(diags) == len(traj.diagnostics)
    assert diags[-1]["status"] in (STATUS_COMPLETED, "OK")


def test_run_writes_manifest_and_outputs(tmp_path):
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = str(tmp_path / "run_out")
    manifest, status = run(scn, out_dir=out)
    assert status == STATUS_COMPLETED
    assert manifest.scenario_checksum == scn.checksum
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "manifest.json",
                                       "trajectory.csv"]
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["status"] == STATUS_COMPLETED
    assert data["grid"]["nx"] == 32


def test_run_is_atomic_on_failure(tmp_path, monkeypatch):
    """A crash mid-write must not leave a partial output directory."""
    import stripflow.scenario as scn_mod
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = str(tmp_path / "never_appears")

    def boom(*a, **k):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(scn_mod, "export", boom)
    with pytest.raises(RuntimeError):
        run(scn, out_dir=out)
    assert not os.path.exists(out)


def test_failed_replacement_keeps_previous_output(tmp_path, monkeypatch):
    """If moving the new output into place fails, the previous output
    directory is still there, unchanged."""
    import stripflow.scenario as scn_mod
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = str(tmp_path / "run_out")
    run(scn, out_dir=out)
    before = {p.name: p.read_bytes() for p in (tmp_path / "run_out").iterdir()}
    real_rename = os.rename
    calls = []

    def flaky_rename(src, dst):
        calls.append((src, dst))
        if len(calls) == 2:
            raise OSError("rename failed")
        real_rename(src, dst)

    monkeypatch.setattr(scn_mod.os, "rename", flaky_rename)
    with pytest.raises(OSError, match="rename failed"):
        run(scn, out_dir=out)
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in (tmp_path / "run_out").iterdir()}
    assert after == before
    assert sorted(os.listdir(tmp_path)) == ["case.scn", "run_out"]


def test_run_refuses_a_directory_it_did_not_write(tmp_path):
    """An existing target with no manifest.json is refused before anything
    runs: its files survive and no staging directory is left behind."""
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = tmp_path / "mine"
    out.mkdir()
    (out / "notes.txt").write_text("keep me", encoding="utf-8")
    with pytest.raises(ScenarioError, match="no manifest.json"):
        run(scn, out_dir=str(out))
    assert os.listdir(out) == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "keep me"
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".stripflow-")]


def test_run_refuses_a_negative_seed(tmp_path):
    """A negative seed is refused, as an unknown mode is, before any
    directory is made."""
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        run(scn, mode="diagnose-coercivity",
            out_dir=str(tmp_path / "new" / "out"), seed=-1)
    assert os.listdir(tmp_path) == ["case.scn"]


def test_run_refuses_an_ancestor_of_the_working_directory(tmp_path,
                                                          monkeypatch):
    """The working directory and its ancestors are refused even when they
    hold an earlier run's output: replacing them would pull the directory
    out from under the caller."""
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = tmp_path / "run_out"
    run(scn, out_dir=str(out))
    (out / "sub").mkdir()
    monkeypatch.chdir(out / "sub")
    with pytest.raises(ScenarioError, match="working directory"):
        run(scn, out_dir=str(out))
    assert (out / "sub").is_dir()


def test_deterministic_run_zeroes_wall_clock(tmp_path):
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = str(tmp_path / "det")
    manifest, _ = run(scn, out_dir=out, deterministic=True)
    assert manifest.wall_clock_seconds == 0.0


def test_breakdown_run_still_writes_outputs(tmp_path):
    text = MINIMAL.replace("g0 = 0.001*sin(2*pi*x/L)",
                           "g0 = -0.85*exp(cos(2*pi*x/L) - 1)")
    text = text.replace("[time]", "[time]\nmargin_floor = 0.2")
    scn = load_scenario(write_scn(tmp_path, text))
    out = str(tmp_path / "bd")
    manifest, status = run(scn, out_dir=out)
    assert status == STATUS_BOUNDARY
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert manifest.status == STATUS_BOUNDARY


def test_breakdown_run_reuses_the_loaded_solve(tmp_path, monkeypatch):
    """The K(g)g solve behind the load-time margin serves the run: a run
    that stops at t = 0 makes no strip solve of its own."""
    text = MINIMAL.replace("g0 = 0.001*sin(2*pi*x/L)",
                           "g0 = -0.85*exp(cos(2*pi*x/L) - 1)")
    text = text.replace("[time]", "[time]\nmargin_floor = 0.2")
    scn = load_scenario(write_scn(tmp_path, text))
    solves = []
    real_solve = DiscreteStripOperator.solve
    monkeypatch.setattr(DiscreteStripOperator, "solve",
                        lambda op, *a, **k: solves.append(op)
                        or real_solve(op, *a, **k))
    _, status = run(scn, out_dir=str(tmp_path / "bd"))
    assert status == STATUS_BOUNDARY
    assert solves == []


@pytest.mark.parametrize("mode, builds", [("diagnose-frozen", 1),
                                          ("diagnose-coercivity", 0),
                                          ("diagnose-localization", 4)])
def test_diagnose_builds_each_frozen_node_once(tmp_path, monkeypatch, mode,
                                               builds):
    """The localization sweep's 7 patches (delta = 1, 0.5, 0.25) sit on 4
    distinct nodes and build one frozen set each; the coercivity probe
    needs only the frozen coefficients."""
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    nodes = []
    real_build = DtNOperator._build_frozen_set
    monkeypatch.setattr(DtNOperator, "_build_frozen_set",
                        lambda dtn, i0, *a: nodes.append(i0)
                        or real_build(dtn, i0, *a))
    out = tmp_path / "diag"
    _, status = run(scn, mode=mode, out_dir=str(out))
    assert status == STATUS_COMPLETED
    assert len(nodes) == len(set(nodes)) == builds
    if mode == "diagnose-localization":
        report = json.loads((out / "localization.json").read_text())
        centers = [c for patch in report["per_patch"] for c in patch["centers"]]
        assert len(centers) == 7 and len(set(centers)) == builds


@pytest.mark.parametrize("name", ["decay_sine", "coupled_pair"])
def test_localization_sweep_makes_one_strip_solve(tmp_path, monkeypatch,
                                                  name):
    """The sweep reads dO(g) of its direction off one strip solve for all
    three patch sizes, and its frozen sets reuse the load's K(g)g solve."""
    scn = load_scenario(os.path.join(SCENARIO_DIR, name + ".scn"))
    solves = []
    real_solve = DiscreteStripOperator.solve
    monkeypatch.setattr(DiscreteStripOperator, "solve",
                        lambda op, *a, **k: solves.append(op)
                        or real_solve(op, *a, **k))
    _, status = run(scn, mode="diagnose-localization",
                    out_dir=str(tmp_path / "loc"))
    assert status == STATUS_COMPLETED
    assert len(solves) == 1


def test_evolve_refuses_a_foreign_operator(tmp_path):
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    other = load_scenario(write_scn(tmp_path, MINIMAL, name="other.scn"))
    with pytest.raises(ValueError, match="not built for this profile"):
        evolve(scn.profile(), scn.A, scn.config, dtn=other.dtn())


def test_reload_same_file_same_g0(tmp_path):
    path = write_scn(tmp_path, MINIMAL)
    a = load_scenario(path)
    b = load_scenario(path)
    assert np.array_equal(a.profile().g, b.profile().g)


@pytest.mark.parametrize("name, keys", [
    ("decay_sine", ["g0_table"]),
    ("coupled_pair", ["g0_table_1", "g0_table_2"])])
def test_tabulated_profile_loads_as_its_expression(tmp_path, name, keys):
    """A table of the samples the g0 expression gives loads to the same
    profile and the same admissibility margin: g0_table for m = 1, one
    g0_table_<c> per component for m = 2."""
    path = os.path.join(SCENARIO_DIR, name + ".scn")
    expr = load_scenario(path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    g0 = next(line for line in text.splitlines() if line.startswith("g0 ="))
    tables = "\n".join(
        f"{key} = " + " ".join(map(repr, expr.p0.g[:, c].tolist()))
        for c, key in enumerate(keys))
    table = load_scenario(write_scn(tmp_path, text.replace(g0, tables)))
    assert np.array_equal(table.p0.g, expr.p0.g)
    assert (table.admissibility_report.margin
            == expr.admissibility_report.margin)


def test_second_run_replaces_the_first(tmp_path):
    """A second run into the same directory leaves only its own files:
    no file of the first run, staging directory or -previous sibling."""
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    out = tmp_path / "run_out"
    run(scn, out_dir=str(out))
    (out / "notes.txt").write_text("first run", encoding="utf-8")
    run(scn, mode="diagnose-frozen", out_dir=str(out))
    assert sorted(os.listdir(out)) == ["frozen_report.json", "manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["mode"] == \
        "diagnose-frozen"
    assert sorted(os.listdir(tmp_path)) == ["case.scn", "run_out"]


def test_run_file_formats(tmp_path):
    """The keys of frozen_report.json and coercivity.json and the columns
    of diagnostics.csv, which come from their report records; coercivity
    rows are data-major, each datum's mu sweep together."""
    scn = load_scenario(write_scn(tmp_path, MINIMAL))
    run(scn, out_dir=str(tmp_path / "evolve"))
    with open(tmp_path / "evolve" / "diagnostics.csv", encoding="utf-8") as fh:
        assert fh.readline() == "t,h2alpha,margin,residual,iterations,status\n"
    run(scn, mode="diagnose-frozen", out_dir=str(tmp_path / "frozen"))
    frozen = json.loads((tmp_path / "frozen" / "frozen_report.json")
                        .read_text())
    assert set(frozen) == {"x0", "mu0", "entries", "c1", "c2",
                           "ratio_spread", "generates_analytic_semigroup",
                           "passed"}
    assert set(frozen["entries"]) == {"O10", "O20", "O30", "O0"}
    for entry in frozen["entries"].values():
        assert set(entry) == {"name", "shift", "min_re_raw",
                              "min_re_shifted", "half_angle", "passed"}
    run(scn, mode="diagnose-coercivity", out_dir=str(tmp_path / "coer"))
    coer = json.loads((tmp_path / "coer" / "coercivity.json").read_text())
    assert set(coer) == {"halfplane", "interior"}
    for probe in coer.values():
        assert set(probe) == {"rows", "max_ratio", "mu_spread"}
        for row in probe["rows"]:
            assert set(row) == {"mu", "data_index", "lhs", "rhs", "ratio"}
        assert [(r["data_index"], r["mu"]) for r in probe["rows"]] == [
            (d, mu) for d in range(3) for mu in (1.0, 2.0, 4.0, 8.0)]

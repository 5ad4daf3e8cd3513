"""Tests of the benchmark itself: workload generation, output checks and
the tracer.  Run from the repository root:

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (pins threads, locates src/)
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

PKG, MODULES = run.import_package()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_scenario_bytes(tmp_path, name):
    a, _ = wl.write_scenario(name, 5, str(tmp_path / "a"))
    b, _ = wl.write_scenario(name, 5, str(tmp_path / "b"))
    c, _ = wl.write_scenario(name, 6, str(tmp_path / "c"))
    with open(a, "rb") as fa, open(b, "rb") as fb, open(c, "rb") as fc:
        first, second, other = fa.read(), fb.read(), fc.read()
    assert first == second
    assert (first != other) == wl.WORKLOADS[name]["seeded"]


def test_seed_shifts_profile_by_whole_nodes(tmp_path):
    """Every phase variant is the base profile rolled along the grid."""
    scenario = MODULES["scenario"]
    base = None
    for seed in (0, 3):
        text = wl.scenario_text("evolve-m1", seed)
        sections = scenario.parse_scenario_text(text)
        L = 16 * np.pi
        x = np.arange(wl.NX) * (L / wl.NX)
        g = scenario.safe_eval(sections["initial"]["g0"], {"x": x, "L": L})
        if base is None:
            base = g
        else:
            shift = seed * wl.NX // wl.PHASES
            assert np.allclose(g, np.roll(base, -shift), rtol=0, atol=1e-15)


class _FakeScenarioModule:
    """Stands in for stripflow.scenario, writing chosen outputs."""

    def __init__(self, margin, status, first_margin, final_time, boom=False):
        self.margin = margin
        self.status = status
        self.first_margin = first_margin
        self.final_time = final_time
        self.boom = boom

    def load_scenario(self, path):
        class Report:
            pass
        scn = Report()
        scn.admissibility_report = Report()
        scn.admissibility_report.margin = self.margin
        return scn

    def run(self, scn, mode, out_dir, seed):
        if self.boom:
            raise RuntimeError("solver exploded")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump({"status": self.status,
                       "validation": {"final_time": self.final_time}}, fh)
        with open(os.path.join(out_dir, "diagnostics.csv"), "w") as fh:
            fh.write("t,h2alpha,margin,residual,iterations,status\n")
            fh.write(f"0.0,1.0,{self.first_margin!r},0.0,0,{self.status}\n")
        return None, self.status


@pytest.mark.parametrize("change, failed", [
    ({}, 0),
    ({"first_margin": 1.01}, 1),          # wrong output value
    ({"margin": 1.01}, 1),                # wrong set-up output
    ({"status": "Completed"}, 1),         # unexpected status
    ({"boom": True}, 1),                  # exception inside run()
])
def test_wrong_output_is_counted_as_failed(tmp_path, change, failed):
    ref = wl.load_reference()
    want = wl.reference_for(ref, "near-breakdown", 2, "evolve")
    values = {"margin": wl.reference_for(ref, "near-breakdown", 2, "load")[
                  "admissibility_margin"],
              "first_margin": want["first_margin"]}
    for key in ("margin", "first_margin"):
        if key in change:
            values[key] *= change[key]
    fake = _FakeScenarioModule(values["margin"],
                               change.get("status", want["status"]),
                               values["first_margin"], want["final_time"],
                               boom=change.get("boom", False))
    path, out_root = wl.write_scenario("near-breakdown", 2, str(tmp_path))
    it = run.run_iteration(fake, "near-breakdown", 2, path, out_root, ref)
    assert it.attempted == 2
    assert len(it.failures) == failed


def test_reference_check_catches_a_perturbed_profile():
    ref = wl.reference_for(wl.load_reference(), "evolve-m1", 1, "evolve")
    obs = json.loads(json.dumps(ref))
    assert wl.mismatches(obs, ref) == []
    obs["final_g"][7][0] += 1e-4 * max(abs(v) for row in ref["final_g"]
                                       for v in row)
    assert wl.mismatches(obs, ref) == ["final_g"]


def _tiny_profile():
    geometry = MODULES["geometry"]
    nx, L = 16, 16 * np.pi
    x = np.arange(nx) * (L / nx)
    g = (0.05 * np.sin(2 * np.pi * x / L)).astype(complex)[:, None]
    return geometry.InterfaceProfile(1.0, L, g)


def test_dedup_hash_counts_known_duplicates():
    """admissibility at mu = 0 solves K(g)g and K(g)(nu+g); running it twice
    and then K(g)g once more through DtNOperator makes 5 solves of 2
    distinct problems."""
    dtn = MODULES["dtn"]
    A = MODULES["operator_core"].SectorialOperator(np.array([[1.0]]))
    p = _tiny_profile()
    tracer = tr.Tracer()
    tracer.install(PKG, MODULES)
    root = tracer.open(tr.ROOT_SPAN)
    try:
        dtn.admissibility(p, A, mu=0.0, ny=9)
        dtn.admissibility(p, A, mu=0.0, ny=9)
        dtn.DtNOperator(p, A, 0.0, ny=9).upsilon()
    finally:
        tracer.close(root)
        assert tracer.restore() == []
    assert tr.find_wrapped(PKG, MODULES) == []
    assert tracer.self_check() == []
    metrics, _ = tr.layer_metrics(tracer.spans)
    assert metrics["strip.solve.n"][0] == 5
    assert metrics["strip.solve.unique_frac"][0] == pytest.approx(2 / 5)
    assert metrics["dtn.admissibility.n"][0] == 2
    assert metrics["strip.assemble.n"][0] == 3


def test_self_check_flags_a_span_outside_its_parent():
    tracer = tr.Tracer()
    root = tracer.open(tr.ROOT_SPAN)
    child = tracer.open("strip.solve")
    tracer.close(child)
    tracer.close(root)
    assert tracer.self_check() == []
    child.end = root.end + 1.0
    assert any("outside their parent" in p for p in tracer.self_check())


def test_benchmark_json_names_every_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = tr.Tracer()
    root = tracer.open(tr.ROOT_SPAN)
    tracer.close(root)
    metrics, _ = tr.layer_metrics(tracer.spans)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: u for k, (_, u) in metrics.items()}
    produced["trace.overhead_frac"] = "ratio"
    assert declared == produced
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb"}

#!/usr/bin/env python3
"""Run one stripflow benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload evolve-m1 --seed 1 --seconds 40 --trace 0

The workload's scenario is generated from the seed, loaded with
stripflow.scenario.load_scenario and run with stripflow.scenario.run, over
and over until the time budget is spent; every output is checked against
reference.json.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics (medians over the iterations); with --trace 1
traced iterations alternate with untraced ones and the JSON carries the
per-layer metrics.  The lines before it, starting with '#', give each metric
with its unit and sample count, and the software and hardware it ran on.

The package is imported from src/ next to this directory and nowhere else;
without it the benchmark exits non-zero without printing a result.  Scratch
files go to .bench_work/ at the repository root and are removed on exit.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads: pin them first,
# so every run is single-threaded whatever the caller's environment says.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MODULES = ("scenario", "geometry", "strip", "dtn", "stepper", "holder",
           "operator_core", "model")

# extra set-up samples per untraced iteration, while they stay cheap
SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0

# above this the BLAS is not single-threaded after all
CPU_WALL_LIMIT = 1.25


def import_package():
    """Import stripflow from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "stripflow", "__init__.py")):
        raise SystemExit(f"benchmark: no stripflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import stripflow
    if not os.path.abspath(stripflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: stripflow imported from "
                         f"{stripflow.__file__}, not from {SRC}")
    return stripflow, {name: importlib.import_module(f"stripflow.{name}")
                       for name in MODULES}


def environment():
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


class Iteration:
    """One load plus every run mode of a workload, with its outcome."""

    def __init__(self):
        self.setup = []        # wall time of each load_scenario call
        self.run = 0.0         # wall time of all run() calls
        self.wall = 0.0        # everything, checks included
        self.attempted = 0
        self.failures = []

    def fail(self, op, why):
        self.failures.append(f"{op}: {why}")


def run_iteration(scenario, name, seed, path, out_root, ref, loads=1):
    """Load the scenario `loads` times and run every mode on the first load.

    An exception, an unexpected status or an output that disagrees with the
    reference marks that operation failed; the iteration carries on."""
    it = Iteration()
    t_begin = time.perf_counter()
    spec = wl.WORKLOADS[name]
    want_load = wl.reference_for(ref, name, seed, "load")
    scn = None
    for _ in range(loads):
        it.attempted += 1
        t0 = time.perf_counter()
        try:
            loaded = scenario.load_scenario(path)
        except Exception as exc:  # a failed load is counted, not fatal
            it.setup.append(time.perf_counter() - t0)
            it.fail("load", repr(exc))
            continue
        it.setup.append(time.perf_counter() - t0)
        bad = wl.mismatches(wl.observe_load(loaded), want_load)
        if bad:
            it.fail("load", "output differs from reference: " + ", ".join(bad))
        if scn is None:
            scn = loaded
        if sum(it.setup) > SETUP_BUDGET_S:
            break
    if scn is not None:
        for mode in spec["modes"]:
            it.attempted += 1
            out_dir = os.path.join(out_root, mode)
            t0 = time.perf_counter()
            try:
                _, status = scenario.run(scn, mode=mode, out_dir=out_dir,
                                         seed=seed)
            except Exception as exc:  # a failed run is counted, not fatal
                it.run += time.perf_counter() - t0
                it.fail(mode, repr(exc))
                continue
            it.run += time.perf_counter() - t0
            if status != spec["expected"][mode]:
                it.fail(mode, f"status {status!r}, expected "
                              f"{spec['expected'][mode]!r}")
                continue
            try:
                bad = wl.mismatches(wl.observe(name, mode, out_dir),
                                    wl.reference_for(ref, name, seed, mode))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                bad = [f"unreadable output ({exc!r})"]
            if bad:
                it.fail(mode, "output differs from reference: "
                              + ", ".join(bad))
    it.wall = time.perf_counter() - t_begin
    return it


def _summary(values):
    values = list(values)
    return (f"median {statistics.median(values)!r} (n={len(values)}; "
            f"in order: {', '.join(f'{v:.4g}' for v in values)})")


def _require_unwrapped(pkg, modules):
    """Untraced iterations must run the package's own code."""
    leftover = tr.find_wrapped(pkg, modules)
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")


def measure(pkg, modules, name, seed, seconds, path, out_root, ref, lines):
    """Untraced iterations until the budget would be exceeded by one more."""
    iterations = []
    t_start = time.perf_counter()
    while True:
        _require_unwrapped(pkg, modules)
        iterations.append(run_iteration(modules["scenario"], name, seed, path,
                                        out_root, ref, loads=SETUP_REPEATS))
        elapsed = time.perf_counter() - t_start
        if elapsed + max(i.wall for i in iterations) > seconds:
            break
    setups = [s for i in iterations for s in i.setup]
    runs = [i.run for i in iterations]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "run_s": (statistics.median(runs), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    lines.append(f"setup_s [s] {_summary(setups)}")
    lines.append(f"run_s [s] {_summary(runs)}")
    lines.append(f"peak_rss_mb [MB] {rss_mb!r} (n=1, whole process)")
    return iterations, metrics, []


def traced(pkg, modules, name, seed, seconds, path, out_root, ref, lines):
    """Pairs of one untraced and one traced iteration while the budget lasts.

    Counts come from the traced iterations and must repeat exactly; times
    are medians over them.  The untraced half of each pair is the baseline
    for trace.overhead_frac."""
    iterations, plain, traced_walls, per_layer = [], [], [], []
    problems = []
    t_start = time.perf_counter()
    notes = {}
    while True:
        t_pair = time.perf_counter()
        _require_unwrapped(pkg, modules)
        it = run_iteration(modules["scenario"], name, seed, path, out_root,
                           ref)
        iterations.append(it)
        plain.append(sum(it.setup) + it.run)

        tracer = tr.Tracer()
        tracer.install(pkg, modules)
        root = tracer.open(tr.ROOT_SPAN)
        try:
            it = run_iteration(modules["scenario"], name, seed, path,
                               out_root, ref)
        finally:
            tracer.close(root)
            not_restored = tracer.restore()
        iterations.append(it)
        traced_walls.append(sum(it.setup) + it.run)
        problems.extend(tracer.self_check())
        if not_restored:
            problems.append(f"not restored: {not_restored}")
        metrics, notes = tr.layer_metrics(tracer.spans)
        per_layer.append(metrics)
        pair = time.perf_counter() - t_pair
        if time.perf_counter() - t_start + pair > seconds:
            break

    for key in tr.COUNT_METRICS:
        seen = {m[key][0] for m in per_layer}
        if len(seen) > 1:
            problems.append(f"{key} differs between traced iterations: "
                            f"{sorted(seen)}")
    out = {}
    for key, (value, unit) in per_layer[0].items():
        if unit == "s":
            value = statistics.median(m[key][0] for m in per_layer)
        out[key] = (value, unit)
    base = statistics.median(plain)
    out["trace.overhead_frac"] = (
        (statistics.median(traced_walls) - base) / base, "ratio")
    for key in sorted(out):
        value, unit = out[key]
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{key} [{unit}] {value!r} (n={len(per_layer)}){note}")
    return iterations, out, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg, modules = import_package()
    ref = wl.load_reference()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-"
                                       f"{os.getpid()}")
    os.makedirs(work_dir)
    lines = [f"env {json.dumps(environment(), sort_keys=True)}"]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        path, out_root = wl.write_scenario(args.workload, args.seed, work_dir)
        run_fn = traced if args.trace else measure
        iterations, metrics, problems = run_fn(
            pkg, modules, args.workload, args.seed, args.seconds, path,
            out_root, ref, lines)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    cpu_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    attempted = sum(i.attempted for i in iterations)
    failures = [f for i in iterations for f in i.failures]
    lines.insert(1, f"workload {args.workload} seed {args.seed} (phase "
                    f"variant {wl.variant_of(args.workload, args.seed)}): "
                    f"{len(iterations)} iterations, cpu/wall {cpu_wall:.3f}")
    lines.append(f"operations attempted {attempted}, failed {len(failures)}, "
                 f"failed_frac {len(failures) / attempted!r}")
    if cpu_wall > CPU_WALL_LIMIT:
        problems.append(f"cpu/wall {cpu_wall:.3f}: more than one thread ran")
    for msg in failures + problems:
        print(f"benchmark: {msg}", file=sys.stderr)
    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

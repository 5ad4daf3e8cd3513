"""Seeded workload generation and output checks for the stripflow benchmark.

A workload is one scenario file plus the run modes executed on it.  The
seed picks one of PHASES phase variants: every variant is the same profile
shifted along the period by a whole number of grid nodes, so the seed moves
where the features sit but not how much work the solver does.

near-breakdown is the exception and ignores the seed.  Its strip solves
stall at the round-off floor, and whether the K(g)(nu+g) solve breaks out
of the stall depends on round-off: across the eight grid shifts its inner
GMRES iterations range from 2601 to 4035.  A seeded phase would make its
cost a property of the seed rather than of the code.  Reference
outputs for every variant live in reference.json (written by
capture_reference.py), and each check compares against them with a
tolerance that admits round-off and solver-tolerance differences but not a
changed answer.
"""

import json
import math
import os

PHASES = 8
NX = 128
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# relative tolerance on values that come out of converged Krylov solves
# (the solver gate is 1e-9 on the residual); a wrong formula moves them by
# orders of magnitude more
RTOL = 1e-6

_TEMPLATE = """\
# {name}, phase variant {variant} of {phases} (generated by benchmarks/)

[space]
m = {m}
A = {A}

[geometry]
nu = 1.0
L = 16*pi
nx = {nx}
ny = 33
alpha = 0.5

[initial]
g0 = {g0}

[solve]
mu = 0.0

[time]
dt = 0.02
t_end = 1.0
{time_extra}
[output]
directory = {out_dir}
formats = csv,json
"""


def _shift(variant):
    """x + variant/PHASES of the period: a whole number of grid nodes."""
    return f"(x + {variant}*L/{PHASES})"


def _two_mode(variant):
    s = _shift(variant)
    return (f"0.001*sin(2*pi*{s}/L) + 0.0005*sin(4*pi*{s}/L + 1)")


# name -> scenario fields, whether the seed moves the phase, the run modes
# and the status each mode must return
WORKLOADS = {
    "evolve-m1": dict(
        m=1, A="1.0", g0=_two_mode, time_extra="", seeded=True,
        modes=("evolve",), expected={"evolve": "Completed"}),
    "near-breakdown": dict(
        m=1, A="1.0",
        g0=lambda v: f"-0.85*exp(cos(2*pi*{_shift(v)}/L) - 1)",
        time_extra="margin_floor = 0.2\n", seeded=False,
        modes=("evolve",), expected={"evolve": "BoundaryApproach"}),
    "diagnose-m2": dict(
        m=2, A="2.0 0.5; 0.0 1.0", g0=_two_mode, time_extra="", seeded=True,
        modes=("diagnose-frozen", "diagnose-coercivity",
               "diagnose-localization"),
        expected={"diagnose-frozen": "Completed",
                  "diagnose-coercivity": "Completed",
                  "diagnose-localization": "Completed"}),
}


def variants(name):
    """The phase variants a workload's seeds map to."""
    return range(PHASES) if WORKLOADS[name]["seeded"] else range(1)


def variant_of(name, seed):
    return int(seed) % len(variants(name))


def scenario_text(name, seed):
    """The .scn text of workload `name` for `seed`; the same seed gives the
    same bytes.  Runs get their output directory from the caller, so the
    file names none of the machine's paths."""
    spec = WORKLOADS[name]
    variant = variant_of(name, seed)
    return _TEMPLATE.format(
        name=name, variant=variant, phases=PHASES, m=spec["m"], A=spec["A"],
        nx=NX, g0=spec["g0"](variant), time_extra=spec["time_extra"],
        out_dir=f"out/{name}")


def write_scenario(name, seed, work_dir):
    """Write the scenario into work_dir; return (path, output root)."""
    os.makedirs(work_dir, exist_ok=True)
    out_root = os.path.join(work_dir, "out")
    path = os.path.join(work_dir, f"{name}.scn")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario_text(name, seed))
    return path, out_root


# -- reading outputs -----------------------------------------------------------
# The checks parse the files a run writes with plain Python, independent of
# the package's own reader, so a broken writer cannot agree with itself.


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return header, [line.strip().split(",") for line in fh if line.strip()]


def final_profile(out_dir):
    """[[re, im] per component] per node of the last trajectory sample."""
    header, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    m = (len(header) - 2) // 2
    last = [r for r in rows if r[0] == rows[-1][0]]
    return [[float(c) for c in r[2:2 + 2 * m]] for r in last]


def first_margin(out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "diagnostics.csv"))
    return float(rows[0][header.index("margin")])


def observe_load(scn):
    """The output of load_scenario that the reference pins down."""
    return {"admissibility_margin": float(scn.admissibility_report.margin)}


def observe(name, mode, out_dir):
    """The outputs of one run that the reference pins down."""
    manifest = _read_json(os.path.join(out_dir, "manifest.json"))
    obs = {"status": manifest["status"]}
    if mode == "evolve":
        obs["final_time"] = manifest["validation"]["final_time"]
        obs["first_margin"] = first_margin(out_dir)
        if name == "evolve-m1":
            obs["final_g"] = final_profile(out_dir)
    elif mode == "diagnose-frozen":
        rep = _read_json(os.path.join(out_dir, "frozen_report.json"))
        obs["passed"] = rep["passed"]
        obs["entry_passed"] = {k: e["passed"]
                               for k, e in sorted(rep["entries"].items())}
        obs["ratio_spread"] = rep["ratio_spread"]
    elif mode == "diagnose-localization":
        rep = _read_json(os.path.join(out_dir, "localization.json"))
        obs["monotone_decreasing"] = rep["monotone_decreasing"]
        obs["max_residuals"] = rep["max_residuals"]
        obs["patch_residuals"] = [p["residuals"] for p in rep["per_patch"]]
    elif mode == "diagnose-coercivity":
        rep = _read_json(os.path.join(out_dir, "coercivity.json"))
        obs["coercivity"] = rep
    return obs


# -- comparing -----------------------------------------------------------------


def _flatten(value):
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            out.extend(_flatten(v))
        return out
    return [value]


def close(got, want):
    """Numbers agree to RTOL of the largest reference magnitude."""
    got, want = _flatten(got), _flatten(want)
    if len(got) != len(want):
        return False
    scale = max((abs(w) for w in want), default=0.0)
    return all(math.isfinite(g) and abs(g - w) <= RTOL * scale
               for g, w in zip(got, want))


def _coercivity_ok(rep):
    """The probe ensemble is drawn from the run seed itself, so there is no
    stored reference: check shape and the bounded mu-spread the acceptance
    suite requires of the same probes."""
    for key in ("halfplane", "interior"):
        part = rep[key]
        rows = part["rows"]
        if len(rows) != 12:
            return False
        for row in rows:
            if not (math.isfinite(row["ratio"]) and row["ratio"] > 0
                    and row["lhs"] > 0 and row["rhs"] > 0):
                return False
        if not 1.0 <= part["mu_spread"] < 2.0:
            return False
    return True


def mismatches(obs, ref):
    """Names of observed fields that disagree with the reference."""
    bad = []
    for key, want in ref.items():
        got = obs.get(key)
        if isinstance(want, (bool, str, dict)):
            ok = got == want
        else:
            ok = got is not None and close(got, want)
        if not ok:
            bad.append(key)
    if "coercivity" in obs and not _coercivity_ok(obs["coercivity"]):
        bad.append("coercivity")
    return bad


def load_reference(path=REFERENCE_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(ref, name, seed, op):
    """Reference outputs of operation `op` ("load" or a run mode)."""
    return ref[name][str(variant_of(name, seed))][op]

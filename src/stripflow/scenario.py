"""Scenario files, run orchestration and persistence.

A scenario is a flat, sectioned key-value text file (documented in
docs/scenario-format.md) describing the coupling operator, the geometry,
the initial profile, solver tolerances, the time grid, and output routing.
Loading validates the cross-field invariants and embeds the sectoriality /
ellipticity / admissibility reports.  Runs write an output directory
atomically (temp dir, then rename) containing plot-ready CSV tables and a
JSON manifest keyed by the scenario checksum.
"""

import ast
import dataclasses
import hashlib
import json
import operator
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .dtn import (DtNOperator, admissibility, frozen_set,
                  localization_residual, sector_report)
from .errors import (DegenerateDomainError, EllipticityError, ScenarioError)
from .geometry import InterfaceProfile, ellipticity_floor
from .grids import random_trace
from .holder import SampledFunction
from .model import coercivity_probe_59
from .operator_core import SectorialOperator, validate_sectorial
from .stepper import STATUS_COMPLETED, EvolutionConfig, evolve
from .strip import StripField, coercivity_probe_33

SECTION_ORDER = ("space", "geometry", "initial", "solve", "time", "output")

_SAFE_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "sinh": np.sinh, "cosh": np.cosh, "exp": np.exp, "sqrt": np.sqrt,
    "log": np.log, "abs": np.abs,
}
_SAFE_NAMES = {"pi": np.pi, "e": np.e, "j1": 1j}


def safe_eval(expr, variables=None):
    """Evaluate an arithmetic expression in a whitelist grammar.

    Supports numbers, + - * / ** and one-argument calls of the elementary
    functions; names are limited to pi/e/j1 plus caller-provided variables,
    and a function name can only be called.  Anything else is a scenario
    error, never an execution, and so is a division by zero or a power
    whose exponent exceeds 1000 in magnitude or whose value overflows.
    Other non-finite values (x/0 over an array, log(0)) are returned as
    they are; the scenario fields refuse them.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ScenarioError(f"cannot parse expression {expr!r}: {exc.msg}")
    names = dict(_SAFE_NAMES, **(variables or {}))
    with np.errstate(all="ignore"):
        return _evaluate(tree.body, names, expr)


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
# no scenario quantity needs a larger power; the bound also keeps a chain
# like 9**9**9 from building a multi-gigabit integer
_MAX_EXPONENT = 1000.0


def _evaluate(node, names, expr):
    """Evaluate one node of the grammar; a node, name or literal that has
    no rule here is refused."""
    if isinstance(node, ast.Constant):
        if type(node.value) in (int, float, complex):     # not bool
            return node.value
        raise ScenarioError(
            f"expression {expr!r} contains a non-numeric literal")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        hint = " (a function name can only be called)" if (
            node.id in _SAFE_FUNCS) else ""
        raise ScenarioError(f"expression {expr!r} references unknown name "
                            f"{node.id!r}{hint}")
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand, names, expr))
    if isinstance(node, ast.Call):
        func = node.func.id if isinstance(node.func, ast.Name) else None
        if func not in _SAFE_FUNCS or node.keywords:
            raise ScenarioError(f"expression {expr!r} calls something "
                                f"outside the function whitelist")
        # a second argument would be a ufunc's output array, written in place
        if len(node.args) != 1:
            raise ScenarioError(f"expression {expr!r} calls {func} with "
                                f"{len(node.args)} arguments, not 1")
        arg = _evaluate(node.args[0], names, expr)
        try:
            return _SAFE_FUNCS[func](arg)
        except TypeError:     # e.g. an integer beyond int64
            raise ScenarioError(f"expression {expr!r} calls {func} on a "
                                f"value it cannot take") from None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _bounded_pow(_evaluate(node.left, names, expr),
                            _evaluate(node.right, names, expr), expr)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left = _evaluate(node.left, names, expr)
        right = _evaluate(node.right, names, expr)
        try:
            return _BINARY[type(node.op)](left, right)
        except ZeroDivisionError:
            raise ScenarioError(
                f"expression {expr!r} divides by zero") from None
        except OverflowError:
            raise ScenarioError(
                f"expression {expr!r} has a value out of range") from None
    raise ScenarioError(f"expression {expr!r} uses disallowed syntax "
                        f"({type(node).__name__})")


def _bounded_pow(base, exponent, expr):
    """base ** exponent in floating point, refused when out of range.

    Python integers are promoted to float first, so a large power overflows
    at once instead of growing an arbitrary-precision integer.
    """
    if not np.all(np.abs(exponent) <= _MAX_EXPONENT):
        raise ScenarioError(
            f"expression {expr!r} raises to a power beyond "
            f"{_MAX_EXPONENT:g} in magnitude")
    try:
        if isinstance(base, int):
            base = float(base)
        if isinstance(exponent, int):
            exponent = float(exponent)
        out = base ** exponent
    except (OverflowError, ZeroDivisionError):
        out = np.inf
    if not np.all(np.isfinite(out)):
        raise ScenarioError(
            f"expression {expr!r} has a power whose value is out of range")
    return out


def parse_scenario_text(text, path="<string>"):
    """Parse the sectioned key-value grammar into {section: {key: raw}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ScenarioError(f"line {lineno}: empty section header",
                                    path=path)
            if current in sections:
                raise ScenarioError(f"line {lineno}: duplicate section",
                                    path=path, section=current)
            sections[current] = {}
            continue
        if "=" not in line:
            raise ScenarioError(
                f"line {lineno}: expected 'key = value', got {line!r}",
                path=path, section=current)
        if current is None:
            raise ScenarioError(
                f"line {lineno}: key/value before any [section] header",
                path=path)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ScenarioError(f"line {lineno}: empty key", path=path,
                                section=current)
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key",
                                path=path, section=current, key=key)
        sections[current][key] = value
    return sections


def _parse_matrix(raw, path, section, key):
    rows = []
    for chunk in raw.split(";"):
        vals = [_parse_value("real", v, path, section, key)
                for v in chunk.split()]
        if not vals:
            raise ScenarioError("empty matrix row", path=path,
                                section=section, key=key)
        rows.append(vals)
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ScenarioError("coupling matrix must be square", path=path,
                            section=section, key=key)
    return np.array(rows, dtype=float)


# Every scenario key except the [initial] profile keys, in reading order:
# (section, key) -> (kind, default, rule).  A default is raw text, read like
# a value in the file; None marks a required key.  The kind fixes how the
# text is read and how the value is written back into the canonical form
# that the checksum covers.  A rule (requirement, predicate) holds the
# admissible values of a key; a key without one is checked by the
# constructor that takes it: SectorialOperator for phi and M,
# EvolutionConfig for the [time] keys.
_POSITIVE = ("positive", lambda v: v > 0)
FIELDS = {
    ("space", "m"): ("int", None, ("at least 1", lambda v: v >= 1)),
    ("space", "A"): ("matrix", None, None),
    ("space", "phi"): ("real", "pi/2 + 0.35", None),
    ("space", "M"): ("real", "20", None),
    ("geometry", "nu"): ("real", None, _POSITIVE),
    ("geometry", "L"): ("real", None, _POSITIVE),
    ("geometry", "nx"): ("int", None, ("a power of two >= 4",
                                       lambda v: v >= 4 and v & (v - 1) == 0)),
    ("geometry", "ny"): ("int", None, ("at least 5", lambda v: v >= 5)),
    ("geometry", "alpha"): ("real", None, ("in (0, 1)",
                                           lambda v: 0.0 < v < 1.0)),
    ("geometry", "h_min"): ("real", "1e-8", _POSITIVE),
    # the strip operator squares mu
    ("solve", "mu"): ("real", None, ("nonnegative with a finite square",
                                     lambda v: v >= 0 and np.isfinite(v * v))),
    # the strip solve accepts a relative residual up to max(100 rtol, 1e-9);
    # from rtol = 0.01 on that admits the zero solution
    ("solve", "rtol"): ("real", "1e-11", ("in (0, 0.01)",
                                          lambda v: 0.0 < v < 0.01)),
    ("time", "dt"): ("real", None, None),
    ("time", "t_end"): ("real", None, None),
    ("time", "scheme"): ("text", "semi_implicit_euler", None),
    ("time", "norm_cap"): ("auto", "auto", None),
    ("time", "margin_floor"): ("auto", "auto", None),
    ("time", "output_stride"): ("int", "1", None),
    ("output", "directory"): ("text", None, ("not empty", bool)),
    ("output", "formats"): ("list", "csv,json", (
        "a subset of csv,json", lambda v: set(v) <= {"csv", "json"})),
}


def _read_field(sections, section, key, path):
    """The value of a FIELDS entry, or its default, held to its rule."""
    kind, default, rule = FIELDS[section, key]
    raw = sections[section].get(key, default)
    if raw is None:
        raise ScenarioError("missing required key", path=path,
                            section=section, key=key)
    value = _parse_value(kind, raw, path, section, key)
    if rule is not None and not rule[1](value):
        raise ScenarioError(f"{key} must be {rule[0]}, got {value!r}",
                            path=path, section=section, key=key)
    return value


def _parse_value(kind, raw, path, section, key):
    """Read the raw text of one field as a value of the given kind."""
    if kind == "text":
        return raw
    if kind == "list":
        return tuple(f.strip() for f in raw.split(",") if f.strip())
    if kind == "matrix":
        return _parse_matrix(raw, path, section, key)
    if kind == "auto" and raw.strip().lower() == "auto":
        return None
    val = _eval_field(raw, path, section, key)
    if kind == "int":
        ival = int(round(float(np.real(val))))
        if abs(ival - val) > 1e-12:
            raise ScenarioError(f"expected an integer, got {raw!r}",
                                path=path, section=section, key=key)
        return ival
    if abs(np.imag(val)) > 0:
        raise ScenarioError(f"expected a real number, got {raw!r}",
                            path=path, section=section, key=key)
    return float(np.real(val))


def _canonical(kind, value):
    if value is None:
        return "auto"
    if kind == "list":
        return ",".join(value)
    if kind == "matrix":
        return "; ".join(" ".join(repr(v) for v in row) for row in value)
    return value if kind == "text" else repr(value)


def serialize(values, g0_source):
    """Canonical text form of the FIELDS values and the initial-profile
    source; the checksum is taken over these bytes."""
    entries = {field: _canonical(FIELDS[field][0], value)
               for field, value in values.items()}
    entries["initial", "g0"] = g0_source
    lines = []
    for section in SECTION_ORDER:
        lines.append(f"[{section}]")
        lines += [f"{key} = {entries[sec, key]}"
                  for sec, key in sorted(entries) if sec == section]
        lines.append("")
    return "\n".join(lines)


@dataclass
class Scenario:
    """A validated scenario plus its embedded validation reports."""
    name: str
    path: str
    checksum: str
    m: int
    A: SectorialOperator
    L: float
    nx: int
    ny: int
    alpha: float
    mu_solve: float
    rtol: float
    config: EvolutionConfig
    out_dir: str
    sectorial_report: object
    ellipticity_report: object
    admissibility_report: object
    # the initial profile and the K(g)g solve behind admissibility_report;
    # dtn() rebuilds the cheap operator around them for each run.  Keeping
    # the operator (~1 MB at m = 2) on every loaded Scenario raised peak RSS
    # by ~4 MB when several scenarios were alive at once
    p0: InterfaceProfile = field(repr=False, compare=False)
    upsilon0: StripField = field(repr=False, compare=False)

    def profile(self):
        return self.p0

    def dtn(self):
        """The DtNOperator of the initial profile, with the load's K(g)g
        solve in its cache."""
        return DtNOperator(self.p0, self.A, self.mu_solve, ny=self.ny,
                           rtol=self.rtol, upsilon=self.upsilon0)


def _eval_field(expr, path, section, key, variables=None):
    """safe_eval for a scenario field: errors name the field, and a value
    that is not finite everywhere is refused."""
    try:
        val = safe_eval(expr, variables)
    except ScenarioError as exc:
        raise ScenarioError(str(exc), path=path, section=section, key=key)
    if not np.all(np.isfinite(val)):
        raise ScenarioError(f"{expr!r} is not finite", path=path,
                            section=section, key=key)
    return val


def _initial_values(sec, path, m, nx, L, nu, x):
    """The initial profile and its source text, from exactly one of g0,
    g0_table (m = 1) or the g0_table_<c> set."""
    table_keys = [f"g0_table_{c + 1}" for c in range(m)]
    given = [k for k in ("g0", "g0_table", *table_keys) if k in sec]
    if len(given) > 1 and given[0] in ("g0", "g0_table"):
        raise ScenarioError(
            f"exactly one initial profile source may be given, not both "
            f"{given[0]} and {given[1]}", path=path, section="initial",
            key=given[1])
    if "g0" in sec:
        parts = [p.strip() for p in sec["g0"].split(";")]
        if len(parts) == 1:
            parts = parts * m
        if len(parts) != m:
            raise ScenarioError(
                f"g0 has {len(parts)} component expressions, expected {m}",
                path=path, section="initial", key="g0")
        cols = []
        for expr in parts:
            val = _eval_field(expr, path, "initial", "g0",
                              {"x": x, "L": L, "nu": nu})
            cols.append(np.broadcast_to(np.asarray(val, dtype=complex),
                                        (nx,)).copy())
        return np.stack(cols, axis=1), sec["g0"]
    if "g0_table" in sec:
        table_keys = ["g0_table"]
    if all(k in sec for k in table_keys):
        cols = []
        for k in table_keys:
            vals = [complex(_eval_field(v, path, "initial", k))
                    for v in sec[k].split()]
            if len(vals) != nx:
                raise ScenarioError(
                    f"table has {len(vals)} entries, expected nx = {nx}",
                    path=path, section="initial", key=k)
            cols.append(np.array(vals))
        source = " | ".join(sec[k] for k in table_keys)
        return np.stack(cols, axis=1), source
    raise ScenarioError("need either 'g0' (expression) or g0_table keys",
                        path=path, section="initial", key="g0")


def load_scenario(path):
    """Parse, cross-validate and report-annotate a scenario file."""
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}", path=path)
    sections = parse_scenario_text(text, path=path)
    for section in sections:
        if section not in SECTION_ORDER:
            raise ScenarioError("unknown section", path=path,
                                section=section)
    for section in SECTION_ORDER:
        if section not in sections:
            raise ScenarioError("missing required section", path=path,
                                section=section)
    values = {fld: _read_field(sections, *fld, path) for fld in FIELDS}
    m, A_mat = values["space", "m"], values["space", "A"]
    # checked before the key pass, so that its range(m) is bounded by the
    # rows written in the file
    if A_mat.shape != (m, m):
        raise ScenarioError(f"A is {A_mat.shape[0]}x{A_mat.shape[1]}, "
                            f"but m = {m}", path=path, section="space",
                            key="A")
    known = set(FIELDS) | {("initial", "g0")} | {
        ("initial", f"g0_table_{c + 1}") for c in range(m)}
    if m == 1:
        known.add(("initial", "g0_table"))
    for section, entries in sections.items():
        for key in entries:
            if (section, key) not in known:
                raise ScenarioError("unknown key", path=path,
                                    section=section, key=key)

    nu, L, nx, ny, alpha, h_min = (values["geometry", k] for k in (
        "nu", "L", "nx", "ny", "alpha", "h_min"))
    mu_solve, rtol = values["solve", "mu"], values["solve", "rtol"]
    try:
        config = EvolutionConfig(
            dt=values["time", "dt"], t_end=values["time", "t_end"],
            scheme=values["time", "scheme"], mu_solve=mu_solve,
            breakdown_norm_cap=values["time", "norm_cap"],
            boundary_margin_floor=values["time", "margin_floor"],
            output_stride=values["time", "output_stride"],
            ny=ny, alpha=alpha, rtol=rtol)
    except ValueError as exc:
        raise ScenarioError(str(exc), path=path, section="time")

    x = np.arange(nx) * (L / nx)
    g0, g0_source = _initial_values(sections["initial"], path, m, nx, L, nu,
                                    x)

    try:
        A = SectorialOperator(A_mat, sector_angle=values["space", "phi"],
                              bound=values["space", "M"])
    except ValueError as exc:
        raise ScenarioError(str(exc), path=path, section="space")
    sec_report = validate_sectorial(A)
    if not sec_report.passed:
        raise ScenarioError(
            f"coupling operator failed the sectoriality check: "
            f"{sec_report.message}", path=path, section="space", key="A")
    try:
        # the profile refuses a complex g0, and assembling the strip
        # operator refuses coefficients below the ellipticity floor (both
        # EllipticityError)
        profile = InterfaceProfile(nu, L, g0, h_floor=h_min)
        dtn = DtNOperator(profile, A, mu_solve, ny=ny, rtol=rtol)
    except (EllipticityError, DegenerateDomainError) as exc:
        raise ScenarioError(
            f"initial profile fails the ellipticity/degeneracy validation: "
            f"{exc}", path=path, section="initial", key="g0")
    ell_report = ellipticity_floor(dtn.coeffs)
    adm_report = admissibility(profile, A, mu=mu_solve, ny=ny, rtol=rtol,
                               dtn=dtn)

    checksum = hashlib.sha256(
        serialize(values, g0_source).encode("utf-8")).hexdigest()
    return Scenario(
        name=os.path.splitext(os.path.basename(path))[0], path=path,
        checksum=checksum, m=m, A=A, L=L, nx=nx, ny=ny, alpha=alpha,
        mu_solve=mu_solve, rtol=rtol, config=config,
        out_dir=values["output", "directory"], sectorial_report=sec_report,
        ellipticity_report=ell_report, admissibility_report=adm_report,
        p0=profile, upsilon0=dtn.upsilon())


# -- persistence ---------------------------------------------------------------


@dataclass
class RunManifest:
    scenario_checksum: str
    scenario_name: str
    artifact_version: str
    mode: str
    grid: dict
    validation: dict
    wall_clock_seconds: float
    status: str
    seed: int
    deterministic: bool


def _fmt(value):
    """Shortest exact decimal form; complex parts split by the caller."""
    return repr(float(value))


def export(traj, out_dir):
    """Write trajectory.csv, diagnostics.csv into out_dir (which must exist)."""
    if not traj.profiles:
        raise ValueError("cannot export an empty trajectory")
    m = traj.profiles[0].m
    traj_path = os.path.join(out_dir, "trajectory.csv")
    cols = ["t", "x"]
    for c in range(m):
        cols += [f"g{c + 1}_re", f"g{c + 1}_im"]
    with open(traj_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for t, prof in zip(traj.times, traj.profiles):
            for i, xv in enumerate(prof.x):
                row = [_fmt(t), _fmt(xv)]
                for c in range(m):
                    row += [_fmt(prof.g[i, c].real), _fmt(prof.g[i, c].imag)]
                fh.write(",".join(row) + "\n")
    diag_path = os.path.join(out_dir, "diagnostics.csv")
    with open(diag_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,h2alpha,margin,residual,iterations,status\n")
        for row in traj.diagnostics:
            fh.write(",".join([_fmt(row.t), _fmt(row.h2alpha),
                               _fmt(row.margin), _fmt(row.residual),
                               str(row.iterations), row.status]) + "\n")
    return [traj_path, diag_path]


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _validation_summary(scn):
    adm = scn.admissibility_report
    return {
        "sectorial_passed": bool(scn.sectorial_report.passed),
        "sectorial_worst_ratio": float(scn.sectorial_report.worst_ratio),
        "ellipticity_passed": bool(scn.ellipticity_report.passed),
        "ellipticity_margin": float(scn.ellipticity_report.margin),
        "admissibility_in_W1": bool(adm.in_W1),
        "admissibility_margin": float(adm.margin),
        "admissibility_in_Vnu": bool(adm.in_Vnu),
    }


def output_dir(scn, out_dir=None):
    """The absolute directory a run of scn writes: out_dir when given, else
    the scenario's [output] directory."""
    return os.path.abspath(out_dir if out_dir is not None else scn.out_dir)


def run(scn, mode="evolve", out_dir=None, deterministic=False, seed=0):
    """Execute one scenario pipeline and persist its outputs atomically.

    Returns (manifest, status).  The output directory appears only after
    every file in it has been written (temp-dir-then-rename), so a crash
    mid-run never leaves a partial result at the advertised path.  The
    target replaces only an earlier run's output: the working directory,
    its ancestors and an existing path with no manifest.json at its top
    level are refused (ScenarioError) before anything runs.
    """
    runner = _RUNNERS.get(mode)
    if runner is None:
        raise ValueError(f"unknown mode {mode!r}")
    target = output_dir(scn, out_dir)
    real = os.path.realpath(target)
    if os.path.commonpath([real, os.getcwd()]) == real:
        raise ScenarioError(f"refusing to write a run into {target}: it is "
                            f"the working directory or one of its ancestors")
    if (os.path.lexists(target)
            and not os.path.isfile(os.path.join(target, "manifest.json"))):
        raise ScenarioError(f"refusing to replace {target}: it holds no "
                            f"manifest.json of an earlier run")
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    t0 = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix=".stripflow-", dir=parent)
    try:
        status, extra = runner(scn, tmp, seed)
        wall = 0.0 if deterministic else time.perf_counter() - t0
        manifest = RunManifest(
            scenario_checksum=scn.checksum, scenario_name=scn.name,
            artifact_version=__version__, mode=mode,
            grid={"nx": scn.nx, "ny": scn.ny, "m": scn.m, "L": scn.L},
            validation={**_validation_summary(scn), **extra},
            wall_clock_seconds=wall, status=status, seed=seed,
            deterministic=deterministic)
        _write_json(os.path.join(tmp, "manifest.json"),
                    dataclasses.asdict(manifest))
        # the previous output is renamed aside, not deleted, until the new
        # one is in place: a crash between the renames loses neither
        previous = None
        if os.path.isdir(target):
            previous = tmp + "-previous"
            os.rename(target, previous)
        try:
            os.rename(tmp, target)
        except BaseException:
            if previous is not None:
                os.rename(previous, target)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if previous is not None:
        shutil.rmtree(previous, ignore_errors=True)
    return manifest, status


def _run_evolve(scn, tmp, seed):
    traj = evolve(scn.profile(), scn.A, scn.config, dtn=scn.dtn())
    export(traj, tmp)
    extra = {"trajectory_samples": len(traj.times),
             "final_time": float(traj.times[-1]),
             "norm_cap": traj.norm_cap, "margin_floor": traj.margin_floor}
    if traj.failure_message:
        extra["failure_message"] = traj.failure_message
    return traj.status, extra


def _run_frozen(scn, tmp, seed):
    profile = scn.profile()
    x0 = scn.admissibility_report.margin_argmin
    fset = frozen_set(profile, scn.A, x0, scn.mu_solve, ny=scn.ny,
                      rtol=scn.rtol, dtn=scn.dtn())
    report = sector_report(fset, scn.A, alpha=scn.alpha)
    payload = {
        "x0": fset.x0,
        "mu0": report.mu0,
        "entries": {name: dataclasses.asdict(entry)
                    for name, entry in report.entries.items()},
        "c1": report.c1, "c2": report.c2,
        "ratio_spread": report.ratio_spread,
        "generates_analytic_semigroup": report.generates_analytic_semigroup,
        "passed": report.passed,
    }
    _write_json(os.path.join(tmp, "frozen_report.json"), payload)
    return STATUS_COMPLETED, {"frozen_passed": bool(report.passed),
                              "frozen_ratio_spread": report.ratio_spread}


def _run_coercivity(scn, tmp, seed):
    profile = scn.profile()
    rng = np.random.default_rng(seed + 7)
    psis = [random_trace(rng, scn.nx, scn.m) for _ in range(3)]
    mu_list = (1.0, 2.0, 4.0, 8.0)
    fc = scn.dtn().frozen_coefficients(scn.admissibility_report.margin_argmin)
    half = coercivity_probe_59(fc,
                               [SampledFunction(profile.L, p) for p in psis],
                               mu_list, alpha=scn.alpha)
    ensemble = [(None, p, None) for p in psis]
    interior = coercivity_probe_33(profile, scn.A, mu_list, ensemble,
                                   alpha=scn.alpha, ny=min(scn.ny, 17),
                                   rtol=max(scn.rtol, 1e-10))
    payload = {
        "halfplane": {"rows": [dataclasses.asdict(r) for r in half.rows],
                      "max_ratio": half.max_ratio,
                      "mu_spread": half.mu_spread},
        "interior": {"rows": [dataclasses.asdict(r) for r in interior.rows],
                     "max_ratio": interior.max_ratio,
                     "mu_spread": interior.mu_spread},
    }
    _write_json(os.path.join(tmp, "coercivity.json"), payload)
    return STATUS_COMPLETED, {
        "coercivity_halfplane_spread": half.mu_spread,
        "coercivity_interior_spread": interior.mu_spread,
    }


def _run_localization(scn, tmp, seed):
    profile = scn.profile()
    x = profile.x
    direction = np.stack(
        [np.cos(2 * np.pi * x / scn.L) for _ in range(scn.m)], axis=1)
    deltas = (1.0, 0.5, 0.25)
    dtn = scn.dtn()
    d_op = dtn.derivative(direction)
    reports = [localization_residual(profile, scn.A, d, direction,
                                     mu=scn.mu_solve, ny=scn.ny,
                                     alpha=scn.alpha, rtol=scn.rtol, dtn=dtn,
                                     d_op=d_op)
               for d in deltas]
    residuals = [r.max_residual for r in reports]
    monotone = all(residuals[i + 1] <= residuals[i]
                   for i in range(len(residuals) - 1))
    payload = {
        "deltas": list(deltas),
        "max_residuals": residuals,
        "monotone_decreasing": monotone,
        "per_patch": [{"delta": r.delta,
                       "centers": list(r.centers),
                       "residuals": list(r.residuals)} for r in reports],
    }
    _write_json(os.path.join(tmp, "localization.json"), payload)
    return STATUS_COMPLETED, {"localization_monotone": bool(monotone),
                              "localization_residuals": residuals}


# the pipelines run() executes, by mode name
_RUNNERS = {"evolve": _run_evolve, "diagnose-frozen": _run_frozen,
            "diagnose-coercivity": _run_coercivity,
            "diagnose-localization": _run_localization}
MODES = tuple(_RUNNERS)

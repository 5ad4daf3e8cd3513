"""Span tracing of stripflow's layers from outside the package.

The tracer wraps the public entry points of each module by assigning module
and class attributes at run time, records one span per call (name, parent,
start, end), and puts everything back on restore().  No source file of the
package changes, and an untraced run measures the unpatched code.  The
per-layer metrics are derived from the spans after the run.
"""

import functools
import hashlib
import inspect
import math
import os
import statistics
import time

import numpy as np

# (layer, module, attribute).  A stripflow function is also bound under its
# name in every module that imported it, and all those bindings are patched;
# a foreign function (scipy's gmres) is patched only in the module named, so
# the strip solver's inner GMRES is traced and the stepper's outer one not.
TARGETS = (
    ("scenario.load", "scenario", "load_scenario"),
    ("scenario.run", "scenario", "run"),
    ("scenario.export", "scenario", "export"),
    ("geometry.coefficients", "geometry", "coefficients"),
    ("strip.assemble", "strip", "DiscreteStripOperator.__init__"),
    ("strip.apply", "strip", "DiscreteStripOperator.apply_values"),
    ("strip.precond.apply", "strip", "DiscreteStripOperator._precond"),
    ("strip.precond.build", "strip",
     "DiscreteStripOperator._build_preconditioner"),
    ("strip.solve", "strip", "DiscreteStripOperator.solve"),
    ("strip.gmres", "strip", "gmres"),
    ("strip.coercivity_probe", "strip", "coercivity_probe_33"),
    ("dtn.apply", "dtn", "DtNOperator.apply"),
    ("dtn.derivative", "dtn", "DtNOperator.derivative"),
    ("dtn.admissibility", "dtn", "admissibility"),
    ("dtn.frozen_set", "dtn", "frozen_set"),
    ("dtn.sector_report", "dtn", "sector_report"),
    ("dtn.localization", "dtn", "localization_residual"),
    ("stepper.evolve", "stepper", "evolve"),
    ("stepper.step", "stepper", "_step_core"),
    ("holder.h2alpha", "holder", "h2alpha_norm"),
    ("holder.seminorm", "holder", "holder_seminorm"),
    ("holder.scaled_field", "holder", "scaled_field_norm"),
    ("operator_core.interp_norm", "operator_core",
     "InterpNormEvaluator.of_values"),
    ("model.trace_gradient_map", "model", "strip_trace_gradient_map"),
    ("model.coercivity_probe", "model", "coercivity_probe_59"),
)

ROOT_SPAN = "bench.iteration"
_MARK = "_bench_original"


class Span:
    __slots__ = ("name", "parent", "start", "end", "extra")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.extra = None

    @property
    def duration(self):
        return self.end - self.start


def solve_key(op, bound):
    """Identity of a strip solve: the profile, the operator and the data."""
    h = hashlib.sha1()
    p = op.profile
    h.update(repr((float(p.nu), float(p.L), op.ny, op.mu, op.bc0)).encode())
    h.update(np.ascontiguousarray(p.g, dtype=complex).tobytes())
    h.update(np.ascontiguousarray(op.A_mat, dtype=complex).tobytes())
    for name in ("F", "psi0", "psi1"):
        val = bound.arguments.get(name)
        if val is None:
            h.update(b"-")
        else:
            arr = np.ascontiguousarray(val, dtype=complex)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """Collects spans from wrapped stripflow entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, layer, fn):
        tracer = self
        if layer == "strip.solve":
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                op = args[0]
                span = tracer.open(layer)
                span.extra = {"key": solve_key(op, sig.bind(*args, **kwargs)),
                              "iters": 0, "residual": float("inf")}
                try:
                    fld = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                span.extra["iters"] = int(op.last_iterations)
                span.extra["residual"] = float(op.last_residual)
                return fld
        elif layer == "scenario.export":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.open(layer)
                try:
                    paths = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                span.extra = {"bytes": sum(os.path.getsize(p) for p in paths)}
                return paths
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, package, modules):
        """Wrap every TARGETS entry point; modules maps short names to the
        imported stripflow submodules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        bindings = [package] + list(modules.values())
        for layer, mod_name, attr in TARGETS:
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(layer, owner.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(layer, original)
            native = original.__module__.startswith("stripflow")
            owners = bindings if native else [mod]
            for owner in owners:
                if vars(owner).get(attr) is original:
                    self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        """Put every original back; return the attributes that did not
        come back (empty on success)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}"
               for o, a, orig in self._patches if vars(o)[a] is not orig]
        self._patches = []
        return bad

    # -- checks and metrics ----------------------------------------------------

    def self_check(self):
        """Problems with the recorded spans (empty when they are sound):
        every span closed and inside its parent, one root, and self times
        that add up to the root's duration."""
        problems = []
        roots = [s for s in self.spans if s.parent is None]
        if len(roots) != 1 or roots[0].name != ROOT_SPAN:
            problems.append(f"expected one {ROOT_SPAN} root, got "
                            f"{[s.name for s in roots]}")
        if any(s.end is None for s in self.spans):
            problems.append("unclosed spans")
            return problems
        outside = [s.name for s in self.spans if s.parent is not None and not (
            s.parent.start <= s.start and s.end <= s.parent.end)]
        if outside:
            problems.append(f"{len(outside)} spans end outside their parent, "
                            f"first {outside[0]}")
        if roots:
            total = sum(self_times(self.spans).values())
            root = roots[0].duration
            if abs(total - root) > 1e-6 * root:
                problems.append(f"self times sum to {total!r} s, root span "
                                f"lasts {root!r} s")
        return problems


def find_wrapped(package, modules):
    """Attributes of the package that still hold a tracing wrapper."""
    found = []
    for owner in [package] + list(modules.values()):
        for name, val in vars(owner).items():
            if hasattr(val, _MARK):
                found.append(f"{owner.__name__}.{name}")
            elif inspect.isclass(val) and val.__module__.startswith("stripflow"):
                found.extend(f"{val.__name__}.{n}"
                             for n, v in vars(val).items() if hasattr(v, _MARK))
    return found


def self_times(spans):
    """Self time per span: duration minus the time its children cover."""
    own = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.duration
    return own


def _ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _busy(spans, name):
    """Total time inside `name` spans, not counting nested repeats."""
    return sum((s.duration for s in spans
                if s.name == name and not _ancestor(s, name)), 0.0)


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n):
    """Highest percentile of the ladder with at least ten samples beyond
    it; the median when there are too few samples for any."""
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100.0)) - 1]


def layer_metrics(spans):
    """Per-layer counts, busy times and self times of one traced iteration.

    Returns (metrics, notes) where metrics maps name -> (value, unit) and
    notes holds the human-readable context (which tail percentile, ...).
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    out = {}

    def count(name):
        out[name + ".n"] = (len(by_name.get(name, [])), "count")

    def busy(name):
        out[name + ".s"] = (_busy(spans, name), "s")

    for name in ("geometry.coefficients", "strip.assemble", "strip.apply",
                 "strip.precond.apply", "strip.precond.build", "strip.solve",
                 "dtn.apply", "dtn.derivative", "dtn.admissibility",
                 "dtn.frozen_set", "holder.h2alpha", "holder.seminorm",
                 "holder.scaled_field", "operator_core.interp_norm",
                 "model.trace_gradient_map"):
        count(name)
        busy(name)
    for name in ("scenario.export", "strip.coercivity_probe",
                 "dtn.sector_report", "dtn.localization",
                 "model.coercivity_probe"):
        busy(name)

    exports = by_name.get("scenario.export", [])
    out["scenario.export.bytes"] = (sum(s.extra["bytes"] for s in exports),
                                    "bytes")

    solves = by_name.get("strip.solve", [])
    durations = [s.duration for s in solves]
    iters = [s.extra["iters"] for s in solves]
    keys = [s.extra["key"] for s in solves]
    gmres_calls = {}
    for s in by_name.get("strip.gmres", []):
        gmres_calls[id(s.parent)] = gmres_calls.get(id(s.parent), 0) + 1
    tail_q = tail_percentile(len(solves))
    out["strip.solve.self_s"] = (sum((own[id(s)] for s in solves), 0.0), "s")
    out["strip.solve.p50_s"] = (statistics.median(durations)
                                if durations else 0.0, "s")
    out["strip.solve.tail_s"] = (percentile(durations, tail_q)
                                 if durations else 0.0, "s")
    out["strip.solve.unique_frac"] = (len(set(keys)) / len(keys)
                                      if keys else 1.0, "ratio")
    out["strip.gmres.iters"] = (sum(iters), "count")
    out["strip.gmres.iters_max"] = (max(iters, default=0), "count")
    out["strip.gmres.retry_n"] = (
        sum(1 for s in solves if gmres_calls.get(id(s), 0) > 1), "count")
    out["strip.residual.max"] = (max((s.extra["residual"] for s in solves),
                                     default=0.0), "rel")

    steps = by_name.get("stepper.step", [])
    outer = sum(1 for s in by_name.get("dtn.derivative", [])
                if _ancestor(s, "stepper.step"))
    out["stepper.steps"] = (len(steps), "count")
    out["stepper.outer_iters"] = (outer, "count")
    out["stepper.outer_iters_per_step"] = (outer / len(steps) if steps else 0.0,
                                           "count")
    out["stepper.evolve.self_s"] = (
        sum((own[id(s)] for s in by_name.get("stepper.evolve", [])), 0.0), "s")

    notes = {"strip.solve.tail_s": f"p{tail_q:g} of {len(solves)} solves"}
    return out, notes


# metrics that must repeat exactly between traced iterations of one seed
COUNT_METRICS = (
    "strip.solve.n", "strip.gmres.iters", "strip.gmres.iters_max",
    "strip.gmres.retry_n", "stepper.outer_iters", "stepper.steps",
    "strip.apply.n", "strip.precond.apply.n", "strip.precond.build.n",
    "strip.assemble.n", "strip.solve.unique_frac", "dtn.frozen_set.n",
)

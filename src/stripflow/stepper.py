"""Linearly-implicit interface evolution with breakdown detection.

dg/dt + O(g) = 0 is advanced by semi-implicit Euler: the increment solves
(I + dt dO(g_n)) delta = -dt O(g_n) in the trace space, so the stiff
linearization is treated implicitly while O is evaluated at the current
profile.  A run ends Completed at t_end, in one of the two breakdown
flags of the continuous alternative "norm blows up or the profile reaches
the admissibility boundary" (NormBlowup, BoundaryApproach), or in
SolverFailure when a solve does not converge: the step's own, or the
K(g)g solve of the new profile that its margin reads.  A SolverFailure run
still returns its trajectory, whose last row carries the last good profile
and the failing solve's numbers.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .dtn import DtNOperator, operator_for
from .errors import AdmissibilityError, SolverError
from .holder import SampledFunction, h2alpha_norm
from .operator_core import InterpNormEvaluator
from .strip import gmres

STATUS_COMPLETED = "Completed"
STATUS_NORM_BLOWUP = "NormBlowup"
STATUS_BOUNDARY = "BoundaryApproach"
STATUS_SOLVER_FAILURE = "SolverFailure"
STATUS_OK = "OK"

# relative residual asked of the implicit step's outer GMRES
_STEP_RTOL = 1e-10


@dataclass
class EvolutionConfig:
    dt: float
    t_end: float
    scheme: str = "semi_implicit_euler"
    mu_solve: float = 4.0
    breakdown_norm_cap: float = None    # None: 1e3 * |g0|_{h2a} + 1
    boundary_margin_floor: float = None  # None: 1e-3 * initial margin
    output_stride: int = 1
    ny: int = 33
    alpha: float = 0.5
    rtol: float = 1e-11

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.dt:
            raise ValueError("t_end must exceed dt")
        if not np.isfinite(self.t_end / self.dt):    # evolve's step count
            raise ValueError("t_end / dt must be finite")
        if self.scheme != "semi_implicit_euler":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be a positive integer")
        for name in ("breakdown_norm_cap", "boundary_margin_floor"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when given")


@dataclass
class DiagnosticsRow:
    t: float
    h2alpha: float
    margin: float
    residual: float
    iterations: int
    status: str


@dataclass
class Trajectory:
    times: list
    profiles: list
    diagnostics: list
    status: str
    norm_cap: float
    margin_floor: float
    failure_message: str = ""

    def __post_init__(self):
        ts = np.asarray(self.times)
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final(self):
        return self.profiles[-1]


def _step_core(dtn, dt):
    """Solve (I + dt dO) delta = -dt O(g) matrix-free; return delta + info.

    strip.gmres, unpreconditioned, starts from zero and ends each restart
    cycle with one application for the true residual, which the gate reads.
    The returned iteration count is that of the Krylov iterations, one dO
    application each.
    """
    o_val = dtn.apply()
    rhs = -dt * o_val
    if np.linalg.norm(rhs) < 1e-300:
        return np.zeros_like(o_val), 0.0, 0
    sol, its, res = gmres(lambda v: v + dt * dtn.derivative(v), rhs,
                          _STEP_RTOL, min(rhs.size, 60), 3)
    if not res <= max(100.0 * _STEP_RTOL, 1e-8):    # NaN-safe comparison
        raise SolverError(
            f"implicit step solve did not converge (relative residual {res:.3e})",
            residual=res, iterations=its)
    return sol, res, its


def step(p_n, A, dt, mu_solve=4.0, ny=33):
    """One semi-implicit Euler step; returns the advanced profile."""
    dtn = DtNOperator(p_n, A, mu_solve, ny=ny)
    delta, _, _ = _step_core(dtn, dt)
    return p_n.with_g(p_n.g + delta)


def detect_breakdown(cfg, norms):
    """Classify the current diagnostics against the breakdown alternatives.

    norms carries 'h2alpha' and 'margin'.  The boundary test is applied
    first: when both thresholds are crossed in one step the geometric
    alternative (distance to the admissible boundary) names the cause, and
    exactly one flag is ever returned.
    """
    if cfg.boundary_margin_floor is None or cfg.breakdown_norm_cap is None:
        raise ValueError("detect_breakdown needs resolved caps in the config")
    if norms["margin"] < cfg.boundary_margin_floor:
        return STATUS_BOUNDARY
    if norms["h2alpha"] > cfg.breakdown_norm_cap:
        return STATUS_NORM_BLOWUP
    return STATUS_OK


def evolve(p0, A, cfg, dtn=None):
    """Run the semiflow from p0 until t_end or breakdown.

    The initial profile must be admissible (W1 margin > 0); otherwise the
    run is refused with an AdmissibilityError that carries the margin.
    Diagnostics (norm, margin, solver residual) are evaluated every step so
    breakdown detection never lags, and samples are recorded every
    output_stride steps plus at the terminal time.  dtn, when given, is the
    DtNOperator of p0 built with cfg's mu_solve, ny and rtol (as
    Scenario.dtn() gives); its cached K(g)g solve serves t = 0.
    """
    dtn = operator_for(p0, A, cfg.mu_solve, cfg.ny, cfg.rtol, dtn)
    evaluator = InterpNormEvaluator(dtn.A, cfg.alpha)

    def diagnose(dtn):
        # the norm goes before the margin's K(g)g solve: taken after it,
        # the peak RSS of the near-breakdown benchmark rose from 94 to 98 MB
        # (numpy 2.4, one BLAS thread)
        g = SampledFunction(dtn.profile.L, dtn.profile.g)
        return {"h2alpha": h2alpha_norm(g, cfg.alpha, evaluator=evaluator),
                "margin": float(np.min(dtn.margin()))}

    norms = diagnose(dtn)
    if not norms["margin"] > 0:     # NaN-safe: a NaN margin is refused too
        raise AdmissibilityError(
            f"initial profile is not admissible: W1 margin "
            f"{norms['margin']:.6g} <= 0", margin=norms["margin"])
    norm_cap = (cfg.breakdown_norm_cap if cfg.breakdown_norm_cap is not None
                else 1e3 * norms["h2alpha"] + 1.0)
    margin_floor = (cfg.boundary_margin_floor
                    if cfg.boundary_margin_floor is not None
                    else 1e-3 * norms["margin"])
    resolved = dataclasses.replace(cfg, breakdown_norm_cap=norm_cap,
                                   boundary_margin_floor=margin_floor)

    n_steps = int(round(cfg.t_end / cfg.dt))
    profiles, rows = [], []
    current, n, residual, iterations = p0, 0, 0.0, 0
    failure_message = ""

    def record(status):
        profiles.append(current)
        rows.append(DiagnosticsRow(t=n * cfg.dt, h2alpha=norms["h2alpha"],
                                   margin=norms["margin"], residual=residual,
                                   iterations=iterations, status=status))

    while True:
        status = detect_breakdown(resolved, norms)
        if status == STATUS_OK and n == n_steps:
            status = STATUS_COMPLETED
        if status != STATUS_OK or n % cfg.output_stride == 0:
            record(status)
        if status != STATUS_OK:
            break
        n += 1
        try:
            delta, residual, iterations = _step_core(dtn, cfg.dt)
            # rebinding dtn frees the old operator before the new margin solve
            dtn = DtNOperator(current.with_g(current.g + delta), A,
                              cfg.mu_solve, ny=cfg.ny, rtol=cfg.rtol)
            norms = diagnose(dtn)
        except SolverError as exc:
            # the last profile and its norms, with the failing solve's numbers
            status = STATUS_SOLVER_FAILURE
            failure_message = f"step {n} (t={n * cfg.dt:.6g}): {exc}"
            residual = np.nan if exc.residual is None else exc.residual
            iterations = exc.iterations
            record(status)
            break
        current = dtn.profile
    return Trajectory(times=[row.t for row in rows], profiles=profiles,
                      diagnostics=rows, status=status, norm_cap=norm_cap,
                      margin_floor=margin_floor,
                      failure_message=failure_message)

"""Linearly-implicit interface evolution with breakdown detection.

dg/dt + O(g) = 0 is advanced by semi-implicit Euler: the increment solves
(I + dt dO(g_n)) delta = -dt O(g_n) in the trace space, so the stiff
linearization is treated implicitly while O is evaluated at the current
profile.  Each non-Completed trajectory carries exactly one breakdown flag,
mirroring the continuous alternative "norm blows up or the profile reaches
the admissibility boundary".
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .dtn import DtNOperator
from .errors import AdmissibilityError, SolverError
from .geometry import map_inverse
from .holder import (InterpNormEvaluator, InterpolationNormSpec,
                     SampledFunction, h2alpha_norm)

STATUS_COMPLETED = "Completed"
STATUS_NORM_BLOWUP = "NormBlowup"
STATUS_BOUNDARY = "BoundaryApproach"
STATUS_SOLVER_FAILURE = "SolverFailure"
STATUS_OK = "OK"


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
    step_rtol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= self.dt:
            raise ValueError("t_end must exceed dt")
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
    config: EvolutionConfig
    failure_message: str = ""

    def __post_init__(self):
        ts = np.asarray(self.times)
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final(self):
        return self.profiles[-1]


def _step_core(dtn, dt, rtol):
    """Solve (I + dt dO) delta = -dt O(g) matrix-free; return delta + info.

    GMRES starts from zero, so it spends no matvec on an initial residual.
    The gate is the true residual b - A x that GMRES itself computes at the
    end of its last restart cycle: the last (input, output) pair of the
    matvec is kept, and when the returned solution equals that input the
    residual is read off its output.  Only otherwise is (I + dt dO) applied
    once more.  The returned iteration count is the number of dO
    applications, the gate's own extra one excluded.
    """
    p = dtn.profile
    nx, m = p.nx, p.m
    o_val = dtn.apply().value.values
    rhs = (-dt * o_val).ravel()
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm < 1e-300:
        return np.zeros((nx, m), dtype=complex), 0.0, 0

    mv_count = [0]
    last = [None, None]

    def matvec(v):
        mv_count[0] += 1
        arr = v.reshape(nx, m)
        out = (arr + dt * dtn.derivative(arr)).ravel()
        # GMRES updates its iterate in place, so keep a copy of the input
        last[:] = v.copy(), out
        return out

    lin = LinearOperator((nx * m, nx * m), matvec=matvec, dtype=complex)
    sol, info = gmres(lin, rhs, rtol=rtol, atol=0.0,
                      restart=min(nx * m, 60), maxiter=3)
    its = mv_count[0]
    if last[0] is None or not np.array_equal(last[0], sol):
        last[1] = matvec(sol)
    res = np.linalg.norm(last[1] - rhs) / rhs_norm
    if not res <= max(100.0 * rtol, 1e-8):     # NaN-safe comparison
        raise SolverError(
            f"implicit step solve did not converge (relative residual {res:.3e})",
            residual=res, iterations=its)
    return sol.reshape(nx, m), float(res), its


def step(p_n, A, dt, mu_solve=4.0, ny=33, rtol=1e-11, step_rtol=1e-10):
    """One semi-implicit Euler step; returns the advanced profile."""
    dtn = DtNOperator(p_n, A, mu_solve, ny=ny, rtol=rtol)
    delta, _, _ = _step_core(dtn, dt, step_rtol)
    return p_n.with_g(p_n.g + delta)


def detect_breakdown(profile, cfg, norms):
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


def evolve(p0, A, cfg):
    """Run the semiflow from p0 until t_end or breakdown.

    The initial profile must be admissible (W1 margin > 0); otherwise the
    run is refused with an AdmissibilityError that carries the margin.
    Diagnostics (norm, margin, solver residual) are evaluated every step so
    breakdown detection never lags, and samples are recorded every
    output_stride steps plus at the terminal time.
    """
    dtn = DtNOperator(p0, A, cfg.mu_solve, ny=cfg.ny, rtol=cfg.rtol)
    evaluator = InterpNormEvaluator(dtn.A,
                                    InterpolationNormSpec(theta=cfg.alpha))

    def diagnose(dtn):
        # the norm goes before the margin's K(g)g solve: taken after it,
        # the peak RSS of the near-breakdown benchmark rose from 94 to 98 MB
        # (numpy 2.4, one BLAS thread)
        g = SampledFunction(dtn.profile.L, dtn.profile.g)
        return {"h2alpha": h2alpha_norm(g, cfg.alpha, evaluator=evaluator),
                "margin": float(np.min(dtn.margin()[0]))}

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
    times, profiles, rows = [], [], []
    current, t = p0, 0.0
    last_res, last_its = 0.0, 0
    status = None
    failure_message = ""

    def record(stat):
        times.append(t)
        profiles.append(current)
        rows.append(DiagnosticsRow(t=t, h2alpha=norms["h2alpha"],
                                   margin=norms["margin"], residual=last_res,
                                   iterations=last_its, status=stat))

    verdict = detect_breakdown(current, resolved, norms)
    if verdict != STATUS_OK:
        status = verdict
        record(status)
    else:
        record(STATUS_OK)

    n = 0
    while status is None and n < n_steps:
        try:
            delta, last_res, last_its = _step_core(dtn, cfg.dt, cfg.step_rtol)
        except SolverError as exc:
            status = STATUS_SOLVER_FAILURE
            failure_message = f"step {n + 1} (t={t + cfg.dt:.6g}): {exc}"
            t += cfg.dt
            record(status)
            break
        current = current.with_g(current.g + delta)
        t = (n + 1) * cfg.dt
        n += 1
        dtn = DtNOperator(current, A, cfg.mu_solve, ny=cfg.ny, rtol=cfg.rtol)
        norms = diagnose(dtn)
        verdict = detect_breakdown(current, resolved, norms)
        if verdict != STATUS_OK:
            status = verdict
            record(status)
        elif n % cfg.output_stride == 0 or n == n_steps:
            record(STATUS_OK)

    if status is None:
        status = STATUS_COMPLETED
        if not rows or rows[-1].t != t:
            record(STATUS_OK)
        rows[-1].status = STATUS_COMPLETED
    return Trajectory(times=times, profiles=profiles, diagnostics=rows,
                      status=status, norm_cap=norm_cap,
                      margin_floor=margin_floor, config=resolved,
                      failure_message=failure_message)


@dataclass
class Reconstruction:
    x: np.ndarray
    y_physical: np.ndarray      # (nx, ny) heights, interface row first
    u: np.ndarray               # (nx, ny, m) field samples on the moving domain
    f: np.ndarray               # (nx, m) physical interface datum
    f_t: np.ndarray             # (nx, m) interface velocity, -O(g)
    kinetic_residual: float
    kinetic_scale: float


def reconstruct(p, A, mu_solve=4.0, ny=33, rtol=1e-11):
    """Pull the strip solution back to the moving domain and audit the
    kinetic interface condition.

    The kinetic condition f_t + sqrt(1+f_x^2) du/dn = 0 is re-evaluated in
    physical variables: with the outer normal of {0 < y < f},
    sqrt(1+f_x^2) du/dn = -f_x u_x + u_y at the interface, where the
    physical gradient comes from the flattening chain rule.  Using -O(g) as
    f_t the residual is an algebraic identity up to discretization error.
    """
    dtn = DtNOperator(p, A, mu_solve, ny=ny, rtol=rtol)
    app = dtn.apply()
    ups = app.upsilon
    o_val = app.value.values

    y_phys = np.empty((p.nx, ups.ny))
    for j, ys in enumerate(ups.y):
        y_phys[:, j] = map_inverse(p, p.x, np.full(p.nx, ys))[1]

    h = p.h[:, None]
    hx = p.h_x[:, None]
    tr_x = ups.dx(1)[:, 0, :]
    tr_y = ups.dy_trace0()
    u_x = tr_x + tr_y * hx / h          # physical x-derivative at the interface
    u_y = -tr_y / h                     # physical y-derivative
    f = p.nu + p.g
    f_x = p.g_x
    f_t = -o_val
    resid = f_t + (-f_x * u_x + u_y)
    scale = float(np.max(np.abs(o_val)))
    return Reconstruction(
        x=p.x, y_physical=y_phys, u=ups.values, f=f, f_t=f_t,
        kinetic_residual=float(np.max(np.abs(resid))),
        kinetic_scale=scale)

"""Interface time stepping: kinetic coupling, implicit steps, breakdown
dichotomy."""

import numpy as np
import pytest

from conftest import make_profile, torus_x
from stripflow import stepper
from stripflow.dtn import DtNOperator, admissibility
from stripflow.errors import AdmissibilityError, SolverError
from stripflow.geometry import InterfaceProfile
from stripflow.operator_core import SectorialOperator
from stripflow.strip import DiscreteStripOperator
from stripflow.stepper import (
    STATUS_BOUNDARY,
    STATUS_COMPLETED,
    STATUS_NORM_BLOWUP,
    STATUS_SOLVER_FAILURE,
    EvolutionConfig,
    Trajectory,
    _STEP_RTOL,
    _flat_preconditioner,
    _step_core,
    detect_breakdown,
    evolve,
    step,
)

L = 16 * np.pi


def small_cfg(**kw):
    base = dict(dt=0.02, t_end=0.1, scheme="semi_implicit_euler", mu_solve=0.0,
                ny=17, output_stride=1)
    base.update(kw)
    return EvolutionConfig(**base)


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.0, t_end=1.0, scheme="semi_implicit_euler")
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_end=0.05, scheme="semi_implicit_euler")
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_end=1.0, scheme="leapfrog")
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.1, t_end=1.0, scheme="semi_implicit_euler",
                        output_stride=0)


# -------------------------------------------------------------- single step

def test_flat_interface_is_a_fixed_point(A1):
    p = make_profile(nx=32, amp=0.0)
    for _ in range(3):
        p = step(p, A1, 0.05, mu_solve=0.0, ny=9)
    assert np.max(np.abs(p.g)) < 1e-13


def test_single_mode_decay_rate(A1):
    """One semi-implicit step divides a small mode-k amplitude by
    1 + dt*sigma(k) with sigma the flat interface symbol."""
    nx, ny = 64, 17
    p0 = make_profile(nx=nx, amp=1e-4, mode=2)
    k = 2 * np.pi * 2 / L
    sigma = np.sqrt(1.0 + k ** 2) * np.tanh(np.sqrt(1.0 + k ** 2))
    dt = 0.02
    p1 = step(p0, A1, dt, mu_solve=0.0, ny=ny)
    ratio = np.max(np.abs(p1.g)) / np.max(np.abs(p0.g))
    assert ratio == pytest.approx(1.0 / (1.0 + dt * sigma), rel=1e-4)


def test_step_rejects_bad_profile(A1):
    A4 = SectorialOperator(np.array([[4.0]]))
    g = np.full((32, 1), 5.0, dtype=complex)
    p = InterfaceProfile(1.0, L, g)
    cfg = small_cfg()
    with pytest.raises(AdmissibilityError) as exc:
        evolve(p, A4, cfg)
    # the gate reads the same margin the admissibility report states
    assert exc.value.margin == admissibility(p, A4, mu=cfg.mu_solve,
                                             ny=cfg.ny).margin


def _counted_derivative(monkeypatch, fake=None):
    calls = []
    derivative = DtNOperator.derivative

    def counted(self, psi):
        calls.append(1)
        return derivative(self, psi) if fake is None else fake(psi)

    monkeypatch.setattr(DtNOperator, "derivative", counted)
    return calls


def test_step_gate_reuses_the_closing_gmres_residual(A1, monkeypatch):
    """Every dO application of a one-cycle step is a Krylov iteration or
    the cycle's one true-residual application: there is no start-up
    matvec, and the gate reads ||b - A x|| / ||b|| of the returned
    solution."""
    p = make_profile(nx=64, amp=1e-3, mode=1)
    dt = 0.02
    dtn = DtNOperator(p, A1, 0.0, ny=17)
    precond = _flat_preconditioner(dtn, dt)
    calls = _counted_derivative(monkeypatch)
    sol, res, its = _step_core(dtn, dt, precond)
    assert its > 0
    assert len(calls) == its + 1
    rhs = -dt * dtn.apply()
    again = sol + dt * dtn.derivative(sol)
    expected = np.linalg.norm(again - rhs) / np.linalg.norm(rhs)
    assert res == pytest.approx(expected, rel=1e-12)
    assert res <= 100.0 * _STEP_RTOL


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_step_gate_refuses_non_finite_derivative(A1, monkeypatch):
    p = make_profile(nx=32, amp=1e-3, mode=1)
    dtn = DtNOperator(p, A1, 0.0, ny=9)
    precond = _flat_preconditioner(dtn, 0.02)
    _counted_derivative(monkeypatch,
                        fake=lambda psi: np.full(psi.shape, np.nan))
    # the refusal names the gate it missed, max(100 _STEP_RTOL, 1e-8)
    with pytest.raises(SolverError, match="implicit step") as info:
        _step_core(dtn, 0.02, precond)
    assert "(relative residual nan, gate 1e-08)" in str(info.value)


@pytest.mark.parametrize("coupled", [False, True])
def test_flat_preconditioner_inverts_the_flat_step(A1, A2, coupled):
    """The multiplier is the discrete I + dt dO(gbar) inverted, gbar the
    profile's mean: on random data, with a non-normal A for m = 2,
    applying I + dt dO(gbar) after the preconditioner gives the data back
    to round-off."""
    A, m = (A2, 2) if coupled else (A1, 1)
    dt = 0.02
    p = make_profile(nx=32, amp=0.2, mode=1, m=m)
    p = p.with_g(p.g + [0.3, -0.1][:m])
    precond = _flat_preconditioner(DtNOperator(p, A, 4.0, ny=17), dt)
    gbar = np.broadcast_to(p.g.mean(axis=0), p.g.shape)
    flat = DtNOperator(p.with_g(gbar), A, 4.0, ny=17)
    v = np.random.default_rng(7).standard_normal((32, m))
    x = precond(v)
    assert x.shape == v.shape and x.dtype == float
    back = x + dt * flat.derivative(x)
    assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)


def test_preconditioned_step_takes_fewer_iterations(A1):
    """On a near-flat profile the multiplier of I + dt dO(0) leaves the
    step fewer Krylov iterations than the same gmres unpreconditioned, to
    the same solution."""
    p = make_profile(nx=64, amp=1e-3, mode=1)
    dt = 0.02
    dtn = DtNOperator(p, A1, 0.0, ny=17)
    sol, res, its = _step_core(dtn, dt, _flat_preconditioner(dtn, dt))
    plain, _, plain_its = _step_core(dtn, dt, None)
    assert 0 < its < plain_its
    assert res <= 100.0 * _STEP_RTOL
    assert np.linalg.norm(sol - plain) <= 1e-8 * np.linalg.norm(plain)


def _evolve_m1_profile():
    """The evolve-m1 benchmark profile: two modes of 1e-3, nx = 128."""
    x = torus_x(128)
    g = (1e-3 * np.sin(2 * np.pi * x / L)
         + 5e-4 * np.sin(4 * np.pi * x / L + 1.0))
    return InterfaceProfile(1.0, L, g)


def test_next_profile_solve_starts_from_the_linearised_field(A1):
    """On the evolve-m1 profile (two modes of 1e-3, nx = 128, ny = 33,
    mu = 0), the step's closing dO solve is recalled without a Krylov
    iteration, and its field dv[delta] with v gives the next profile's
    K(g)g solve a start that it finishes in at most 2 iterations (4 from
    zero).  A zero or a random start still passes the gate, to the same
    field (the random one, its residual far above the data, in the zero
    start's 4 iterations); a direction other than the step's gives no
    start."""
    p = _evolve_m1_profile()
    dt = 0.02
    dtn = DtNOperator(p, A1, 0.0, ny=33)
    delta, _, _ = _step_core(dtn, dt, _flat_preconditioner(dtn, dt))
    assert dtn.op.last_iterations == 0
    start = dtn.upsilon_along(delta)
    assert dtn.upsilon_along(2.0 * delta) is None
    nxt = p.with_g(p.g + delta)
    fresh = DtNOperator(nxt, A1, 0.0, ny=33)
    want = fresh.upsilon().values
    assert fresh.op.last_iterations == 4
    rng = np.random.default_rng(2)
    for guess, most in ((start, 2), (np.zeros_like(start), 4),
                        (rng.standard_normal(start.shape), 4)):
        warm = DtNOperator(nxt, A1, 0.0, ny=33, start=guess)
        got = warm.upsilon().values
        assert warm.op.last_iterations <= most
        assert warm.op.last_residual <= 1e-9
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_evolve_starts_each_new_profile_from_its_step(A1, monkeypatch):
    """evolve builds the operator of every stepped profile with the start
    its step left (the operator at t = 0 and the flat preconditioner's
    have none)."""
    starts = []
    init = DtNOperator.__init__

    def spy(self, *args, start=None, **kwargs):
        starts.append(start is not None)
        init(self, *args, start=start, **kwargs)

    monkeypatch.setattr(DtNOperator, "__init__", spy)
    traj = evolve(make_profile(nx=64, amp=1e-3, mode=1), A1,
                  small_cfg(t_end=0.06))
    assert traj.status == STATUS_COMPLETED
    assert starts == [False, False, True, True, True]


def test_evolve_builds_one_strip_factor_for_its_profiles(A1, monkeypatch):
    """A 10-step evolve of the evolve-m1 profile fast-diagonalises the strip
    preconditioner once for its eleven profiles, at t = 0, and hands that
    factor from step to step; the flat multiplier builds its own."""
    built = []
    build = DiscreteStripOperator._build_preconditioner

    def spy(self, *args):
        built.append(bool(np.ptp(self.profile.g) > 0))
        return build(self, *args)

    monkeypatch.setattr(DiscreteStripOperator, "_build_preconditioner", spy)
    traj = evolve(_evolve_m1_profile(), A1, small_cfg(t_end=0.2, ny=33))
    assert traj.status == STATUS_COMPLETED
    assert len(traj.times) == 11
    assert built == [True, False]       # the t = 0 operator, the flat one


def test_kept_factor_solves_match_fresh_operators(A1):
    """On the factor kept from t = 0, every new profile's K(g)g solve of a
    10-step evolve passes the gate and lies within 1e-9 of the solve of a
    fresh operator, which builds its own factor."""
    dt = 0.02
    dtn = DtNOperator(_evolve_m1_profile(), A1, 0.0, ny=33)
    precond = _flat_preconditioner(dtn, dt)
    dtn.upsilon()
    factor = dtn.op.factor
    for _ in range(10):
        delta, _, _ = _step_core(dtn, dt, precond)
        dtn = DtNOperator(dtn.profile.with_g(dtn.profile.g + delta), A1, 0.0,
                          ny=33, start=dtn.upsilon_along(delta),
                          factor=dtn.op.factor)
        got = dtn.upsilon().values
        assert dtn.op.factor is factor
        assert dtn.op.last_residual <= 1e-9
        fresh = DtNOperator(dtn.profile, A1, 0.0, ny=33)
        want = fresh.upsilon().values
        assert fresh.op.factor is not factor
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


# ----------------------------------------------------------------- evolve

def test_evolve_decay_monotone(A1):
    nx, ny = 64, 17
    p0 = make_profile(nx=nx, amp=1e-3, mode=1)
    cfg = small_cfg(dt=0.02, t_end=0.2, ny=ny)
    traj = evolve(p0, A1, cfg)
    assert traj.status == STATUS_COMPLETED
    assert len(traj.times) == 11
    assert np.all(np.diff(traj.times) > 0)
    l2 = [np.linalg.norm(prof.g) for prof in traj.profiles]
    assert all(l2[i + 1] < l2[i] for i in range(len(l2) - 1))
    assert traj.final is traj.profiles[-1]
    for row in traj.diagnostics:
        assert row.status in ("OK", STATUS_COMPLETED)
        assert np.isfinite(row.h2alpha) and np.isfinite(row.margin)


def test_evolve_records_stride(A1):
    p0 = make_profile(nx=32, amp=1e-3, mode=1)
    cfg = small_cfg(dt=0.02, t_end=0.12, ny=9, output_stride=3)
    traj = evolve(p0, A1, cfg)
    # samples at t=0 and every third step thereafter, plus the endpoint
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.12)


# ------------------------------------------------------------- breakdown

def _norms(h2alpha, margin):
    return {"h2alpha": h2alpha, "margin": margin}


def test_detect_breakdown_ok(A1):
    cfg = small_cfg(breakdown_norm_cap=10.0, boundary_margin_floor=0.01)
    assert detect_breakdown(cfg, _norms(0.5, 0.4)) == "OK"


def test_detect_breakdown_boundary_wins_ties(A1):
    """When both caps trip at once the boundary flag is reported, never
    both."""
    cfg = small_cfg(breakdown_norm_cap=1.0, boundary_margin_floor=0.2)
    status = detect_breakdown(cfg, _norms(50.0, 0.1))
    assert status == STATUS_BOUNDARY


def test_detect_breakdown_norm_only(A1):
    cfg = small_cfg(breakdown_norm_cap=1.0, boundary_margin_floor=0.2)
    status = detect_breakdown(cfg, _norms(50.0, 0.5))
    assert status == STATUS_NORM_BLOWUP


def test_detect_breakdown_needs_resolved_caps(A1):
    cfg = small_cfg()        # caps left as None
    with pytest.raises(ValueError):
        detect_breakdown(cfg, _norms(0.5, 0.4))


def test_evolve_boundary_breakdown_stops_early(A1):
    p0 = make_profile(nx=64, amp=-0.55, mode=1, shape="bump")
    cfg = small_cfg(dt=0.02, t_end=0.2, ny=17,
                    breakdown_norm_cap=1e6, boundary_margin_floor=0.9)
    traj = evolve(p0, A1, cfg)
    assert traj.status == STATUS_BOUNDARY
    assert traj.status != STATUS_NORM_BLOWUP
    assert traj.diagnostics[-1].status == STATUS_BOUNDARY
    assert len(traj.times) >= 1


def test_evolve_solves_initial_profile_once(A1, monkeypatch):
    """Gate, margin and first step share one K(g)g solve: a run that stops
    at t = 0 makes exactly one strip solve."""
    calls = []
    solve = DiscreteStripOperator.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteStripOperator, "solve", counted)
    p0 = make_profile(nx=32, amp=1e-3, mode=1)
    cfg = small_cfg(ny=9, breakdown_norm_cap=1e6, boundary_margin_floor=1e6)
    traj = evolve(p0, A1, cfg)
    assert traj.status == STATUS_BOUNDARY
    assert traj.times == [0.0]
    assert len(calls) == 1


def test_evolve_norm_breakdown(A1):
    p0 = make_profile(nx=64, amp=0.3, mode=1)
    cfg = small_cfg(dt=0.02, t_end=0.2, ny=17,
                    breakdown_norm_cap=1e-6, boundary_margin_floor=1e-9)
    traj = evolve(p0, A1, cfg)
    assert traj.status == STATUS_NORM_BLOWUP


def test_evolve_solver_failure_records_the_failing_solve(A1,
                                                        third_step_fails):
    """A step whose solve fails ends the run with one SolverFailure row at
    the failed step's time, carrying that solve's residual and iterations,
    not those of the step before."""
    p0 = make_profile(nx=32, amp=1e-3, mode=1)
    traj = evolve(p0, A1, small_cfg(ny=9))
    assert traj.status == STATUS_SOLVER_FAILURE
    assert traj.failure_message.startswith("step 3 (t=0.06)")
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(0.06)
    last = traj.diagnostics[-1]
    assert last.status == STATUS_SOLVER_FAILURE
    assert (last.residual, last.iterations) == (3e-7, 180)
    assert [row.status for row in traj.diagnostics[:-1]] == ["OK"] * 3


def test_evolve_solver_failure_without_residual_records_nan(A1, monkeypatch):
    """A solve that refuses its data before iterating carries no residual;
    its row records NaN."""
    def refuse(dtn, dt, precond):
        raise SolverError("non-finite data", iterations=0)

    monkeypatch.setattr(stepper, "_step_core", refuse)
    traj = evolve(make_profile(nx=32, amp=1e-3, mode=1), A1, small_cfg(ny=9))
    assert traj.failure_message == "step 1 (t=0.02): non-finite data"
    last = traj.diagnostics[-1]
    assert np.isnan(last.residual) and last.iterations == 0


def test_evolve_runs_with_the_offset_at_the_height_floor(A1):
    """nu at or below h_floor is admitted when nu + g stays above it; the
    preconditioner's flat profile sits at the mean height, so such a run
    steps as any other."""
    g = 0.6 + 1e-3 * np.sin(2 * np.pi * torus_x(32) / L)
    p0 = InterfaceProfile(0.5, L, g, h_floor=0.6)
    traj = evolve(p0, A1, small_cfg(ny=9))
    assert traj.status == STATUS_COMPLETED
    assert traj.times[-1] == pytest.approx(0.1)


def test_evolve_names_a_failing_preconditioner_solve(A1, monkeypatch):
    """A strip solve of the preconditioner's build that fails ends the run
    as SolverFailure under its own name, with that solve's numbers."""
    def refuse(psi):
        raise SolverError("strip solve did not converge", residual=2e-4,
                          iterations=7)

    calls = _counted_derivative(monkeypatch, fake=refuse)
    traj = evolve(make_profile(nx=32, amp=1e-3, mode=1), A1, small_cfg(ny=9))
    assert traj.status == STATUS_SOLVER_FAILURE
    assert traj.failure_message == ("step 1 (t=0.02): flat preconditioner: "
                                    "strip solve did not converge")
    last = traj.diagnostics[-1]
    assert (last.residual, last.iterations, len(calls)) == (2e-4, 7, 1)


# ------------------------------------------------------------ reconstruct

def reconstruct(p, A, mu_solve, ny):
    """Pull the strip solution back to the moving domain and audit the
    kinetic interface condition; returns (bulk field, kinetic residual).

    The kinetic condition f_t + sqrt(1+f_x^2) du/dn = 0 is re-evaluated in
    physical variables: with the outer normal of {0 < y < f},
    sqrt(1+f_x^2) du/dn = -f_x u_x + u_y at the interface, where the
    physical gradient comes from the flattening chain rule.  Using -O(g) as
    f_t the residual is an algebraic identity up to discretization error.
    """
    dtn = DtNOperator(p, A, mu_solve, ny=ny)
    app = dtn.apply()
    ups = dtn.upsilon()
    h = p.h[:, None]
    tr_x = ups.dx(1)[:, 0, :]
    tr_y = ups.dy_trace0()
    u_x = tr_x + tr_y * p.h_x[:, None] / h    # physical x-derivative
    u_y = -tr_y / h                           # physical y-derivative
    resid = -app + (-p.g_x * u_x + u_y)
    return ups.values, float(np.max(np.abs(resid)))


def test_reconstruct_satisfies_kinetic_identity(A1):
    """The reconstructed bulk field reproduces the interface speed: on the
    interface, f_t = -sqrt(1+f_x^2) du/dn must match -O(g)."""
    p = make_profile(nx=64, amp=0.05, mode=2)
    u, kinetic_residual = reconstruct(p, A1, mu_solve=0.0, ny=17)
    assert kinetic_residual < 1e-12
    assert np.all(np.isfinite(u))


def test_trajectory_rejects_bad_times(A1):
    p = make_profile(nx=16, amp=0.0)
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], profiles=[p, p], diagnostics=[],
                   status=STATUS_COMPLETED, norm_cap=1.0, margin_floor=0.1)

"""Interface-to-flux operator: evaluation, derivative, frozen symbols,
sectoriality audit, admissibility, localization."""

import os

import numpy as np
import pytest
from numpy.fft import fft, ifft

from conftest import SCENARIO_DIR, counted_kernels, make_profile, torus_x
from stripflow.dtn import (
    DtNOperator,
    admissibility,
    dtn_apply,
    dtn_derivative,
    frozen_set,
    localization_residual,
    sector_report,
)
from stripflow.errors import (FreezePointError, SolverError,
                              SpectralValidationError)
from stripflow.grids import random_trace
from stripflow.model import strip_profile_response, strip_trace_gradient_map
from stripflow.operator_core import SectorialOperator
from stripflow.scenario import load_scenario
from stripflow.strip import DiscreteStripOperator, b0_trace

L = 16 * np.pi


def test_flat_profile_is_stationary(A1):
    """The flux of the flat interface vanishes identically."""
    p = make_profile(nx=64, amp=0.0)
    out = dtn_apply(p, A1, 0.0, ny=17)
    assert np.max(np.abs(out)) < 1e-12


def test_operator_keeps_the_given_coupling():
    """The operator holds the SectorialOperator it was given, with its
    sector angle and resolvent bound, not a copy of its matrix."""
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]),
                          sector_angle=2.0, bound=5.0)
    dtn = DtNOperator(make_profile(nx=32, amp=0.1, m=2), A, 4.0, ny=9)
    assert dtn.A is A
    assert dtn.op.A_mat is A.entries


def test_flat_frozen_symbols(A1):
    """Freezing at a flat profile gives T tanh(T) for the gradient piece and
    exactly zero for both correction pieces."""
    nx, ny = 64, 17
    p = make_profile(nx=nx, amp=0.0)
    mu = 4.0
    fset = frozen_set(p, A1, 0.0, mu, ny=ny)
    ks = fset.k_grid
    T = np.sqrt(1.0 + mu ** 2 + ks ** 2)
    expected = T * np.tanh(T)
    assert np.max(np.abs(fset.sym10[:, 0, 0] - expected)) < 1e-10
    assert np.max(np.abs(fset.sym20)) < 1e-12
    assert np.max(np.abs(fset.sym30)) < 1e-10
    assert np.max(np.abs(fset.sym0[:, 0, 0] - expected)) < 1e-10


def test_frozen_matches_true_derivative_on_constant_profile(A1):
    """For an x-independent interface the coefficient freeze is exact, so the
    frozen family must reproduce the true derivative mode by mode."""
    nx, ny = 64, 17
    x = torus_x(nx)
    mu = 4.0
    for shift in (0.08, -0.35):
        g = np.full((nx, 1), shift, dtype=complex)
        p = make_profile(nx=nx, amp=0.0).with_g(g)
        fset = frozen_set(p, A1, 0.0, mu, ny=ny)
        for kmode in (1, 5):
            k = 2 * np.pi * kmode / L
            psi = np.exp(1j * k * x).astype(complex)[:, None]
            true_d = dtn_derivative(p, A1, psi, mu_solve=mu, ny=ny)
            frozen_d = fset.apply("O0", psi)
            scale = np.max(np.abs(true_d))
            assert np.max(np.abs(true_d - frozen_d)) < 1e-9 * max(scale, 1.0)


def test_nan_freeze_point_is_refused(A1):
    """A NaN point is no grid node: it is refused by name, not frozen at
    node 0."""
    p = make_profile(nx=32, amp=0.05)
    with pytest.raises(FreezePointError,
                       match="freeze point nan is not a grid node"):
        frozen_set(p, A1, np.nan, 4.0, ny=9)


def test_operator_of_another_coupling_is_refused(A1):
    """A dtn built for another A would answer with that A's margin."""
    p = make_profile(nx=32, amp=0.05)
    dtn = DtNOperator(p, A1, 4.0, ny=9)
    for other in (SectorialOperator(np.array([[2.0]])),
                  SectorialOperator(A1.entries)):
        with pytest.raises(ValueError,
                           match="not built for this profile and A"):
            admissibility(p, other, ny=9, dtn=dtn)
    assert admissibility(p, A1, ny=9, dtn=dtn) == admissibility(p, A1, ny=9)


def assert_frozen_pieces_are_live(dtn, x0):
    """At the freeze node x0 the frozen symbols of psi = e^{ikx} are dO(g)'s
    own pieces divided by e^{ikx0}: the boundary piece of derivative_sources
    is the diagonal of sym20, and its interior source, each component's
    column answered by the frozen profile response, gives sym30 (the
    Nyquist mode, whose odd derivative the grid zeroes, is left out).
    sym10 is 1j b10 k + b20 times the trace-gradient map on the whole
    k_grid, Nyquist included.  The set is built at k >= 0, and every
    symbol at -k is exactly the conjugate of the one at k."""
    fset = dtn.frozen_set(x0)
    p = dtn.profile
    i0 = int(np.argmin(np.abs(p.x - fset.x0)))
    half = p.nx // 2
    for sym in (fset.sym10, fset.sym20, fset.sym30, fset.sym0):
        assert np.array_equal(sym[:half:-1], sym[1:half].conj())
    b10, b20 = dtn.coeffs.b10[i0, 0], dtn.coeffs.b20[i0, 0]
    want = ((1j * b10 * fset.k_grid)[:, None, None] * np.eye(p.m)
            + b20 * strip_trace_gradient_map(dtn.frozen_coefficients(x0),
                                             fset.k_grid))
    got = fset.sym10
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    keep = np.arange(p.nx) != half
    sources = []
    for j in np.flatnonzero(keep):
        k = fset.k_grid[j]
        psi = np.tile(np.exp(1j * k * p.x)[:, None], (1, p.m))
        src, boundary = dtn.derivative_sources(psi)
        phase = np.exp(1j * k * fset.x0)
        want = boundary[i0] / phase
        got = np.diag(fset.sym20[j])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        sources.append(src[i0] / phase)
    cols = np.einsum("kyc,cd->kcyd", np.array(sources), np.eye(p.m))
    want = -dtn.coeffs.b20[i0, 0] * strip_profile_response(
        dtn.frozen_coefficients(x0), fset.k_grid[keep], cols,
        dtn.op.Dy).transpose(0, 2, 1)
    got = fset.sym30[keep]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["decay_sine", "coupled_pair"])
def test_frozen_pieces_are_the_live_pieces_at_the_node(name):
    scn = load_scenario(os.path.join(SCENARIO_DIR, name + ".scn"))
    assert_frozen_pieces_are_live(scn.dtn(),
                                  scn.admissibility_report.margin_argmin)


def test_frozen_pieces_keep_each_components_curvature(A2):
    """Two components with equal height and slope at the node but unequal
    curvature: each column of the frozen source uses its own."""
    x = torus_x(32)
    g1 = 0.05 * np.sin(2 * np.pi * x / L)
    g2 = g1 + 0.05 * (1.0 - np.cos(2 * np.pi * x / L))
    p = make_profile(nx=32, amp=0.0, m=2).with_g(np.stack([g1, g2], axis=1))
    assert abs(p.g_xx[0, 1] - p.g_xx[0, 0]) > 1e-4
    assert_frozen_pieces_are_live(DtNOperator(p, A2, 4.0, ny=9), 0.0)


def test_frozen_operators_keep_a_real_trace_real(A2):
    """On a coupled m = 2 profile every frozen operator maps a real trace
    to a real one: the imaginary part of the complex ifft it drops is
    rounding only."""
    nx = 64
    x = torus_x(nx)
    p = make_profile(nx=nx, amp=0.1, m=2)
    fset = frozen_set(p, A2, x[5], 4.0, ny=17)
    psi = np.stack([np.cos(2 * np.pi * x / L),
                    0.5 * np.sin(4 * np.pi * x / L)], axis=1)
    for name in ("O10", "O20", "O30", "O0"):
        out = fset.apply(name, psi)
        full = ifft(np.einsum("kij,kj->ki", fset.symbols(name),
                              fft(psi, axis=0)), axis=0)
        assert out.dtype == np.float64
        assert np.array_equal(out, full.real)
        assert np.max(np.abs(full.imag)) <= 1e-14 * np.max(np.abs(full.real))


def test_derivative_linear_in_direction(A1):
    p = make_profile(nx=64, amp=0.1, mode=2)
    x = torus_x(64)
    psi1 = np.cos(2 * np.pi * x / L).astype(complex)[:, None]
    psi2 = np.sin(4 * np.pi * x / L).astype(complex)[:, None]
    d1 = dtn_derivative(p, A1, psi1, ny=17)
    d2 = dtn_derivative(p, A1, psi2, ny=17)
    d12 = dtn_derivative(p, A1, 2.0 * psi1 - 0.5 * psi2, ny=17)
    assert np.allclose(d12, 2.0 * d1 - 0.5 * d2, atol=1e-8)


@pytest.mark.parametrize("m", [1, 2])
def test_derivative_is_one_solve_of_the_summed_pieces(A1, A2, monkeypatch, m):
    """dO(g) psi reads K psi - S dB off one strip solve; it equals the sum of
    the separately solved pieces."""
    nx = 64
    x = torus_x(nx)
    p = make_profile(nx=nx, amp=0.3, mode=1, m=m)
    psi = np.cos(4 * np.pi * x / L).astype(complex)[:, None]
    if m == 2:
        # unequal components, so the coupling of A2 enters
        p = p.with_g(p.g * np.array([1.0, 0.5]))
        psi = np.hstack([psi, np.sin(2 * np.pi * x / L)[:, None]])
    dtn = DtNOperator(p, A1 if m == 1 else A2, 4.0, ny=17)
    dtn.upsilon()
    calls = []
    solve = DiscreteStripOperator.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteStripOperator, "solve", counted)
    d = dtn.derivative(psi)
    assert len(calls) == 1
    k_piece = b0_trace(dtn.coeffs, dtn.op.solve(psi0=psi))
    src, b0_piece = dtn.derivative_sources(psi)
    s_piece = -b0_trace(dtn.coeffs, dtn.op.solve(F=src))
    expected = k_piece + b0_piece + s_piece
    assert np.max(np.abs(d - expected)) <= 1e-9 * np.max(np.abs(expected))


def _recall_case(A1, A2, m, complex_directions=False):
    """A profile, its coupling and three smooth directions: real, or with
    imaginary parts too."""
    p = make_profile(nx=64, amp=0.15, mode=2, m=m)
    rng = np.random.default_rng(m)
    psis = [random_trace(rng, 64, m) for _ in range(3)]
    if not complex_directions:
        psis = [psi.real for psi in psis]
    return p, (A1 if m == 1 else A2), psis


@pytest.mark.parametrize("m, complex_directions",
                         [(1, False), (2, False), (2, True)],
                         ids=["m1", "m2", "m2-complex"])
def test_derivative_along_combined_directions_is_recalled(
        A1, A2, monkeypatch, m, complex_directions):
    """dO's strip data (-dB[psi, v], psi) are linear in psi, so a direction
    that two earlier ones combine to starts its solve from the same
    combination of their fields: no Krylov iteration, one strip apply per
    real part for the true residual, and dO and v + dv[psi] within the 1e-9
    gate of a fresh operator's.  A direction outside their span takes a
    fresh operator's iterations."""
    p, A, (psi1, psi2, psi3) = _recall_case(A1, A2, m, complex_directions)

    def fresh():
        return DtNOperator(p, A, 4.0, ny=17)

    dtn = fresh()
    dtn.derivative(psi1)
    dtn.derivative(psi2)
    counts = counted_kernels(monkeypatch, dtn.op)
    c1, c2 = (0.7 + 0.2j, -1.3j) if complex_directions else (0.7, -1.3)
    psi = c1 * psi1 + c2 * psi2
    got = dtn.derivative(psi)
    parts = 2 if complex_directions else 1
    assert dtn.op.last_iterations == 0
    assert counts == {"apply_values": parts, "_precond": 0}
    gate = 1e-9
    assert dtn.op.last_residual <= gate
    ref = fresh()
    want = ref.derivative(psi)
    assert ref.op.last_iterations > 0
    assert np.linalg.norm(got - want) <= gate * np.linalg.norm(want)
    field, want_field = dtn.upsilon_along(psi), ref.upsilon_along(psi)
    assert (np.linalg.norm(field - want_field)
            <= gate * np.linalg.norm(want_field))
    dtn.derivative(psi3)
    ref = fresh()
    ref.derivative(psi3)
    assert dtn.op.last_iterations == ref.op.last_iterations > 0


def test_nan_direction_after_a_history_is_refused(A1, A2):
    """A NaN direction fits no earlier one, and its solve refuses its data
    norm as on a fresh operator."""
    p, A, (psi1, psi2, _) = _recall_case(A1, A2, 1)
    dtn = DtNOperator(p, A, 4.0, ny=17)
    dtn.derivative(psi1)
    dtn.derivative(psi2)
    with pytest.raises(SolverError, match="non-finite") as info:
        dtn.derivative(np.full((64, 1), np.nan))
    assert info.value.iterations == 0


def test_derivative_finite_difference_convergence(A1):
    """Second-order agreement between the analytic derivative and centered
    differences of the nonlinear operator."""
    nx, ny = 32, 17
    p = make_profile(nx=nx, amp=0.1, mode=1)
    x = torus_x(nx)
    psi = (0.5 * np.cos(2 * np.pi * 2 * x / L)).astype(complex)[:, None]
    mu = 4.0
    dop = dtn_derivative(p, A1, psi, mu_solve=mu, ny=ny)
    errs = []
    eps_list = (1e-2, 1e-3)
    for eps in eps_list:
        plus = dtn_apply(p.with_g(p.g + eps * psi), A1, mu, ny=ny)
        minus = dtn_apply(p.with_g(p.g - eps * psi), A1, mu, ny=ny)
        fd = (plus - minus) / (2 * eps)
        errs.append(np.max(np.abs(fd - dop)))
    slope = np.log(errs[0] / errs[1]) / np.log(eps_list[0] / eps_list[1])
    assert 1.8 < slope < 2.2
    assert errs[1] / np.max(np.abs(dop)) < 1e-4


# ------------------------------------------------------------- sector audit

def test_sector_report_near_flat(A1):
    p = make_profile(nx=64, amp=0.05, mode=1)
    fset = frozen_set(p, A1, 0.0, 4.0, ny=17)
    rep = sector_report(fset, A1)
    assert rep.passed
    assert rep.generates_analytic_semigroup
    assert rep.entries["O10"].min_re_raw > 0.0
    assert rep.entries["O0"].min_re_raw > 0.0
    for name in ("O20", "O30"):
        assert rep.entries[name].min_re_shifted > 0.0
    assert rep.ratio_spread < 1e3
    assert rep.c2 / rep.c1 < 1e3


def test_sector_report_coupled(A2):
    p = make_profile(nx=64, amp=0.05, mode=1, m=2)
    fset = frozen_set(p, A2, 0.0, 4.0, ny=17)
    rep = sector_report(fset, A2)
    assert rep.passed


def test_sector_report_refuses_a_zero_graded_norm():
    """At A = 1e7 the interpolation norms' t-grid sees e^(-tA) underflow,
    so every A-graded norm is 0: the report refuses it by name instead of
    dividing by it."""
    A = SectorialOperator(np.array([[1e7]]))
    fset = frozen_set(make_profile(nx=32, amp=0.1), A, 0.0, 4.0, ny=9)
    with pytest.raises(SpectralValidationError,
                       match=r"graded norms \|u\|_\(2\+alpha\) = 0 "):
        sector_report(fset, A)


def test_frozen_set_requires_grid_node(A1):
    p = make_profile(nx=32, amp=0.1)
    with pytest.raises(ValueError):
        frozen_set(p, A1, 0.37, 4.0, ny=9)   # not a torus node


# ------------------------------------------------------------ admissibility

def test_flat_admissibility_margin(A1):
    """At the flat interface the gradient term vanishes and the transversality
    weight is nu^2/(1+nu^2); for nu=1 the margin is exactly one half."""
    p = make_profile(nx=64, amp=0.0)
    rep = admissibility(p, A1, mu=0.0, ny=17)
    assert rep.in_W1
    assert abs(rep.margin - 0.5) < 1e-10
    dtn = DtNOperator(p, A1, 0.0, ny=17)
    k_g = dtn.coeffs.alpha_floor[:, 0, :] / dtn.coeffs.a22[:, 0, :]
    assert np.min(k_g) == pytest.approx(0.5, abs=1e-10)
    assert np.max(np.abs(dtn.margin() - k_g)) < 1e-10    # w_g vanishes


def test_dip_reduces_margin(A1):
    p = make_profile(nx=128, amp=-0.5, mode=1, shape="bump")
    rep = admissibility(p, A1, mu=0.0, ny=33)
    assert rep.in_W1
    assert 0.0 < rep.margin < 0.5
    assert 0 <= rep.margin_argmin < 128


# -------------------------------------------------------------- localization

def test_localization_residual_shrinks_with_patch_size(A1):
    p = make_profile(nx=64, amp=0.25, mode=2)
    x = torus_x(64)
    direction = np.cos(2 * np.pi * x / L).astype(complex)[:, None]
    maxes = []
    for delta in (1.0, 0.5, 0.25):
        rep = localization_residual(p, A1, delta, direction, ny=17)
        assert rep.residuals.shape[0] == int(round(1.0 / delta))
        maxes.append(rep.max_residual)
    assert maxes[0] > maxes[1] > maxes[2]


@pytest.mark.parametrize("delta", [-0.5, 0.0, float("nan"), float("inf")])
def test_localization_residual_refuses_a_bad_delta(A1, delta, monkeypatch):
    """A delta that is not positive and finite is refused with a ValueError
    naming it, before the derivative solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before delta was checked")

    monkeypatch.setattr(DiscreteStripOperator, "solve", no_solve)
    p = make_profile(nx=32, amp=0.25, mode=2)
    direction = np.cos(2 * np.pi * torus_x(32) / L)[:, None]
    with pytest.raises(ValueError, match=f"got {delta}"):
        localization_residual(p, A1, delta, direction, ny=9)


def test_complex_typed_real_direction_is_a_real_direction(A1, monkeypatch):
    """A direction of complex dtype whose imaginary parts are all zero is
    real input: dO(g) along it makes the real direction's GMRES runs (its
    K(g)g and one real run for the direction), and its float64 result is
    that of the real direction, bit for bit."""
    import stripflow.strip as strip
    nx = 128
    x = torus_x(nx)
    p = make_profile(nx=nx, amp=0.25, mode=2)
    psi = np.cos(2 * np.pi * x / L)[:, None]
    runs = []
    real_gmres = strip.gmres
    monkeypatch.setattr(strip, "gmres", lambda apply, b, *a, **k:
                        runs.append(b.dtype) or real_gmres(apply, b, *a, **k))
    want = dtn_derivative(p, A1, psi, mu_solve=0.0)
    assert runs == [np.float64] * 2
    runs.clear()
    got = dtn_derivative(p, A1, psi.astype(complex), mu_solve=0.0)
    assert runs == [np.float64] * 2
    assert got.dtype == np.float64
    assert np.array_equal(got, want)

"""Variable-coefficient strip solver and its boundary read-outs."""

import numpy as np
import pytest
import scipy.linalg
from numpy.fft import fft, ifft

import stripflow.strip as strip
from conftest import counted_kernels, make_profile, torus_x
from stripflow.errors import EllipticityError, SolverError
from stripflow.geometry import InterfaceProfile, coefficients
from stripflow.operator_core import SectorialOperator
from stripflow.strip import DiscreteStripOperator, b0_trace, cheb_apply

L = 16 * np.pi


def dy_trace1(fld):
    """d/dy of a solved field at the bottom node y = 1."""
    return cheb_apply(fld.Dy[-1:], fld.values.transpose(1, 0, 2))[0]


def y_major(u):
    """(nx, ny, m) samples as the operator's (ny, m, nx) layout."""
    return np.ascontiguousarray(u.transpose(1, 2, 0))


def residual_of(op, u_values, b):
    """||op u - b|| / ||b|| for a real field u, recomputed independently."""
    r = op.apply_values(y_major(u_values)) - b
    bn = np.linalg.norm(b.ravel())
    return float(np.linalg.norm(r.ravel()) / (bn if bn > 0 else 1.0))


def test_flat_single_mode_closed_form(A1):
    """On the flat strip the solution of a single cosine mode is
    cosh(T(1-y))/cosh(T) and its boundary gradient is -T tanh(T)."""
    nx, ny = 32, 17
    p = make_profile(nx=nx, amp=0.0)
    x = torus_x(nx)
    kmode = 3
    k = 2 * np.pi * kmode / L
    mu = 2.0
    T = np.sqrt(1.0 + mu ** 2 + k ** 2)
    psi = np.cos(k * x).astype(complex)[:, None]
    fld = DiscreteStripOperator(p, A1, mu, ny=ny).solve(psi0=psi)
    expected = (np.cos(k * x)[:, None]
                * (np.cosh(T * (1.0 - fld.y)) / np.cosh(T))[None, :])
    assert np.max(np.abs(fld.values[..., 0] - expected)) < 1e-10
    dtr = fld.dy_trace0()
    assert np.allclose(dtr[:, 0], -T * np.tanh(T) * np.cos(k * x), atol=1e-9)


def test_flat_boundary_readout_is_symbol(A1):
    """b0 o K on the flat strip multiplies each mode by T tanh(T)."""
    nx, ny = 64, 17
    p = make_profile(nx=nx, amp=0.0)
    x = torus_x(nx)
    mu = 4.0
    c = coefficients(p, np.zeros(1))
    for kmode in (1, 5):
        k = 2 * np.pi * kmode / L
        T = np.sqrt(1.0 + mu ** 2 + k ** 2)
        psi = np.sin(k * x).astype(complex)[:, None]
        fld = DiscreteStripOperator(p, A1, mu, ny=ny).solve(psi0=psi)
        out = b0_trace(c, fld)
        assert np.allclose(out[:, 0], T * np.tanh(T) * np.sin(k * x),
                           atol=1e-8)


def test_zero_data_short_circuits(A1):
    p = make_profile(nx=32, amp=0.1)
    op = DiscreteStripOperator(p, A1, 4.0, ny=9)
    fld = op.solve(psi0=np.zeros((32, 1), dtype=complex))
    assert np.all(fld.values == 0.0)
    assert op.last_residual == 0.0


def test_solver_inverts_its_own_operator(A1):
    """Residual metadata reflects the actual discrete residual."""
    p = make_profile(nx=64, amp=0.15, mode=2)
    x = torus_x(64)
    psi = (0.3 * np.cos(2 * np.pi * x / L)).astype(complex)[:, None]
    op = DiscreteStripOperator(p, A1, 4.0, ny=17)
    op.solve(psi0=psi)
    assert op.last_residual < 1e-9


def test_coupled_system_solve(A2):
    p = make_profile(nx=32, amp=0.1, m=2)
    x = torus_x(32)
    psi = np.stack([0.2 * np.cos(2 * np.pi * x / L),
                    0.1 * np.sin(2 * np.pi * x / L)], axis=1).astype(complex)
    fld = DiscreteStripOperator(p, A2, 4.0, ny=17).solve(psi0=psi)
    assert fld.values.shape == (32, 17, 2)
    assert np.allclose(fld.trace0(), psi, atol=1e-10)


def test_real_data_give_a_real_field(A1):
    """A real right-hand side runs real GMRES and returns a real field."""
    p = make_profile(nx=32, amp=0.1, mode=2)
    psi = 0.3 * np.cos(2 * np.pi * torus_x(32) / L)
    fld = DiscreteStripOperator(p, A1, 2.0, ny=17).solve(psi0=psi)
    assert fld.values.dtype == np.float64
    assert fld.dx(1).dtype == np.float64
    assert fld.dy(2).dtype == np.float64


@pytest.mark.parametrize("m", [1, 2])
def test_complex_data_solve_as_the_pair_of_real_solves(m):
    """A complex right-hand side is solved as its real and imaginary
    parts: its solution equals the real solves of the two parts, each on a
    fresh operator (the complex solve's operator would recall them)."""
    p = make_profile(nx=64, amp=0.15, mode=2, m=m)
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])[:m, :m])
    rng = np.random.default_rng(m)
    psi_re, psi_im = rng.standard_normal((2, 64, m))
    F_re, F_im = rng.standard_normal((2, 64, 17, m))
    both = DiscreteStripOperator(p, A, 4.0, ny=17).solve(
        F=F_re + 1j * F_im, psi0=psi_re + 1j * psi_im)
    assert both.values.dtype == np.complex128
    want = (DiscreteStripOperator(p, A, 4.0, ny=17).solve(
        F=F_re, psi0=psi_re).values
            + 1j * DiscreteStripOperator(p, A, 4.0, ny=17).solve(
                F=F_im, psi0=psi_im).values)
    assert (np.linalg.norm(both.values - want)
            <= 1e-12 * np.linalg.norm(want))


def test_complex_coupling_or_profile_refused(A1):
    """The operator is real: a complex A is refused when its
    SectorialOperator is built, and a profile with a nonzero imaginary
    sample when the profile is."""
    x = torus_x(32)
    with pytest.raises(ValueError, match="coupling matrix A must be real"):
        SectorialOperator(np.array([[1.0 + 0.5j]]))
    with pytest.raises(EllipticityError, match="real profile"):
        InterfaceProfile(1.0, L, 0.1 * np.sin(2 * np.pi * x / L)
                         + 1e-12j * np.cos(2 * np.pi * x / L))


def test_bottom_neumann_enforced(A1):
    p = make_profile(nx=32, amp=0.2, mode=2)
    x = torus_x(32)
    psi = (0.3 * np.cos(2 * np.pi * x / L)).astype(complex)[:, None]
    fld = DiscreteStripOperator(p, A1, 2.0, ny=17).solve(psi0=psi)
    assert np.max(np.abs(dy_trace1(fld))) < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_data_raises_not_silently_returns(A1):
    p = make_profile(nx=32, amp=0.1)
    psi = np.full((32, 1), np.nan, dtype=complex)
    with pytest.raises(SolverError, match="non-finite") as info:
        DiscreteStripOperator(p, A1, 4.0, ny=9).solve(psi0=psi)
    assert info.value.iterations == 0


def test_large_amplitude_solve_stays_off_roundoff_floor(A1):
    """At a = 0.5 the preconditioned solve converges in a few dozen
    iterations; a y-contraction that carries more round-off into Dy^2 u
    (a per-x batched matvec) stalls the same solve for hundreds."""
    x = torus_x(128)
    g = -0.5 * np.exp(np.cos(2 * np.pi * x / L) - 1.0)
    p = InterfaceProfile(1.0, L, g)
    op = DiscreteStripOperator(p, A1, 0.0, ny=33)
    op.solve(psi0=p.g)
    assert op.last_iterations <= 60
    assert op.last_residual <= 1e-9


def _wall_dip_operator(a):
    """K(g)g operator of the dip g = -a exp(cos(2 pi x/L) - 1), nx = 128,
    ny = 33, mu = 0; the wall is at depth 1, so a -> 1 is breakdown."""
    x = torus_x(128)
    p = InterfaceProfile(1.0, L, -a * np.exp(np.cos(2 * np.pi * x / L) - 1.0))
    return p, DiscreteStripOperator(p, SectorialOperator(np.array([[1.0]])),
                                    0.0, ny=33)


def test_near_wall_solve_stops_at_the_roundoff_floor():
    """At a = 0.85 two restart cycles reach the gate; further cycles
    cannot take the true residual below the round-off floor."""
    p, op = _wall_dip_operator(0.85)
    op.solve(psi0=p.g)
    assert op.last_iterations <= 120
    assert op.last_residual <= 1e-9


def test_solve_past_the_floor_fails_fast():
    """At a = 0.94 the floor lies above the gate: the solve is refused
    after its two cycles instead of grinding through twenty."""
    p, op = _wall_dip_operator(0.94)
    with pytest.raises(SolverError, match="stalled") as info:
        op.solve(psi0=p.g)
    # the refusal names the gate it missed, max(100 rtol, 1e-9) at the
    # default rtol 1e-11, the smallest height of the profile, 1 - 0.94,
    # and its node x = 0
    assert "(gate 1e-09)" in str(info.value)
    assert "min(nu + g) = 0.06 at x = 0," in str(info.value)
    assert info.value.iterations <= 400
    assert info.value.residual > 1e-9


def test_small_amplitude_solve_takes_three_iterations():
    p, op = _wall_dip_operator(1e-3)
    op.solve(psi0=p.g)
    assert op.last_iterations == 3
    assert op.last_residual <= 1e-9


def _asymmetric_profile(a, x):
    """A dip with no node of symmetry: the row-scaled mixed coefficient
    that the preconditioner drops has a nonzero x-average."""
    kx = 2 * np.pi * x / L
    return (-a * np.exp(np.cos(kx) - 1.0) * (1.0 + 0.3 * np.sin(kx)) / 1.3
            + 0.1 * a * np.sin(2 * kx))


def test_asymmetric_large_amplitude_solve_converges_quickly():
    """The row-scaled preconditioner takes the asymmetric K(g)g solve at
    a = 0.85 in at most 20 iterations (35 with the unscaled average)."""
    p = InterfaceProfile(1.0, L, _asymmetric_profile(0.85, torus_x(128)))
    op = DiscreteStripOperator(p, SectorialOperator(np.array([[1.0]])), 0.0,
                               ny=33)
    op.solve(psi0=p.g)
    assert op.last_iterations <= 20
    assert op.last_residual <= 1e-9


def test_asymmetric_coupled_solve_converges_quickly():
    """m = 2 with unequal components, the second at half the amplitude
    and shifted by L/4: the K(g)g solve at a = 0.85 takes at most 25
    iterations (36 with the unscaled average)."""
    x = torus_x(128)
    g = np.stack([_asymmetric_profile(0.85, x),
                  0.5 * _asymmetric_profile(0.85, x - L / 4)], axis=1)
    p = InterfaceProfile(1.0, L, g)
    op = DiscreteStripOperator(
        p, SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])), 0.0, ny=33)
    op.solve(psi0=p.g)
    assert op.last_iterations <= 25
    assert op.last_residual <= 1e-9


def test_assemble_exposes_operator_pieces(A1):
    op = DiscreteStripOperator(make_profile(nx=32, amp=0.1), A1, 4.0, ny=9)
    assert op.Dy.shape == (9, 9)
    assert op.A_mat.shape == (1, 1)


# (profile, A, mu) cases for the frozen preconditioner, nx = 64
def _precond_case(name):
    x = torus_x(64)
    kx = 2 * np.pi * x / L
    if name == "m1-large-amplitude":
        g = -0.5 * np.exp(np.cos(kx) - 1.0)
        return (InterfaceProfile(1.0, L, g), SectorialOperator(np.array([[1.0]])),
                0.0)
    if name == "m2-unequal":
        g = np.stack([0.1 * np.sin(kx), 0.2 * np.cos(2 * kx)], axis=1)
        return (InterfaceProfile(1.0, L, g),
                SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])), 2.0)
    if name == "m2-rotation":
        # A has eigenvalues 1 +- 0.8i, so the Schur complement's are complex
        g = np.stack([0.1 * np.sin(kx), 0.1 * np.sin(kx)], axis=1)
        return (InterfaceProfile(1.0, L, g),
                SectorialOperator(np.array([[1.0, -0.8], [0.8, 1.0]])), 2.0)
    raise ValueError(name)


PRECOND_CASES = ("m1-large-amplitude", "m2-unequal", "m2-rotation")


def _dense_frozen_inverse(op):
    """Per-mode dense inverses of the row-scaled x-averaged operator, mixed
    term included, applied to flat (nx*ny*m) vectors after the row scaling.

    Each interior row is multiplied by w = 1/a22, x-averaged and divided by
    pb = mean_x w; boundary rows are x-averaged unscaled."""
    c = op.coeffs
    nx, ny, m = op.nx, op.ny, op.m
    k = 2 * np.pi * np.fft.fftfreq(nx, d=op.L / nx)
    k_odd = k.copy()
    k_odd[nx // 2] = 0.0
    w = 1.0 / c.a22                                   # (nx, ny, m)
    pb = w.mean(axis=0)
    a12, a2 = ((w * f).mean(axis=0) / pb for f in (c.a12, c.a2))
    b21 = c.b21.mean(axis=0)
    rowscale = (w / pb).transpose(1, 2, 0)
    rowscale[[0, -1]] = 1.0
    blocks = np.zeros((nx, ny, m, ny, m), dtype=complex)
    for comp in range(m):
        for j in range(nx):
            blk = (-op.Dy2 / pb[:, comp, None] + a2[:, comp, None] * op.Dy
                   - 2j * k_odd[j] * a12[:, comp, None] * op.Dy
                   + k[j] ** 2 * np.eye(ny))
            blocks[j, :, comp, :, comp] = blk
    for i in range(ny):
        blocks[:, i, :, i, :] += op.A_mat + op.mu ** 2 * np.eye(m)
    blocks[:, 0] = 0.0
    blocks[:, -1] = 0.0
    for comp in range(m):
        blocks[:, 0, comp, 0, comp] = 1.0
        blocks[:, -1, comp, :, comp] = b21[comp] * op.Dy[-1]
    inv = np.linalg.inv(blocks.reshape(nx, ny * m, ny * m))

    def apply(v):
        """v is y-major, (ny, m, nx)."""
        rhat = fft(v * rowscale, axis=-1).reshape(ny * m, nx)
        z = np.einsum("kab,bk->ak", inv, rhat)
        return ifft(z, axis=-1).reshape(v.shape)
    return apply


@pytest.mark.parametrize("ny", [9, 17, 33])
@pytest.mark.parametrize("case", PRECOND_CASES)
def test_precond_matches_dense_mode_inverse(case, ny):
    """The fast-diagonalised preconditioner is the inverse of the
    x-averaged operator: it matches per-mode dense inverses that keep the
    mixed term it drops."""
    p, A, mu = _precond_case(case)
    op = DiscreteStripOperator(p, A, mu, ny=ny)
    rng = np.random.default_rng(ny)
    dense = _dense_frozen_inverse(op)
    for v in rng.standard_normal((2, ny, op.m, op.nx)):
        want = dense(v)
        got = op._precond(v)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("case", PRECOND_CASES)
def test_x_averaged_mixed_coefficient_vanishes(case):
    """mean_x a12 = beta mean_x d/dx log w is round-off for a periodic w
    with Re w > 0.  The row-scaled average mean_x(a12/a22) that the
    preconditioner drops is not an exact derivative, but it vanishes for
    profiles symmetric about a node, as every case here is: so the dense
    reference that keeps it matches the preconditioner."""
    p, _, _ = _precond_case(case)
    c = coefficients(p, np.linspace(0.0, 1.0, 17))
    scale = np.max(np.abs(c.a12))
    assert np.max(np.abs(c.a12.mean(axis=0))) <= 1e-14 * scale
    assert np.max(np.abs((c.a12 / c.a22).mean(axis=0))) <= 1e-14 * scale


def test_precond_stores_no_per_mode_matrices():
    """Only the 1/(lam + k^2) table has an axis of rfft modes; the record
    keeps the averages it inverts, per (y, component) row and per
    component."""
    p, A, mu = _precond_case("m2-unequal")
    op = DiscreteStripOperator(p, A, mu, ny=33)
    op._precond(np.zeros(op.shape_full))
    stored = op.factor._asdict()
    assert stored.pop("scale").shape == (op.ny * op.m, op.nx // 2 + 1)
    assert stored.pop("pb").shape == (op.ny, op.m)
    assert stored.pop("b21b").shape == (op.m,)
    for name, arr in stored.items():
        assert op.nx // 2 + 1 not in np.shape(arr), name


def test_handed_factor_is_kept_only_while_its_averages_are_close(A1):
    """An operator handed the fast diagonalisation of a sine of amplitude
    0.6 builds its own for its sine of amplitude 0.02: the averages moved
    beyond the profile's own x-variation.  Handed the factor of its own
    profile, it keeps it.  Either solve passes the gate."""
    x = torus_x(128)

    def solved(amp, factor=None):
        op = DiscreteStripOperator(
            InterfaceProfile(1.0, L, amp * np.sin(2 * np.pi * x / L)), A1,
            0.0, ny=33, factor=factor)
        op.solve(psi0=op.profile.g)
        assert op.last_iterations > 0 and op.last_residual <= 1e-9
        return op

    far, own = solved(0.6).factor, solved(0.02).factor
    assert solved(0.02, factor=far).factor is not far
    assert solved(0.02, factor=own).factor is own


def test_singular_frozen_block_fails_fast():
    """A coupling that makes the k = 0 mode block of the x-averaged
    operator singular is refused before GMRES iterates."""
    nx, ny = 32, 9
    p = make_profile(nx=nx, amp=0.0)
    op = DiscreteStripOperator(p, SectorialOperator(np.array([[0.0]])), 0.0,
                               ny=ny)
    # on the flat strip the k = 0 block acts on x-constant fields; a scalar
    # A adds A to its interior rows, so A = -lam for a finite generalized
    # eigenvalue lam of (block, interior rows) makes it singular
    block = np.stack([op.apply_values(np.broadcast_to(e[:, None, None],
                                                      (ny, 1, nx)))[:, 0, 0]
                      for e in np.eye(ny)], axis=1)
    interior = np.diag(np.r_[0.0, np.ones(ny - 2), 0.0])
    lam = scipy.linalg.eigvals(block, interior)
    lam = lam[np.isfinite(lam)]
    lam_min = lam[np.argmin(np.abs(lam))]
    bad = DiscreteStripOperator(p, SectorialOperator(np.array([[-lam_min]])),
                                0.0, ny=ny)
    with pytest.raises(SolverError, match="mu=0.0") as info:
        bad.solve(psi0=np.ones((nx, 1)))
    assert info.value.iterations == 0


@pytest.mark.parametrize("scale", [1e-320, 1e-200, 1e200])
def test_data_norm_outside_the_double_range_fails_fast(A1, scale):
    """GMRES divides by the data norm, so nonzero data whose norm
    underflows to 0 or overflows is refused before it iterates: the Krylov
    basis would be NaN, and a gate relative to that norm cannot see it."""
    op = DiscreteStripOperator(make_profile(nx=32, amp=0.0), A1, 1.0, ny=9)
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError, match="non-finite or underflows") \
                as info:
            op.solve(psi0=np.full((32, 1), scale))
    assert info.value.iterations == 0


def test_solve_gate_reuses_the_closing_gmres_residual(A1, monkeypatch):
    """Every operator application of a one-cycle solve is a Krylov
    iteration or the cycle's one true-residual application, every
    preconditioner application a Krylov iteration, and the gate reads
    ||b - A x|| / ||b|| of the returned solution."""
    p = make_profile(nx=64, amp=0.15, mode=2)
    op = DiscreteStripOperator(p, A1, 4.0, ny=17)
    counts = counted_kernels(monkeypatch, op)
    psi = (0.3 * np.cos(2 * np.pi * torus_x(64) / L)).astype(complex)[:, None]
    fld = op.solve(psi0=psi)
    assert counts["_precond"] == op.last_iterations > 0
    assert counts["apply_values"] == op.last_iterations + 1
    monkeypatch.undo()
    independent = residual_of(op, fld.values, op.rhs(psi0=psi))
    assert op.last_residual == pytest.approx(independent, rel=1e-12)


@pytest.mark.parametrize("a", [0.3, 0.5])
def test_defective_coupling_converges_like_a_diagonalisable_one(a):
    """The Jordan coupling [[1, 1], [0, 1]] leaves the fast-diagonalised
    preconditioner inexact (its Schur complement is near-defective), yet
    the near-wall bump solve converges within 1.5 times the iterations of
    the diagonalisable [[2, 0.5], [0, 1]]."""
    g = -a * np.exp(np.cos(2 * np.pi * torus_x(128) / L) - 1.0)
    p = InterfaceProfile(1.0, L, np.stack([g, g], axis=1))
    its = []
    for A in ([[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.5], [0.0, 1.0]]):
        op = DiscreteStripOperator(p, SectorialOperator(np.array(A)), 0.0,
                                   ny=33)
        op.solve(psi0=p.g)
        its.append(op.last_iterations)
    assert its[0] <= 1.5 * its[1]


@pytest.mark.parametrize("preconditioned", [False, True])
def test_gmres_matches_a_dense_solve(preconditioned):
    """On a small nonsymmetric system, restarted often, gmres returns the
    dense solution and its own true residual; each iteration applies the
    operator and the preconditioner once, and each cycle applies the
    operator once more."""
    rng = np.random.default_rng(3)
    n = 40
    A = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    M = np.linalg.inv(np.triu(A)) if preconditioned else None
    counts = {"apply": 0, "precond": 0}

    def apply(v):
        counts["apply"] += 1
        return A @ v

    def precond(v):
        counts["precond"] += 1
        return M @ v

    x, its, res = strip.gmres(apply, b, 1e-12, 5, 50,
                              precond=precond if preconditioned else None)
    want = np.linalg.solve(A, b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    assert res == np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12
    cycles = counts["apply"] - its
    assert 1 < cycles <= 50 and its <= 5 * cycles
    assert counts["precond"] == (its if preconditioned else 0)


@pytest.mark.parametrize("apply", [lambda v: 0.0 * v,
                                   lambda v: np.full(v.shape, np.nan)],
                         ids=["zero-pivot", "nan-pivot"])
def test_gmres_hands_a_singular_cycle_to_the_gate(apply):
    """An operator that maps the data to zero leaves a zero pivot in the
    triangular factor, and a NaN apply a NaN one: either gives a NaN
    iterate and a NaN true residual, which the caller's gate refuses, and
    neither raises (nor warns)."""
    x, its, res = strip.gmres(apply, np.ones(8), 1e-10, 5, 2)
    assert its > 0 and np.isnan(res) and np.all(np.isnan(x))


def test_coercivity_probe_refuses_source_and_flux(A1):
    """The interior probe measures Dirichlet data only: an entry with an
    interior source F or a bottom flux psi1 is refused before any solve."""
    p = make_profile(nx=32, amp=0.1)
    psi = np.ones((32, 1))
    for entry in ((np.ones((32, 9, 1)), psi, None), (None, psi, psi)):
        with pytest.raises(ValueError, match="Dirichlet data only"):
            strip.coercivity_probe_33(p, A1, (1.0,), [entry], ny=9)


def test_repeated_solve_keeps_its_iterations(A1):
    """An operator keeps no earlier solve for a later one: the same data
    solved twice on one operator take the same Krylov iterations."""
    op = DiscreteStripOperator(make_profile(nx=64, amp=0.15, mode=2), A1,
                               4.0, ny=17)
    rng = np.random.default_rng(1)
    F, psi = rng.standard_normal((64, 17, 1)), rng.standard_normal((64, 1))
    op.solve(F=F, psi0=psi)
    first = op.last_iterations
    op.solve(F=F, psi0=psi)
    assert op.last_iterations == first > 0


def test_gmres_from_a_start_reaches_the_same_gate():
    """A start that misses rtol is iterated on to the same rtol, at one
    more apply for its residual; one that meets it is returned after that
    apply with 0 iterations; a NaN start is returned with its NaN residual
    and raises nothing."""
    rng = np.random.default_rng(3)
    n = 40
    A = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    want = np.linalg.solve(A, b)
    applies = []

    def apply(v):
        applies.append(1)
        return A @ v

    x, its0, res = strip.gmres(apply, b, 1e-12, 50, 2)
    assert res <= 1e-12
    start = want + 1e-4 * rng.standard_normal(n)
    applies.clear()
    x, its, res = strip.gmres(apply, b, 1e-12, 50, 2, x0=start)
    assert 0 < its < its0 and len(applies) == its + 2
    assert res == np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    applies.clear()
    x, its, res = strip.gmres(apply, b, 1e-3, 50, 2, x0=start)
    assert its == 0 and len(applies) == 1 and np.array_equal(x, start)
    x, its, res = strip.gmres(apply, b, 1e-12, 50, 2,
                              x0=np.full(n, np.nan))
    assert its == 0 and np.isnan(res)


def test_nan_start_is_refused_by_the_solve_gate(A1):
    """A NaN start reaches the caller's gate as a NaN residual, which the
    solve refuses like any stalled solve."""
    p = make_profile(nx=32, amp=0.1)
    op = DiscreteStripOperator(p, A1, 1.0, ny=9)
    with pytest.raises(SolverError, match="stalled") as info:
        op.solve(psi0=p.g, start=np.full((32, 9, 1), np.nan))
    assert np.isnan(info.value.residual) and info.value.iterations == 0

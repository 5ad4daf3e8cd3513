"""Variable-coefficient strip solver and its boundary read-outs."""

import numpy as np
import pytest
import scipy.linalg
from numpy.fft import fft, ifft

import stripflow.strip as strip
from conftest import make_profile, torus_x
from stripflow.errors import SolverError
from stripflow.geometry import InterfaceProfile, coefficients
from stripflow.operator_core import SectorialOperator
from stripflow.strip import DiscreteStripOperator, b0_trace, cheb_apply

L = 16 * np.pi


def dy_trace1(fld):
    """d/dy of a solved field at the bottom node y = 1."""
    return cheb_apply(fld.Dy[-1:], fld.values)[:, 0]


def residual_of(op, u_values, b):
    """||op u - b|| / ||b||, recomputed from scratch."""
    r = op.apply_values(u_values) - b
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
    fld = DiscreteStripOperator(p, A1, 4.0, ny=9).solve(
        psi0=np.zeros((32, 1), dtype=complex))
    assert np.all(fld.values == 0.0)
    assert fld.residual == 0.0


def test_solver_inverts_its_own_operator(A1):
    """Residual metadata reflects the actual discrete residual."""
    p = make_profile(nx=64, amp=0.15, mode=2)
    x = torus_x(64)
    psi = (0.3 * np.cos(2 * np.pi * x / L)).astype(complex)[:, None]
    fld = DiscreteStripOperator(p, A1, 4.0, ny=17).solve(psi0=psi)
    assert fld.resolved
    assert fld.residual < 1e-9


def test_coupled_system_solve(A2):
    p = make_profile(nx=32, amp=0.1, m=2)
    x = torus_x(32)
    psi = np.stack([0.2 * np.cos(2 * np.pi * x / L),
                    0.1 * np.sin(2 * np.pi * x / L)], axis=1).astype(complex)
    fld = DiscreteStripOperator(p, A2, 4.0, ny=17).solve(psi0=psi)
    assert fld.resolved
    assert fld.values.shape == (32, 17, 2)
    assert np.allclose(fld.trace0(), psi, atol=1e-10)


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
    return p, DiscreteStripOperator(p, np.array([[1.0]]), 0.0, ny=33)


def test_near_wall_solve_stops_at_the_roundoff_floor():
    """At a = 0.85 two restart cycles reach the gate; the eight further
    cycles scipy would spend chasing rtol 1e-10 cannot go below the floor."""
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
    assert info.value.iterations <= 400
    assert info.value.residual > 1e-9


def test_small_amplitude_solve_takes_four_iterations():
    p, op = _wall_dip_operator(1e-3)
    op.solve(psi0=p.g)
    assert op.last_iterations == 4
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
        return InterfaceProfile(1.0, L, g), np.array([[1.0]]), 0.0
    if name == "m2-unequal":
        g = np.stack([0.1 * np.sin(kx), 0.2 * np.cos(2 * kx)], axis=1)
        return (InterfaceProfile(1.0, L, g),
                np.array([[2.0, 0.5], [0.0, 1.0]]), 2.0)
    if name == "complex-A":
        return (InterfaceProfile(1.0, L, 0.2 * np.sin(kx)),
                np.array([[1.0 + 0.5j]]), 2.0)
    raise ValueError(name)


PRECOND_CASES = ("m1-large-amplitude", "m2-unequal", "complex-A")


def _dense_frozen_inverse(op):
    """Per-mode dense inverses of the x-averaged operator, mixed term
    included, applied to flat (nx*ny*m) vectors."""
    c = op.coeffs
    nx, ny, m = op.nx, op.ny, op.m
    k = 2 * np.pi * np.fft.fftfreq(nx, d=op.L / nx)
    k_odd = k.copy()
    k_odd[nx // 2] = 0.0
    a12, a22, a2 = (f.mean(axis=0) for f in (c.a12, c.a22, c.a2))
    b21 = c.b21.mean(axis=0)
    blocks = np.zeros((nx, ny, m, ny, m), dtype=complex)
    for comp in range(m):
        for j in range(nx):
            blk = (-a22[:, comp, None] * op.Dy2 + a2[:, comp, None] * op.Dy
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
        rhat = fft(v.reshape(nx, ny, m), axis=0).reshape(nx, ny * m)
        z = np.einsum("kab,kb->ka", inv, rhat)
        return ifft(z.reshape(nx, ny, m), axis=0).ravel()
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
    v = rng.standard_normal(op.n_dof) + 1j * rng.standard_normal(op.n_dof)
    want = _dense_frozen_inverse(op)(v)
    got = op._precond(v)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("case", PRECOND_CASES)
def test_x_averaged_mixed_coefficient_vanishes(case):
    """mean_x a12 = beta mean_x d/dx log w is round-off for a periodic w
    with Re w > 0, which is why the preconditioner leaves it out."""
    p, _, _ = _precond_case(case)
    a12 = coefficients(p, np.linspace(0.0, 1.0, 17)).a12
    assert np.max(np.abs(a12.mean(axis=0))) <= 1e-14 * np.max(np.abs(a12))


def test_precond_stores_no_per_mode_matrices():
    """Only the 1/(lam + k^2) table has an axis of length nx."""
    p, A, mu = _precond_case("m2-unequal")
    op = DiscreteStripOperator(p, A, mu, ny=33)
    op._build_preconditioner()
    stored = op._minv._asdict()
    assert stored.pop("scale").shape == (op.nx, op.ny * op.m)
    for name, arr in stored.items():
        assert op.nx not in np.shape(arr), name


def test_singular_frozen_block_fails_fast():
    """A coupling that makes the k = 0 mode block of the x-averaged
    operator singular is refused before GMRES iterates."""
    nx, ny = 32, 9
    p = make_profile(nx=nx, amp=0.0)
    op = DiscreteStripOperator(p, np.array([[0.0]]), 0.0, ny=ny)
    # on the flat strip the k = 0 block acts on x-constant fields; a scalar
    # A adds A to its interior rows, so A = -lam for a finite generalized
    # eigenvalue lam of (block, interior rows) makes it singular
    block = np.stack([op.apply_values(np.broadcast_to(e[None, :, None],
                                                      (nx, ny, 1)))[0, :, 0]
                      for e in np.eye(ny)], axis=1)
    interior = np.diag(np.r_[0.0, np.ones(ny - 2), 0.0])
    lam = scipy.linalg.eigvals(block, interior)
    lam = lam[np.isfinite(lam)]
    lam_min = lam[np.argmin(np.abs(lam))]
    bad = DiscreteStripOperator(p, np.array([[-lam_min]]), 0.0, ny=ny)
    with pytest.raises(SolverError, match="mu=0.0") as info:
        bad.solve(psi0=np.ones((nx, 1)))
    assert info.value.iterations == 0


def test_solve_gate_reuses_the_closing_gmres_residual(A1, monkeypatch):
    """Every operator application of a solve is a GMRES matvec: the gate
    reads the true residual GMRES computed for the returned solution."""
    p = make_profile(nx=64, amp=0.15, mode=2)
    op = DiscreteStripOperator(p, A1, 4.0, ny=17)
    applies = {"inside": 0, "outside": 0}
    in_gmres = [False]
    operators = []
    real_apply, real_gmres = op.apply_values, strip.gmres

    def counting_apply(u):
        applies["inside" if in_gmres[0] else "outside"] += 1
        return real_apply(u)

    def tracking_gmres(A, *args, **kwargs):
        operators.append(A)
        in_gmres[0] = True
        try:
            return real_gmres(A, *args, **kwargs)
        finally:
            in_gmres[0] = False

    monkeypatch.setattr(op, "apply_values", counting_apply)
    monkeypatch.setattr(strip, "gmres", tracking_gmres)
    psi = (0.3 * np.cos(2 * np.pi * torus_x(64) / L)).astype(complex)[:, None]
    fld = op.solve(psi0=psi)
    assert applies["outside"] == 0
    assert applies["inside"] == operators[-1].count > 0
    monkeypatch.undo()
    independent = residual_of(op, fld.values, op.rhs(psi0=psi))
    assert op.last_residual == pytest.approx(independent, rel=1e-12)

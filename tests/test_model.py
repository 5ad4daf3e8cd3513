"""Frozen-coefficient mode analysis: decay roots, half-plane solves,
trace-gradient maps, multiplier decay, graded coercivity ratios."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from numpy.fft import fft, ifft

import stripflow.model as model
from conftest import make_profile, tail_ratios
from stripflow.dtn import DtNOperator
from stripflow.errors import EllipticityError, SpectralValidationError
from stripflow.geometry import coefficient_derivatives
from stripflow.grids import (cheb_lobatto_01, spectral_derivative,
                             torus_wavenumbers)
from stripflow.holder import (SampledFunction, _graded_probe_norms,
                              scaled_field_norm)
from stripflow.model import (
    FrozenCoefficients,
    _mode_exponents,
    _ModeExp,
    coercivity_probe_59,
    decay_generator,
    default_depth,
    default_eta_grid,
    halfplane_dirichlet_solve,
    multiplier_profiles,
    strip_profile_response,
    strip_trace_gradient_map,
    transverse_semigroup,
)
from stripflow.operator_core import SectorialOperator

L = 16 * np.pi


def fc_scalar(a12=0.0, a22=1.0, a=1.0, mu=0.0):
    return FrozenCoefficients(a12, a22, SectorialOperator(np.array([[a]])), mu)


def fc_coupled(a12=0.1, a22=1.2, mu=0.0):
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]))
    return FrozenCoefficients(a12, a22, A, mu)


# -------------------------------------------------------------- decay roots

def test_flat_decay_root_closed_form():
    for mu in (0.0, 1.0, 4.0):
        for eta in (-3.0, 0.5, 7.0):
            gen = decay_generator(fc_scalar(mu=mu), eta)
            expected = np.sqrt(1.0 + mu ** 2 + eta ** 2)
            assert np.allclose(gen.Lambda, [[expected]], atol=1e-12)


def test_decay_root_quadratic_residual():
    """Lambda satisfies -a22 L^2 - 2i a12 eta L + (A + (mu^2+eta^2)) = 0."""
    for fc in (fc_scalar(0.3, 1.4, 2.0, 1.0), fc_coupled(0.2, 1.1, 4.0)):
        for eta in (-5.0, 0.0, 2.5):
            gen = decay_generator(fc, eta)
            lam = gen.Lambda
            res = (-fc.a22 * lam @ lam - 2j * fc.a12 * eta * lam
                   + fc.a_mu(eta))
            scale = np.linalg.norm(fc.a_mu(eta))
            assert np.linalg.norm(res) < 1e-10 * scale


def test_decay_root_spectrum_decays():
    for fc in (fc_scalar(0.3, 1.4, 2.0, 0.0), fc_coupled(mu=2.0)):
        for eta in (-8.0, 1.0):
            gen = decay_generator(fc, eta)
            eigs = np.linalg.eigvals(gen.Lambda)
            assert np.min(eigs.real) > 0.0


def test_transverse_semigroup_basics():
    fc = fc_coupled(0.15, 1.3, 2.0)
    y = np.linspace(0.0, 3.0, 31)
    N = transverse_semigroup(fc, 1.7, y)
    assert np.allclose(N[0], np.eye(2), atol=1e-13)
    # strictly decaying in operator norm down the half-line
    norms = [np.linalg.norm(N[i], 2) for i in range(len(y))]
    assert all(norms[i + 1] < norms[i] + 1e-13 for i in range(len(y) - 1))
    # generator consistency: dN/dy = -Lambda N (centered difference)
    gen = decay_generator(fc, 1.7)
    i = 15
    dy = y[1] - y[0]
    dN = (N[i + 1] - N[i - 1]) / (2 * dy)
    assert np.allclose(dN, -gen.Lambda @ N[i], atol=5e-3)


# ------------------------------------------------------ trace-gradient map

def test_strip_trace_gradient_map_flat_values():
    """Frozen flat map on the unit-depth strip equals -T tanh(T) with
    T = sqrt(A + mu^2 + k^2)."""
    cases = (
        (1.0, 0.0, 1.0, 1.2563669098108796),
        (1.0, 4.0, 1.0, 4.2408889630239613),
        (1.0, 4.0, 0.0, 4.1209436214120874),
    )
    for a, mu, k, expected in cases:
        fc = fc_scalar(a=a, mu=mu)
        gm = strip_trace_gradient_map(fc, k)
        assert abs(-gm[0, 0] - expected) < 1e-12


def test_strip_trace_gradient_map_coupled_direct_check():
    """Verify u'(0) against a dense collocation solve of the mode problem."""
    fc = fc_coupled(0.25, 1.5, 1.0)
    eta = 1.3
    ny = 48
    y, Dy = cheb_lobatto_01(ny)
    m = 2
    psi = np.array([1.0 + 0.3j, -0.7j])
    big = (np.kron(-fc.a22 * (Dy @ Dy) - 2j * fc.a12 * eta * Dy, np.eye(m))
           + np.kron(np.eye(ny), fc.a_mu(eta)))
    big[:m] = 0.0
    big[:m, :m] = np.eye(m)
    big[-m:] = np.kron(Dy[-1], np.eye(m))
    rhs = np.zeros(ny * m, dtype=complex)
    rhs[:m] = psi
    u = np.linalg.solve(big, rhs).reshape(ny, m)
    uprime0 = Dy[0] @ u
    gm = strip_trace_gradient_map(fc, eta)
    assert np.allclose(gm @ psi, uprime0, atol=1e-9)


# ------------------------------------------------- strip mode responses

def strip_source_response(fc, eta, source_vec, depth=1.0):
    """(u(0)=0, u'(depth)=0) strip solve against a y-constant source.

    Returns (u(0)=0 trivially, u'(0)) for the mode ODE
    -a22 u'' - 2i a12 eta u' + A_mu u = source_vec.  The particular solution
    is the constant A_mu^-1 source; the homogeneous correction uses the same
    stable two-root elimination as the trace-gradient map.
    """
    up = np.linalg.solve(fc.a_mu(eta), np.asarray(source_vec, dtype=complex))
    _, rp, rm = _mode_exponents(fc, eta)
    ee = scipy.linalg.expm(depth * (rm - rp))
    # c+ + c- = -up ;  rho+ e^{rho+ d} c+ + rho- e^{rho- d} c- = 0
    cm = -np.linalg.solve(rp - rm @ ee, rp @ up)
    cp = -up - cm
    return rp @ cp + rm @ cm


def test_profile_response_matches_constant_source_route():
    """For y-independent sources the resolved-profile solver must agree with
    the closed-form constant-source solve."""
    ny = 33
    y, Dy = cheb_lobatto_01(ny)
    for fc in (fc_scalar(0.1, 1.2, 1.0, 2.0), fc_coupled(0.2, 1.4, 1.0)):
        m = fc.A.entries.shape[0]
        eta = 0.8
        consts = np.array([[1.0 + 0.5j] + [0.2j] * (m - 1),
                           [0.0] * (m - 1) + [-0.4]], dtype=complex)
        via_const = np.stack([strip_source_response(fc, eta, c)
                              for c in consts])
        profiles = np.tile(consts[:, None, :], (1, ny, 1))
        via_resolved = strip_profile_response(fc, eta, profiles, Dy)
        assert np.allclose(via_const, via_resolved, atol=1e-9)


def test_profile_response_sees_y_structure():
    # a source concentrated near the bottom and one near the interface must
    # produce different boundary gradients
    ny = 33
    y, Dy = cheb_lobatto_01(ny)
    fc = fc_scalar(0.0, 1.0, 1.0, 0.0)
    near_top = np.exp(-30.0 * y)[None, :, None].astype(complex)
    near_bot = np.exp(-30.0 * (1 - y))[None, :, None].astype(complex)
    r_top = strip_profile_response(fc, 0.5, near_top, Dy)
    r_bot = strip_profile_response(fc, 0.5, near_bot, Dy)
    assert abs(r_top[0, 0] - r_bot[0, 0]) > 1e-3


# ----------------------------------------------------- half-plane solve

def dense_halfline_mode_oracle(fc, k, amp, y_solver, Ybig=12.0, npts=2000):
    """Second-order FD solve of -a22 v'' - 2i a12 k v' + (A+mu^2+k^2) v = 0
    on [0, Ybig] with v(0)=amp and v(Ybig)=0, sampled back on y_solver."""
    m = amp.size
    h = Ybig / (npts - 1)
    I = np.eye(m)
    amu = fc.a_mu(k)
    rows, cols, vals = [], [], []
    for i in range(1, npts - 1):
        for a in range(m):
            for b in range(m):
                c2 = -fc.a22 / h ** 2
                rows += [i * m + a] * 3
                cols += [(i - 1) * m + b, i * m + b, (i + 1) * m + b]
                vals += [c2 * I[a, b], -2 * c2 * I[a, b] + amu[a, b],
                         c2 * I[a, b]]
                c1 = -2j * fc.a12 * k / (2 * h)
                rows += [i * m + a] * 2
                cols += [(i - 1) * m + b, (i + 1) * m + b]
                vals += [-c1 * I[a, b], c1 * I[a, b]]
    for a in range(m):
        rows += [a, (npts - 1) * m + a]
        cols += [a, (npts - 1) * m + a]
        vals += [1.0, 1.0]
    n = npts * m
    Amat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    rhs = np.zeros(n, dtype=complex)
    rhs[:m] = amp
    v = scipy.sparse.linalg.spsolve(Amat, rhs).reshape(npts, m)
    ygrid = np.linspace(0.0, Ybig, npts)
    out = np.empty((y_solver.size, m), dtype=complex)
    for c in range(m):
        out[:, c] = np.interp(y_solver, ygrid, v[:, c].real) \
            + 1j * np.interp(y_solver, ygrid, v[:, c].imag)
    return out


def test_halfplane_dirichlet_single_mode_oracle():
    """Single-mode data: the spectral half-plane solve must match a dense
    finite-difference two-point BVP down the half-line."""
    fc = fc_coupled(0.15, 1.25, 2.0)
    nx = 32
    x = np.arange(nx) * (L / nx)
    k = 2 * np.pi * 2 / L
    amp = np.array([0.6 - 0.2j, 0.35j])
    psi = np.outer(np.exp(1j * k * x), amp)
    y = np.linspace(0.0, 1.2, 25)
    sol = halfplane_dirichlet_solve(fc, psi, y, L=L)
    v = dense_halfline_mode_oracle(fc, k, amp, y)
    i0 = 3
    expected = v * np.exp(1j * k * x[i0])
    rel = np.max(np.abs(sol.values[i0] - expected)) / np.max(np.abs(expected))
    assert rel < 1e-4


# ------------------------------------------------------- multiplier decay

def test_multiplier_profiles_decay():
    fc = fc_scalar(0.1, 1.2, 1.0, 4.0)
    y = np.linspace(0.1, 10.0, 160)
    rep = multiplier_profiles(fc, y, eta_grid=default_eta_grid(L, 64))
    assert np.all(np.isfinite(rep.phi0))
    tails = tail_ratios(rep)
    assert all(r < 1e-3 for r in tails.values())
    # eventually monotone: strictly decreasing over the last third
    last = rep.phi0[2 * len(y) // 3:]
    assert np.all(np.diff(last) <= 1e-14)


# ------------------------------------------------------ graded coercivity

def test_graded_probe_norms_batch_matches_single_fields(rng):
    """The six fields go through one batched scaled_field_norm call; the
    solution norm equals the weighted sum of six single-field calls."""
    nx, ny, m, mu, alpha = 32, 7, 2, 3.0, 0.5
    y = np.linspace(0.0, 2.0, ny) ** 1.5
    names = ("u", "ux", "uxx", "uxy", "uyy", "au")
    fields = {k: rng.standard_normal((nx, ny, m))
              + 1j * rng.standard_normal((nx, ny, m)) for k in names}
    psi = rng.standard_normal((nx, m)).astype(complex)
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    lhs, _ = _graded_probe_norms(fields, psi, A, y, L, alpha, mu)
    single = [scaled_field_norm(fields[k], y, L, alpha, mu) for k in names]
    expected = sum(w * n for w, n in
                   zip((mu ** 2, mu, 2.0, 2.0, 1.0, 1.0), single))
    assert lhs == pytest.approx(expected, rel=1e-14)


def test_probe_59_ratio_flat_across_mu(rng):
    fc = fc_scalar(0.12, 1.3, 1.0, 0.0)
    nx = 64
    x = np.arange(nx) * (L / nx)
    ens = []
    for _ in range(3):
        vals = np.zeros((nx, 1), dtype=complex)
        for kmode in range(1, 7):
            c = (rng.standard_normal() + 1j * rng.standard_normal())
            vals[:, 0] += c * np.exp(2j * np.pi * kmode * x / L) / (1 + kmode) ** 4
        ens.append(SampledFunction(L, 0.02 * vals))
    rep = coercivity_probe_59(fc, ens, (1.0, 2.0, 4.0, 8.0))
    assert np.isfinite(rep.max_ratio)
    assert rep.mu_spread < 2.0


# ------------------------------------ batched kernels vs per-k formulas
# The kernels take the whole wavenumber grid at once; the references below
# evaluate the same formulas one wavenumber at a time with scipy's
# Schur-based sqrtm, expm and a dense solve.

COUPLINGS = {
    "m1": [[1.5]],
    "coupled": [[2.0, 0.5], [0.0, 1.0]],
    "jordan": [[1.0, 1.0], [0.0, 1.0]],     # takes the sqrtm/expm fallbacks
}


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def ref_exponents(fc, k):
    """rho+-(k) at one wavenumber."""
    eye = np.eye(fc.dim)
    root = scipy.linalg.sqrtm(fc.a22 * fc.a_mu(k) - (fc.a12 * k) ** 2 * eye)
    return ((-1j * fc.a12 * k * eye + root) / fc.a22,
            (-1j * fc.a12 * k * eye - root) / fc.a22)


def ref_trace_gradient_map(fc, k, depth=1.0):
    rp, rm = ref_exponents(fc, k)
    ee = scipy.linalg.expm(depth * (rm - rp))
    return rp @ rm @ (np.eye(fc.dim) - ee) @ np.linalg.inv(rp - rm @ ee)


def ref_profile_response(fc, k, sources, Dy):
    ncols, ny, m = sources.shape
    eyem = np.eye(m)
    big = (np.kron(-fc.a22 * (Dy @ Dy) - 2j * fc.a12 * k * Dy, eyem)
           + np.kron(np.eye(ny), fc.a_mu(k)))
    big[:m] = 0.0
    big[:m, :m] = eyem
    big[-m:] = np.kron(Dy[-1], eyem)
    rhs = sources.reshape(ncols, ny * m).T.copy()
    rhs[:m] = 0.0
    rhs[-m:] = 0.0
    w = scipy.linalg.solve(big, rhs).T.reshape(ncols, ny, m)
    return np.einsum("l,nlc->nc", Dy[0], w)


def coupling_fc(name, a12=0.15, a22=1.3, mu=2.0):
    return FrozenCoefficients(a12, a22,
                              SectorialOperator(np.array(COUPLINGS[name])), mu)


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_batched_mode_kernels_match_per_k_formulas(name, rng):
    fc = coupling_fc(name)
    m = fc.dim
    ks = torus_wavenumbers(L, 40)     # two whole k-blocks and a ragged one
    lam = decay_generator(fc, ks).Lambda
    ref_lam = np.stack([ref_exponents(fc, k)[0] for k in ks])
    assert_rel_close(lam, ref_lam)
    # only the defective coupling leaves the eigendecomposition route
    assert list(_ModeExp(lam).ok) == [name != "jordan"] * ks.size
    y = np.linspace(0.0, 3.0, 7)
    assert_rel_close(
        transverse_semigroup(fc, ks, y),
        np.stack([[scipy.linalg.expm(-t * lk) for t in y] for lk in ref_lam]))
    assert_rel_close(strip_trace_gradient_map(fc, ks),
                     np.stack([ref_trace_gradient_map(fc, k) for k in ks]))
    _, Dy = cheb_lobatto_01(9)
    sources = (rng.standard_normal((ks.size, 3, 9, m))
               + 1j * rng.standard_normal((ks.size, 3, 9, m)))
    expected = np.stack([ref_profile_response(fc, k, src, Dy)
                         for k, src in zip(ks, sources)])
    assert_rel_close(strip_profile_response(fc, ks, sources, Dy), expected)


def ref_probe_59_rows(fc, ensemble, mu_list, alpha=0.5, ny=40):
    """coercivity_probe_59 one datum, one mu and one wavenumber at a time."""
    A = fc.A.entries
    rows = []
    for data_index, psi in enumerate(ensemble):
        nx, m = psi.values.shape
        ks = torus_wavenumbers(psi.L, nx)
        psi_hat = fft(psi.values, axis=0)
        for mu in mu_list:
            fcm = fc.with_mu(mu)
            y = np.linspace(0.0, default_depth(fcm), ny)
            fields = {name: np.empty((nx, ny, m), dtype=complex)
                      for name in ("u", "ux", "uxx", "uxy", "uyy", "au")}
            for i, k in enumerate(ks):
                lam = ref_exponents(fcm, -k)[0]
                stack = scipy.linalg.expm(-y[:, None, None] * lam)
                uh = stack @ psi_hat[i]
                fields["u"][i] = uh
                fields["ux"][i] = 1j * k * uh
                fields["uxx"][i] = -(k ** 2) * uh
                fields["uxy"][i] = 1j * k * (-(stack @ lam) @ psi_hat[i])
                fields["uyy"][i] = stack @ lam @ lam @ psi_hat[i]
                fields["au"][i] = uh @ A.T
            fields = {name: ifft(v, axis=0) for name, v in fields.items()}
            rows.append((mu, data_index) + _graded_probe_norms(
                fields, psi.values, A, y, psi.L, alpha, mu))
    return rows


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_batched_probe_59_matches_per_k_loop(name, rng):
    fc = coupling_fc(name, mu=0.0)
    nx, m = 32, fc.dim
    ensemble = [SampledFunction(L, (rng.standard_normal((nx, m))
                                    + 1j * rng.standard_normal((nx, m)))
                                / (1.0 + np.abs(np.fft.fftfreq(nx, 1.0 / nx))
                                   )[:, None] ** 4)
                for _ in range(3)]
    mu_list = (1.0, 2.0, 4.0, 8.0)
    rep = coercivity_probe_59(fc, [SampledFunction(L, ifft(e.values, axis=0))
                                   for e in ensemble], mu_list)
    expected = ref_probe_59_rows(fc, [SampledFunction(L, ifft(e.values,
                                                              axis=0))
                                      for e in ensemble], mu_list)
    # data-major row order, each datum's mu sweep together
    assert [(r.mu, r.data_index) for r in rep.rows] == \
        [row[:2] for row in expected]
    for r, (_, _, lhs, rhs) in zip(rep.rows, expected):
        assert r.lhs == pytest.approx(lhs, rel=1e-12)
        assert r.rhs == pytest.approx(rhs, rel=1e-12)


def ref_frozen_symbols(dtn, i0):
    """sym10, sym20 and sym30 of dtn.frozen_set at node i0, one wavenumber
    at a time."""
    p = dtn.profile
    fc = dtn.frozen_coefficients(p.x[i0])
    h0 = float(np.real(p.nu + p.g[i0, 0]))
    gx0 = float(np.real(p.g_x[i0, 0]))
    b10, b20 = -gx0, -(1.0 + gx0 ** 2) / h0
    ups = dtn.upsilon()
    c1 = spectral_derivative(ups.trace0(), p.L, 1)[i0]
    c2 = ups.dy_trace0()[i0]
    Dy = ups.Dy
    vxy = Dy @ spectral_derivative(ups.values, p.L, 1)[i0]
    vy = Dy @ ups.values[i0]
    vyy = Dy @ vy
    eyem = np.eye(p.m)
    sym10, sym20, sym30 = [], [], []
    for k in torus_wavenumbers(p.L, p.nx):
        sym10.append(1j * b10 * k * eyem + b20 * ref_trace_gradient_map(fc, k))
        sym20.append(np.diag(-1j * k * c1 + (fc.a22 - 2j * k * gx0 / h0) * c2))
        da12, da22, da2, _, _ = coefficient_derivatives(
            (1.0 - ups.y)[:, None], h0, gx0, complex(p.g_xx[i0, 0]), 1.0,
            1j * k, (1j * k) ** 2)
        src = -2.0 * da12 * vxy - da22 * vyy + da2 * vy          # (ny, m)
        cols = np.stack([src[:, [c]] * eyem[c] for c in range(p.m)])
        sym30.append(-b20 * ref_profile_response(fc, k, cols, Dy).T)
    return np.stack(sym10), np.stack(sym20), np.stack(sym30)


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_batched_frozen_set_matches_per_k_loop(name):
    A = SectorialOperator(np.array(COUPLINGS[name]))
    p = make_profile(nx=32, amp=0.05, mode=1, m=A.dim)
    dtn = DtNOperator(p, A, 4.0, ny=17)
    fset = dtn.frozen_set(p.x[5])
    for got, want in zip((fset.sym10, fset.sym20, fset.sym30),
                         ref_frozen_symbols(dtn, 5)):
        assert_rel_close(got, want)


@pytest.mark.parametrize("change, match", [
    (lambda root: root * (1.0 + 1e-6), "residual"),
    (lambda root: -root, "right half-plane"),    # the decaying root's twin
])
def test_certificate_failure_at_one_k_raises(monkeypatch, change, match):
    """A certificate that fails at a single wavenumber of the grid raises the
    same error class as the scalar call at that wavenumber."""
    fc = FrozenCoefficients(0.15, 1.3, SectorialOperator(np.array([[1.0]])),
                            0.0)
    bad_arg = fc.a22 * fc.a_mu(0.5) - (fc.a12 * 0.5) ** 2   # arg at eta = 0.5
    real_sqrt = model.matrix_sqrt

    def faulty_sqrt(arg):
        root = real_sqrt(arg)
        return np.where(np.isclose(arg, bad_arg), change(root), root)

    monkeypatch.setattr(model, "matrix_sqrt", faulty_sqrt)
    ks = np.array([-2.0, -1.0, 0.5, 3.0])
    for eta in (ks, 0.5):
        with pytest.raises(SpectralValidationError,
                           match=f"{match}.* at eta=0.5"):
            decay_generator(fc, eta)
    decay_generator(fc, np.delete(ks, 2))


def test_branch_cut_at_one_k_raises():
    """A negative coupling puts the square-root argument on the cut at
    eta = 0 only."""
    fc = FrozenCoefficients(0.15, 1.3, SectorialOperator(np.array([[-0.5]])),
                            0.0)
    with pytest.raises(EllipticityError, match="eta=0.0"):
        decay_generator(fc, np.array([-3.0, 0.0, 3.0]))
    with pytest.raises(EllipticityError, match="eta=0.0"):
        decay_generator(fc, 0.0)
    decay_generator(fc, np.array([-3.0, 3.0]))

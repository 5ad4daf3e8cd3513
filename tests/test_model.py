"""Frozen-coefficient mode analysis: decay roots, half-plane solves,
trace-gradient maps, multiplier decay, graded coercivity ratios."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from stripflow.grids import cheb_lobatto_01
from stripflow.holder import SampledFunction, scaled_field_norm
from stripflow.model import (
    FrozenCoefficients,
    _graded_probe_norms,
    coercivity_probe_59,
    decay_generator,
    default_eta_grid,
    halfplane_dirichlet_solve,
    multiplier_profiles,
    strip_profile_response,
    strip_source_response,
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
    """Frozen flat map equals -T tanh(nu T) with T = sqrt(A + mu^2 + k^2)."""
    cases = (
        (1.0, 1.0, 0.0, 1.0, 1.2563669098108796),
        (1.0, 1.0, 4.0, 1.0, 4.2408889630239613),
        (1.0, 1.0, 4.0, 0.0, 4.1209436214120874),
        (2.0, 0.8, 4.0, 0.25, 4.2405434437206873),
    )
    for a, nu, mu, k, expected in cases:
        fc = fc_scalar(a=a, mu=mu)
        gm = strip_trace_gradient_map(fc, k, depth=nu)
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


def test_halfplane_solve_flags_rough_data(rng):
    fc = fc_scalar(mu=1.0)
    nx = 32
    psi = rng.standard_normal((nx, 1)) + 0j
    sol = halfplane_dirichlet_solve(fc, psi, np.linspace(0, 5, 50), L=L)
    assert not sol.resolved


# ------------------------------------------------------- multiplier decay

def test_multiplier_profiles_decay():
    fc = fc_scalar(0.1, 1.2, 1.0, 4.0)
    y = np.linspace(0.1, 10.0, 160)
    rep = multiplier_profiles(fc, y, eta_grid=default_eta_grid(L, 64))
    assert np.all(np.isfinite(rep.phi0))
    tails = rep.tail_ratios()
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

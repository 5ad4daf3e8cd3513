"""Constant-coefficient (frozen) problems on the half-plane and the strip.

After freezing the transformed coefficients at a boundary point, the
elliptic system reduces per Fourier mode eta to a constant-coefficient ODE
in the transverse variable whose decaying solutions are generated by a
matrix Lambda(eta, mu) — the unique right-half-plane root of

    -a22 L^2 - 2i a12 eta L + (A + mu^2 + eta^2) = 0.

Everything here is a function of that root: Dirichlet multiplier solves,
multiplier-norm decay profiles and the parameter-graded coercivity probe.

Convention note: arrays are reconstructed with numpy's ifft (modes e^{+ikx}),
under which the decaying transverse exponent for wavenumber k is
-Lambda(-k).  All mode stacks below route through that bridge.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.fft import fft, ifft

from .errors import EllipticityError, SpectralValidationError
from .grids import torus_nodes, torus_wavenumbers
from .holder import _probe_report
from .operator_core import SectorialOperator
from .strip import StripField


@dataclass
class FrozenCoefficients:
    """Principal coefficients frozen at a boundary point, plus the shift mu.

    a12 and a22 are scalars: when m > 1 the freeze point must carry equal
    per-component values (enforced by the caller that produces them), since
    the exact-root algebra below requires the principal part to commute
    with A.
    """
    a12: float
    a22: float
    A: SectorialOperator
    mu: float
    alpha_p: float = field(init=False)

    def __post_init__(self):
        self.a12 = float(self.a12)
        self.a22 = float(self.a22)
        self.mu = float(self.mu)
        # NaN-safe comparisons: a NaN mu, a22 or a12 is refused too
        if not self.mu >= 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not self.a22 > 0:
            raise EllipticityError(f"a22 must be positive, got {self.a22}")
        self.alpha_p = self.a22 - self.a12 ** 2
        if not self.alpha_p > 1e-12:
            raise EllipticityError(
                f"frozen form not elliptic: a22 - a12^2 = {self.alpha_p:.3e}")

    @property
    def dim(self):
        return self.A.dim

    def a_mu(self, eta):
        """A + (mu^2 + eta^2) I, stacked over the shape of eta."""
        eta = np.asarray(eta, dtype=float)[..., None, None]
        return self.A.entries + (self.mu ** 2 + eta ** 2) * np.eye(self.A.dim)

    def with_mu(self, mu):
        return FrozenCoefficients(self.a12, self.a22, self.A, mu)


def _mode_exponents(fc, eta):
    """Square-root argument and both mode exponents, stacked over eta.

    arg = a22 (A + mu^2 + eta^2) - a12^2 eta^2 I and
    rho+- = (-i a12 eta I +- arg^1/2) / a22 with the principal root, so
    rho+ is the decay generator Lambda(eta).  The roots of the real stack
    arg come from one call of scipy's Schur-based sqrtm (Higham 1987;
    Deadman, Higham & Ralha 2013), defective couplings included.
    """
    e = np.asarray(eta, dtype=float)[..., None, None]
    eye = np.eye(fc.dim)
    arg = fc.a22 * fc.a_mu(eta) - (fc.a12 * e) ** 2 * eye
    root = scipy.linalg.sqrtm(arg)
    drift = -1j * fc.a12 * e * eye
    return arg, (drift + root) / fc.a22, (drift - root) / fc.a22


@dataclass
class DecayGenerator:
    """Lambda(eta), certified; for an array of eta it is stacked as
    eta.shape + (m, m)."""
    Lambda: np.ndarray


def decay_generator(fc, eta):
    """Right-half-plane root of the transverse operator quadratic.

    Lambda = a22^-1 (-i a12 eta I + (a22 (A + mu^2 + eta^2) - a12^2 eta^2 I)^1/2),
    with the principal matrix square root.  The construction is certified on
    the spot: the square-root argument must stay off the branch cut, the
    quadratic residual must vanish to 1e-10 relative and the spectrum of
    Lambda must lie strictly in the right half-plane.  eta is a scalar or an
    array of wavenumbers; every certificate holds per wavenumber, and the
    first wavenumber that fails one raises.
    """
    eta = np.asarray(eta, dtype=float)
    arg, lam, _ = _mode_exponents(fc, eta)
    etas = eta.reshape(-1)
    arg_eigs = np.linalg.eigvals(arg).reshape(etas.size, -1)
    on_cut = ((np.real(arg_eigs) <= 0)
              & (np.abs(np.imag(arg_eigs)) <= 1e-12 * np.abs(arg_eigs)))
    if np.any(on_cut):
        i = int(np.argmax(np.any(on_cut, axis=1)))
        raise EllipticityError(
            "square-root argument touches the branch cut (eigenvalue "
            f"{arg_eigs[i][np.argmin(np.real(arg_eigs[i]))]:.4g} "
            f"at eta={etas[i]})")
    amu = fc.a_mu(eta)
    residual = np.linalg.norm(
        -fc.a22 * lam @ lam - 2j * fc.a12 * eta[..., None, None] * lam + amu,
        2, axis=(-2, -1))
    over = (residual > 1e-10 * np.linalg.norm(amu, 2, axis=(-2, -1))).ravel()
    if np.any(over):
        i = int(np.argmax(over))
        raise SpectralValidationError(
            f"decay generator residual {residual.ravel()[i]:.3e} exceeds "
            f"1e-10*|A_mu| at eta={etas[i]}")
    left = np.min(np.real(np.linalg.eigvals(lam)), axis=-1).ravel() <= 0
    if np.any(left):
        raise SpectralValidationError(
            "decay generator spectrum leaves the right half-plane at "
            f"eta={etas[np.argmax(left)]}")
    return DecayGenerator(lam)


def _mode_exp(lam, y):
    """exp(-Lambda y) over the depths y, for one matrix or a (..., m, m)
    stack lam, stacked as lam.shape[:-2] + (ny, m, m).  Each matrix goes
    through its eigendecomposition, or through expm when its eigenvector
    matrix has condition 1e10 or more."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    flat = lam.reshape(-1, *lam.shape[-2:])
    w, V = np.linalg.eig(flat)
    ok = np.linalg.cond(V) < 1e10
    out = np.empty((flat.shape[0], y.size) + flat.shape[1:], dtype=complex)
    ex = np.exp(-(y[None, :, None] * w[ok][:, None, :]))
    out[ok] = np.einsum("kij,kyj,kjl->kyil", V[ok], ex, np.linalg.inv(V[ok]))
    if not ok.all():
        out[~ok] = scipy.linalg.expm(
            -y[None, :, None, None] * flat[~ok][:, None])
    return out.reshape(lam.shape[:-2] + out.shape[1:])


def transverse_semigroup(fc, eta, y_arr):
    """N(eta, y) = exp(-Lambda(eta) y), stacked as eta.shape + (ny, m, m)."""
    return _mode_exp(decay_generator(fc, eta).Lambda, y_arr)


def halfplane_dirichlet_solve(fc, psi, y_grid, L):
    """Multiplier solution of the frozen half-plane Dirichlet problem.

    psi is an (nx, m) array of samples on the x-torus of circumference
    L.  Per FFT mode k the solution is exp(-Lambda(-k) y) psi_hat(k); the
    trace at y=0 reproduces psi to transform accuracy.  Returns a
    StripField.
    """
    values = np.asarray(psi, dtype=complex)
    y = np.asarray(y_grid, dtype=float)
    nx, m = values.shape
    ks = torus_wavenumbers(L, nx)
    stack = transverse_semigroup(fc, -ks, y)                # (nx, ny, m, m)
    u = ifft(np.einsum("kyij,kj->kyi", stack, fft(values, axis=0)), axis=0)
    return StripField(x=torus_nodes(L, nx), y=y, L=L, values=u)


def strip_trace_gradient_map(fc, eta):
    """d/dy at y=0 of the strip solve with Dirichlet top / Neumann bottom.

    On the reference strip 0 < y < 1 the mode ODE has exponents
    rho+- = (-i a12 eta ± R)/a22 (R the principal root used by the decay
    generator); imposing u(0)=psi and u'(1)=0 and eliminating the growing
    mode stably gives

        u'(0) = rho+ rho- (I - EE) (rho+ - rho- EE)^-1 psi,
        EE = exp(rho- - rho+).

    On a strip of depth d, EE = exp(d (rho- - rho+)), which tends to 0 as
    d -> inf: the map then tends to rho-, the half-plane multiplier.  Note the
    eta passed here should already be in library FFT convention (the caller
    does not need the -eta bridge; the formula is written directly for modes
    e^{+i eta x}).  eta is a scalar or an array of wavenumbers; the maps
    are stacked as eta.shape + (m, m).  EE is exp(-(rho+ - rho-)) from
    _mode_exp: the eigendecomposition where it is well conditioned, expm
    otherwise.  The frozen sets evaluate the map at eta >= 0 only, since
    the map at -eta is the conjugate of the one at eta (see
    DtNOperator._build_frozen_set).
    """
    _, rp, rm = _mode_exponents(fc, eta)
    ee = _mode_exp(rp - rm, 1.0)[..., 0, :, :]
    return rp @ rm @ (np.eye(fc.dim) - ee) @ np.linalg.inv(rp - rm @ ee)


# wavenumbers per stacked solve in strip_profile_response: a block holds
# one component's (ny, ny) systems, 0.28 MB complex at ny = 33, where the
# 65 wavenumbers of a frozen build at nx = 128 would hold 1.1 MB at once;
# blocks of 16 ran faster than blocks of 33, 64 or 128
_K_BLOCK = 16


def strip_profile_response(fc, eta, sources, Dy):
    """(u(0)=0, u'(1)=0) strip solves against y-dependent mode sources.

    Collocation solve for sources resolved on the solver's y-grid (node 0
    at y=0): solves  -a22 u'' - 2i a12 eta u' + A_mu u = s(y)  for each
    source column and returns the stack of u'(0).  For a scalar eta, sources has shape
    (ncols, ny, m) and the result (ncols, m); for an array of wavenumbers
    both gain the leading shape of eta.

    a12 and a22 are scalars, so the system is kron(P, I_m) + kron(I_ny, A_mu)
    with P = -a22 Dy^2 - 2i a12 eta Dy, and its boundary rows act per
    component.  With A = Q T Q^H in complex Schur form (Bartels and
    Stewart, Comm. ACM 15, 1972) the components of Q^H u decouple into ny-square
    systems, solved from the last component up:
        (P + t_cc + mu^2 + eta^2) (Q^H u)_c
            = (Q^H s)_c - sum_{d > c} t_cd (Q^H u)_d.
    The systems of _K_BLOCK wavenumbers at a time are stacked and solved
    together, each factored once for all its columns.  At m = 1, Q = 1 and
    T = A.
    """
    eta = np.asarray(eta, dtype=float)
    etas = eta.reshape(-1)
    T, Q = scipy.linalg.schur(fc.A.entries, output="complex")
    sources = np.asarray(sources, dtype=complex) @ Q.conj()
    ncols, ny, m = sources.shape[-3:]
    rhs_all = sources.reshape(etas.size, ncols, ny, m).transpose(0, 2, 3, 1)
    d2 = -fc.a22 * (Dy @ Dy)
    inner = np.arange(1, ny - 1)
    out = np.empty((etas.size, ncols, m), dtype=complex)
    for s in range(0, etas.size, _K_BLOCK):
        e = etas[s:s + _K_BLOCK]
        p = d2 - (2j * fc.a12 * e)[:, None, None] * Dy
        p[:, 0] = 0.0
        p[:, 0, 0] = 1.0                     # Dirichlet at the interface node
        p[:, -1] = Dy[-1]                    # Neumann at the bottom node
        w = rhs_all[s:s + _K_BLOCK].copy()   # (block, ny, m, ncols)
        w[:, [0, -1]] = 0.0
        for c in reversed(range(m)):
            for d in range(c + 1, m):
                w[:, 1:-1, c] -= T[c, d] * w[:, 1:-1, d]
            big = p.copy()
            big[:, inner, inner] += (T[c, c] + (fc.mu ** 2 + e ** 2))[:, None]
            w[:, :, c] = np.linalg.solve(big, w[:, :, c])
        out[s:s + _K_BLOCK] = np.einsum("l,blcn->bnc", Dy[0], w) @ Q.T
    return out.reshape(eta.shape + (ncols, m))


@dataclass
class MultiplierDecayReport:
    y_grid: np.ndarray
    phi0: np.ndarray          # A-weighted profile
    phi_j: np.ndarray         # (3, ny): |mu|^{2-j} eta^j weights, j = 0,1,2


def default_eta_grid(L, nx):
    """Torus wavenumbers plus a four times denser patch near eta = 0."""
    ks = np.sort(np.unique(torus_wavenumbers(L, nx)))
    dk = ks[1] - ks[0] if ks.size > 1 else 1.0
    near = np.arange(-8, 9) * (dk / 4)
    return np.unique(np.concatenate([ks, near]))


def multiplier_profiles(fc, y_grid, eta_grid):
    """Decay profiles of the multiplier families A N_mu and mu/eta-weighted N_mu.

    Phi_0(y) = max over eta of ||A N(eta,y)|| + (1+|eta|)^(1/2) ||d/deta [A N]||,
    and Phi_j likewise for |mu|^{2-j} eta^j N, j = 0..2 (the derivative taken
    by symmetric differencing with step d_eta = 1e-4).  These are the
    computable surrogates of the Hölder multiplier norms, and they must
    decay in y.
    """
    y = np.asarray(y_grid, dtype=float)
    eta_grid = np.asarray(eta_grid, dtype=float)
    d_eta = 1e-4
    mu = abs(fc.mu)
    n_mid = transverse_semigroup(fc, eta_grid, y)           # (neta, ny, m, m)
    n_up = transverse_semigroup(fc, eta_grid + d_eta, y)
    n_dn = transverse_semigroup(fc, eta_grid - d_eta, y)
    root_w = np.sqrt(1.0 + np.abs(eta_grid))[:, None]

    def profile(q, dq):
        """max over eta of ||q|| + (1+|eta|)^(1/2) ||dq||, per y."""
        norm_q = np.linalg.norm(q, ord=2, axis=(2, 3))
        norm_dq = np.linalg.norm(dq, ord=2, axis=(2, 3))
        return np.max(norm_q + root_w * norm_dq, axis=0)

    A = fc.A.entries
    phi0 = profile(np.einsum("ij,eyjk->eyik", A, n_mid),
                   np.einsum("ij,eyjk->eyik", A, (n_up - n_dn) / (2 * d_eta)))
    phi_j = np.zeros((3, y.size))
    for j in range(3):
        w_mid, w_up, w_dn = (mu ** (2 - j) * e[:, None, None, None] ** j
                             for e in (eta_grid, eta_grid + d_eta,
                                       eta_grid - d_eta))
        phi_j[j] = profile(w_mid * n_mid,
                           (w_up * n_up - w_dn * n_dn) / (2 * d_eta))
    return MultiplierDecayReport(y_grid=y, phi0=phi0, phi_j=phi_j)


def default_depth(fc):
    """Transverse truncation depth: ten decay lengths."""
    lam_min = float(np.min(np.real(np.linalg.eigvals(fc.A.entries))))
    return 10.0 / np.sqrt(1.0 + fc.mu ** 2 + max(lam_min, 0.0))


def coercivity_probe_59(fc, psi_ensemble, mu_list, alpha=0.5):
    """Parameter-graded ratio probe for the half-plane Dirichlet estimate.

    For each boundary datum and each mu, all derivative fields of the
    multiplier solution are computed exactly per mode on 40 equispaced
    depths down to default_depth and measured in the mu-scaled Hölder
    norms; the ratio against the mu-graded data norm of psi must stay
    bounded (and roughly flat) across the mu sweep.  Plain unscaled Hölder
    norms would make the ratio drift like mu^(2+alpha) even in the scalar
    flat case, so the graded norms are the meaningful discretization of the
    estimate.
    """
    L = psi_ensemble[0].L if len(psi_ensemble) else None
    if any(psi.L != L or psi.nx != psi_ensemble[0].nx for psi in psi_ensemble):
        raise ValueError("coercivity probe data must share one torus grid")
    A = fc.A.entries

    def solutions():
        ks = torus_wavenumbers(L, psi_ensemble[0].nx)
        ik = 1j * ks[:, None, None]
        psi_hats = [fft(psi.values, axis=0) for psi in psi_ensemble]
        # the mode stacks of one mu at a time, shared by every datum
        for mu in mu_list:
            fcm = fc.with_mu(mu)
            y = np.linspace(0.0, default_depth(fcm), 40)
            lam = decay_generator(fcm, -ks).Lambda           # (nx, m, m)
            stack = _mode_exp(lam, y)                        # (nx, ny, m, m)
            for psi_hat in psi_hats:
                # d/dy brings down -Lambda: N Lambda psi_hat and
                # N Lambda^2 psi_hat
                lam_psi = np.einsum("kij,kj->ki", lam, psi_hat)
                lam2_psi = np.einsum("kij,kj->ki", lam, lam_psi)
                uh = np.einsum("kyij,kj->kyi", stack, psi_hat)
                fields = (uh, ik * uh, -(ks ** 2)[:, None, None] * uh,
                          -ik * np.einsum("kyij,kj->kyi", stack, lam_psi),
                          np.einsum("kyij,kj->kyi", stack, lam2_psi),
                          np.einsum("ij,kyj->kyi", A, uh))
                yield y, np.stack([ifft(f, axis=0) for f in fields])

    return _probe_report([psi.values for psi in psi_ensemble], A, L, alpha,
                         mu_list, solutions())

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
-Lambda(-k).  All mode loops below route through that bridge.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.fft import fft, ifft

from .errors import EllipticityError, SpectralValidationError
from .grids import spectral_tail_fraction, torus_wavenumbers
from .holder import graded_trace_norm, scaled_field_norm, trace_xnorm
from .operator_core import SectorialOperator, matrix_sqrt


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
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if self.a22 <= 0:
            raise EllipticityError(f"a22 must be positive, got {self.a22}")
        self.alpha_p = self.a22 - self.a12 ** 2
        if self.alpha_p <= 1e-12:
            raise EllipticityError(
                f"frozen form not elliptic: a22 - a12^2 = {self.alpha_p:.3e}")

    @property
    def dim(self):
        return self.A.dim

    def a_mu(self, eta):
        """A + (mu^2 + eta^2) I."""
        return self.A.entries + (self.mu ** 2 + eta ** 2) * np.eye(self.A.dim)

    def with_mu(self, mu):
        return FrozenCoefficients(self.a12, self.a22, self.A, mu)


@dataclass
class DecayGenerator:
    eta: float
    Lambda: np.ndarray
    residual: float


def decay_generator(fc, eta):
    """Right-half-plane root of the transverse operator quadratic.

    Lambda = a22^-1 (-i a12 eta I + (a22 (A + mu^2 + eta^2) - a12^2 eta^2 I)^1/2),
    with the principal matrix square root.  The construction is certified on
    the spot: the quadratic residual must vanish to 1e-10 relative and the
    spectrum of Lambda must lie strictly in the right half-plane.
    """
    eta = float(eta)
    m = fc.dim
    eye = np.eye(m)
    amu = fc.a_mu(eta)
    arg = fc.a22 * amu - (fc.a12 * eta) ** 2 * eye
    arg_eigs = np.linalg.eigvals(arg)
    if np.any((np.real(arg_eigs) <= 0) & (np.abs(np.imag(arg_eigs))
                                          <= 1e-12 * np.abs(arg_eigs))):
        raise EllipticityError(
            "square-root argument touches the branch cut "
            f"(eigenvalue {arg_eigs[np.argmin(np.real(arg_eigs))]:.4g} at eta={eta})")
    root = matrix_sqrt(arg)
    lam = (-1j * fc.a12 * eta * eye + root) / fc.a22
    residual = np.linalg.norm(
        -fc.a22 * lam @ lam - 2j * fc.a12 * eta * lam + amu, 2)
    scale = np.linalg.norm(amu, 2)
    if residual > 1e-10 * scale:
        raise SpectralValidationError(
            f"decay generator residual {residual:.3e} exceeds 1e-10*|A_mu| at eta={eta}")
    if np.min(np.real(np.linalg.eigvals(lam))) <= 0:
        raise SpectralValidationError(
            f"decay generator spectrum leaves the right half-plane at eta={eta}")
    return DecayGenerator(eta, lam, float(residual))


class _ModeExp:
    """Eigendecomposition-backed evaluation of exp(-Lambda y) over many y."""

    def __init__(self, lam):
        w, V = np.linalg.eig(lam)
        if np.linalg.cond(V) < 1e10:
            self.w, self.V, self.Vinv = w, V, np.linalg.inv(V)
            self.lam = None
        else:
            self.lam = lam
            self.w = self.V = self.Vinv = None

    def at(self, y_arr):
        y_arr = np.atleast_1d(np.asarray(y_arr, dtype=float))
        if self.lam is None:
            ex = np.exp(-np.outer(y_arr, self.w))           # (ny, m)
            return np.einsum("ij,yj,jk->yik", self.V, ex, self.Vinv)
        return np.stack([scipy.linalg.expm(-y * self.lam) for y in y_arr])


def transverse_semigroup(fc, eta, y_arr):
    """N(eta, y) = exp(-Lambda(eta) y) stacked over y."""
    gen = decay_generator(fc, eta)
    return _ModeExp(gen.Lambda).at(y_arr)


def halfplane_dirichlet_solve(fc, psi, y_grid, L=None):
    """Multiplier solution of the frozen half-plane Dirichlet problem.

    psi is a SampledFunction on the x-torus (or a raw (nx, m) array with L
    given).  Per FFT mode k the solution is exp(-Lambda(-k) y) psi_hat(k);
    the trace at y=0 reproduces psi to transform accuracy.  Returns a
    StripField whose ``resolved`` flag is False when psi has a significant
    spectral tail.
    """
    from .strip import StripField  # local import; strip does not import model
    if L is None:
        L, values = psi.L, psi.values
    else:
        values = np.asarray(psi, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
    y = np.asarray(y_grid, dtype=float)
    nx, m = values.shape
    ks = torus_wavenumbers(L, nx)
    psi_hat = fft(values, axis=0)
    out_hat = np.empty((nx, y.size, m), dtype=complex)
    for i, k in enumerate(ks):
        stack = transverse_semigroup(fc, -k, y)             # (ny, m, m)
        out_hat[i] = np.einsum("yij,j->yi", stack, psi_hat[i])
    u = ifft(out_hat, axis=0)
    fld = StripField(x=np.arange(nx) * (L / nx), y=y, L=L, values=u)
    fld.resolved = spectral_tail_fraction(values, axis=0) <= 1e-6
    return fld


def strip_trace_gradient_map(fc, eta, depth=1.0):
    """d/dy at y=0 of the strip solve with Dirichlet top / Neumann bottom.

    On 0 < y < depth the mode ODE has exponents rho+- = (-i a12 eta ± R)/a22
    (R the principal root used by the decay generator); imposing u(0)=psi and
    u'(depth)=0 and eliminating the growing mode stably gives

        u'(0) = rho+ rho- (I - EE) (rho+ - rho- EE)^-1 psi,
        EE = exp(depth (rho- - rho+)).

    As depth -> inf this tends to rho-, the half-plane multiplier.  Note the
    eta passed here should already be in library FFT convention (the caller
    does not need the -eta bridge; the formula is written directly for modes
    e^{+i eta x}).
    """
    m = fc.dim
    eye = np.eye(m)
    amu = fc.a_mu(eta)
    root = matrix_sqrt(fc.a22 * amu - (fc.a12 * eta) ** 2 * eye)
    rp = (-1j * fc.a12 * eta * eye + root) / fc.a22
    rm = (-1j * fc.a12 * eta * eye - root) / fc.a22
    ee = scipy.linalg.expm(depth * (rm - rp))
    return rp @ rm @ (eye - ee) @ np.linalg.inv(rp - rm @ ee)


def strip_source_response(fc, eta, source_vec, depth=1.0):
    """(u(0)=0, u'(depth)=0) strip solve against a y-constant source.

    Returns (u(0)=0 trivially, u'(0)) for the mode ODE
    -a22 u'' - 2i a12 eta u' + A_mu u = source_vec.  The particular solution
    is the constant A_mu^-1 source; the homogeneous correction uses the same
    stable two-root elimination as the trace-gradient map.
    """
    m = fc.dim
    eye = np.eye(m)
    amu = fc.a_mu(eta)
    up = np.linalg.solve(amu, np.asarray(source_vec, dtype=complex))
    root = matrix_sqrt(fc.a22 * amu - (fc.a12 * eta) ** 2 * eye)
    rp = (-1j * fc.a12 * eta * eye + root) / fc.a22
    rm = (-1j * fc.a12 * eta * eye - root) / fc.a22
    ee = scipy.linalg.expm(depth * (rm - rp))
    # c+ + c- = -up ;  rho+ e^{rho+ d} c+ + rho- e^{rho- d} c- = 0
    cm = -np.linalg.solve(rp - rm @ ee, rp @ up)
    cp = -up - cm
    return rp @ cp + rm @ cm


def strip_profile_response(fc, eta, sources, Dy):
    """(u(0)=0, u'(1)=0) strip solves against y-dependent mode sources.

    Collocation companion to strip_source_response for sources resolved on
    the solver's y-grid (node 0 at y=0): solves
    -a22 u'' - 2i a12 eta u' + A_mu u = s(y) for each source column and
    returns the stack of u'(0).  sources has shape (ncols, ny, m); the
    system matrix is factored once and reused across columns.
    """
    sources = np.asarray(sources, dtype=complex)
    ncols, ny, m = sources.shape
    eyem = np.eye(m)
    amu = fc.a_mu(eta)
    big = (np.kron(-fc.a22 * (Dy @ Dy) - 2j * fc.a12 * eta * Dy, eyem)
           + np.kron(np.eye(ny), amu))
    big[:m] = 0.0
    big[:m, :m] = eyem                       # Dirichlet at the interface node
    big[-m:] = np.kron(Dy[-1], eyem)         # Neumann at the bottom node
    rhs = sources.reshape(ncols, ny * m).T.copy()
    rhs[:m] = 0.0
    rhs[-m:] = 0.0
    lu, piv = scipy.linalg.lu_factor(big)
    w = scipy.linalg.lu_solve((lu, piv), rhs).T.reshape(ncols, ny, m)
    return np.einsum("l,nlc->nc", Dy[0], w)


@dataclass
class MultiplierDecayReport:
    y_grid: np.ndarray
    eta_grid: np.ndarray
    phi0: np.ndarray          # A-weighted profile
    phi_j: np.ndarray         # (3, ny): |mu|^{2-j} eta^j weights, j = 0,1,2
    mu: float

    def tail_ratios(self):
        """Phi(Y)/Phi(Y/100) per profile, Y = last y-grid point."""
        y = self.y_grid
        j_near = int(np.argmin(np.abs(y - y[-1] / 100.0)))
        out = {}
        profs = {"phi0": self.phi0}
        for j in range(self.phi_j.shape[0]):
            profs[f"phi{j}_weighted"] = self.phi_j[j]
        for name, p in profs.items():
            out[name] = float(p[-1] / p[j_near]) if p[j_near] > 0 else 0.0
        return out


def default_eta_grid(L=16 * np.pi, nx=128, refine=4):
    """Torus wavenumbers plus a refine-times denser patch near eta = 0."""
    ks = np.sort(np.unique(torus_wavenumbers(L, nx)))
    dk = ks[1] - ks[0] if ks.size > 1 else 1.0
    near = np.arange(-2 * refine, 2 * refine + 1) * (dk / refine)
    return np.unique(np.concatenate([ks, near]))


def multiplier_profiles(fc, y_grid, eta_grid=None, d_eta=1e-4):
    """Decay profiles of the multiplier families A N_mu and mu/eta-weighted N_mu.

    Phi_0(y) = max over eta of ||A N(eta,y)|| + (1+|eta|)^(1/2) ||d/deta [A N]||,
    and Phi_j likewise for |mu|^{2-j} eta^j N, j = 0..2 (the derivative taken
    by symmetric differencing with step d_eta).  These are the computable
    surrogates of the Hölder multiplier norms, and they must decay in y.
    """
    y = np.asarray(y_grid, dtype=float)
    if eta_grid is None:
        eta_grid = default_eta_grid()
    eta_grid = np.asarray(eta_grid, dtype=float)
    A = fc.A.entries
    mu = abs(fc.mu)
    phi0 = np.zeros(y.size)
    phi_j = np.zeros((3, y.size))
    for eta in eta_grid:
        n_mid = transverse_semigroup(fc, eta, y)            # (ny, m, m)
        n_up = transverse_semigroup(fc, eta + d_eta, y)
        n_dn = transverse_semigroup(fc, eta - d_eta, y)
        root_w = np.sqrt(1.0 + abs(eta))
        q0 = np.einsum("ij,yjk->yik", A, n_mid)
        dq0 = np.einsum("ij,yjk->yik", A, (n_up - n_dn) / (2 * d_eta))
        norm0 = np.linalg.norm(q0, ord=2, axis=(1, 2))
        dnorm0 = np.linalg.norm(dq0, ord=2, axis=(1, 2))
        phi0 = np.maximum(phi0, norm0 + root_w * dnorm0)
        for j in range(3):
            w_mid = mu ** (2 - j) * eta ** j
            w_up = mu ** (2 - j) * (eta + d_eta) ** j
            w_dn = mu ** (2 - j) * (eta - d_eta) ** j
            qj = w_mid * n_mid
            dqj = (w_up * n_up - w_dn * n_dn) / (2 * d_eta)
            nj = np.linalg.norm(qj, ord=2, axis=(1, 2))
            dnj = np.linalg.norm(dqj, ord=2, axis=(1, 2))
            phi_j[j] = np.maximum(phi_j[j], nj + root_w * dnj)
    return MultiplierDecayReport(y_grid=y, eta_grid=eta_grid, phi0=phi0,
                                 phi_j=phi_j, mu=fc.mu)


def default_depth(fc, factor=10.0):
    """Transverse truncation depth: decay length times a safety factor."""
    lam_min = float(np.min(np.real(np.linalg.eigvals(fc.A.entries))))
    return factor / np.sqrt(1.0 + fc.mu ** 2 + max(lam_min, 0.0))


@dataclass
class CoercivityRow:
    mu: float
    data_index: int
    lhs: float
    rhs: float
    ratio: float


@dataclass
class CoercivityReport:
    rows: list
    max_ratio: float
    mu_spread: float     # max over data of (max ratio over mu)/(min ratio over mu)

    @classmethod
    def from_rows(cls, rows):
        max_ratio = max(r.ratio for r in rows)
        spread = 0.0
        for idx in {r.data_index for r in rows}:
            rs = [r.ratio for r in rows if r.data_index == idx]
            spread = max(spread, max(rs) / min(rs))
        return cls(rows=rows, max_ratio=float(max_ratio), mu_spread=float(spread))


def _graded_probe_norms(fields, psi, A, x, y, L, alpha, mu):
    """The two sides shared by the coercivity probes.

    Returns the six-term mu-graded solution norm of the derivative fields
    (keys u, ux, uxx, uxy, uyy, au) and the norm of the Dirichlet datum
    psi: Dirichlet data live in the A-graded second-order trace space,
    mu-graded x-derivatives plus the coupling-operator part, so the ratio
    carries the same currencies on both sides.
    """
    def xn(arr):
        return scaled_field_norm(arr, x, y, L, alpha, mu)

    lhs = (mu ** 2 * xn(fields["u"]) + mu * xn(fields["ux"])
           + 2.0 * xn(fields["uxx"]) + 2.0 * xn(fields["uxy"])
           + xn(fields["uyy"]) + xn(fields["au"]))
    data = (graded_trace_norm(psi, L, alpha, mu, order=2)
            + trace_xnorm(psi @ A.T, L, alpha, mu))
    return lhs, data


def coercivity_probe_59(fc, psi_ensemble, mu_list, alpha=0.5, ny=40):
    """Parameter-graded ratio probe for the half-plane Dirichlet estimate.

    For each boundary datum and each mu, all derivative fields of the
    multiplier solution are computed exactly per mode and measured in the
    mu-scaled Hölder norms; the ratio against the mu-graded data norm of psi
    must stay bounded (and roughly flat) across the mu sweep.  Plain
    unscaled Hölder norms would make the ratio drift like mu^(2+alpha)
    even in the scalar flat case, so the graded norms are the meaningful
    discretization of the estimate.
    """
    rows = []
    A = fc.A.entries
    for data_index, psi in enumerate(psi_ensemble):
        L, vals = psi.L, psi.values
        nx, m = vals.shape
        ks = torus_wavenumbers(L, nx)
        psi_hat = fft(vals, axis=0)
        for mu in mu_list:
            fcm = fc.with_mu(mu)
            Yd = default_depth(fcm)
            y = np.linspace(0.0, Yd, ny)
            fields = {name: np.empty((nx, ny, m), dtype=complex)
                      for name in ("u", "ux", "uxx", "uyy", "uxy", "au")}
            for i, k in enumerate(ks):
                gen = decay_generator(fcm, -k)
                stack = _ModeExp(gen.Lambda).at(y)           # (ny, m, m)
                lam = gen.Lambda
                uh = np.einsum("yij,j->yi", stack, psi_hat[i])
                uyh = -np.einsum("yij,jk,k->yi", stack, lam, psi_hat[i])
                uyyh = np.einsum("yij,jk,kl,l->yi", stack, lam, lam, psi_hat[i])
                fields["u"][i] = uh
                fields["ux"][i] = 1j * k * uh
                fields["uxx"][i] = -(k ** 2) * uh
                fields["uxy"][i] = 1j * k * uyh
                fields["uyy"][i] = uyyh
                fields["au"][i] = np.einsum("ij,yj->yi", A, uh)
            for name in fields:
                fields[name] = ifft(fields[name], axis=0)
            lhs, rhs = _graded_probe_norms(fields, vals, A,
                                           np.arange(nx) * (L / nx), y, L,
                                           alpha, mu)
            rows.append(CoercivityRow(mu=float(mu), data_index=data_index,
                                      lhs=float(lhs), rhs=float(rhs),
                                      ratio=float(lhs / rhs)))
    return CoercivityReport.from_rows(rows)

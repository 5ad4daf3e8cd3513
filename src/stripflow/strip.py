"""Variable-coefficient elliptic solves on the flattened strip.

The transformed problem couples Fourier modes in x through the
profile-dependent coefficients, so the discrete operator is applied
matrix-free (FFT in x, dense Chebyshev differentiation in y) and solved by
GMRES, preconditioned with the operator obtained by x-averaging the
coefficients.  That frozen operator is mode-diagonal, and since the average
of the mixed coefficient a12 = beta d/dx log w vanishes, each mode block is
R + k^2 P with one k-independent R: after the boundary rows are eliminated,
a single eigendecomposition of the interior Schur complement inverts every
mode (fast diagonalisation; Lynch, Rice & Thomas 1964).  For profiles close
to flat the preconditioned iteration converges in a handful of steps; every
solve is gated on its true residual before being returned.

GMRES gets at most two restart cycles.  scipy's outer test asks for the true
residual ||b - A x|| <= rtol_gmres ||b||, and at large amplitude that lies
below the round-off floor of the double-precision apply (interior rows
carry a22 Dy^2 ~ 1e7 near the wall, the Dirichlet rows 1), so further
cycles cannot meet it: at a = 0.85 cycles 3-10 move the true residual only
from 3.9e-10 to 3.7e-10 for 700 more iterations.  The solve is accepted or
refused on the true-residual gate instead, after those two cycles.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import fft, ifft
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import SolverError
from .geometry import coefficients, require_elliptic
from .grids import cheb_lobatto_01, spectral_derivative, torus_wavenumbers
from .holder import graded_trace_norm, scaled_field_norm, trace_xnorm
from .operator_core import coupling_matrix


# a factor of the preconditioner whose condition number exceeds this counts
# as singular: its inverse keeps fewer than two correct digits
_SINGULAR_COND = 1e14

# restart length and cycle cap of the strip solve's one GMRES pass.  scipy
# ends each cycle by testing the true residual against rtol_gmres, which at
# large amplitude lies below the round-off floor of the apply, so cycles
# past the second only grind (797 iterations instead of 85 at a = 0.85, for
# the same solution to 2e-14)
_RESTART = 160
_MAX_CYCLES = 2


class KeepLastOperator(LinearOperator):
    """Square operator that keeps the last (input copy, output) pair.

    scipy's gmres ends every restart cycle with r = b - A x for the iterate
    x it returns, so the true residual of a returned solution is usually
    already computed; true_residual reads it off the kept pair and applies
    the operator once more only when the solution is not the last input (a
    NaN iterate, say).  count is the number of applications GMRES made.
    """

    def __init__(self, n, matvec):
        super().__init__(complex, (n, n))
        self._apply = matvec
        self._last = (None, None)
        self.count = 0

    def _matvec(self, v):
        self.count += 1
        out = self._apply(v)
        # GMRES updates its iterate in place, so keep a copy of the input
        self._last = (v.copy(), out)
        return out

    def true_residual(self, x, b):
        """||b - A x|| / ||b|| (the norm of b taken as 1 when b = 0)."""
        v, out = self._last
        if v is None or not np.array_equal(v, x):
            out = self._apply(x)
        bn = np.linalg.norm(b)
        return float(np.linalg.norm(out - b) / (bn if bn > 0 else 1.0))


class _FastDiagonalisation(NamedTuple):
    """Inverse of the x-averaged operator on FFT-ed rows r of shape
    (nx, ny*m): u = ((r @ to_eig) * scale) @ from_eig.

    to_eig maps a mode's data to the eigen-coordinates of the interior
    problem followed by the 2m boundary values, scale holds 1/(lam + k^2)
    per mode (and 1 for the boundary values), and from_eig rebuilds every
    (y, component) value.  scale is the only array with an nx axis.
    """
    to_eig: np.ndarray      # (ny*m, ny*m)
    scale: np.ndarray       # (nx, ny*m)
    from_eig: np.ndarray    # (ny*m, ny*m)


def cheb_apply(D, u):
    """Contract the real matrix D with the y axis (axis 1) of samples u.

    u has shape (nx, ny, ...); the result has shape (nx, D.shape[0], ...).
    The contraction runs as one real GEMM of D against the (ny, nx*...)
    layout with real and imaginary parts side by side.  It is faster and
    more accurate than an einsum or a per-x batched matvec (``D @ u``
    broadcast over x); the latter carries enough extra round-off into
    Dy^2 u to stall the strip solve at large amplitude.
    """
    ut = np.ascontiguousarray(np.moveaxis(u, 1, 0), dtype=complex)
    out = D @ ut.view(np.float64).reshape(ut.shape[0], -1)
    return np.moveaxis(out.view(complex).reshape((-1,) + ut.shape[1:]), 0, 1)


@dataclass
class StripField:
    """E-valued samples on the tensor grid of the strip.

    values has shape (nx, ny, m); y ascends from the free-boundary image
    (y=0) to the flat bottom (y=1) — or to an arbitrary depth for
    half-plane truncations.  Dy, when present, is the collocation
    differentiation matrix matching y.
    """
    x: np.ndarray
    y: np.ndarray
    L: float
    values: np.ndarray
    Dy: np.ndarray = None
    residual: float = 0.0
    resolved: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim == 2:
            self.values = self.values[:, :, None]
        if self.values.shape[:2] != (self.x.size, self.y.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.x.size}, {self.y.size})")

    @property
    def nx(self):
        return self.x.size

    @property
    def ny(self):
        return self.y.size

    @property
    def m(self):
        return self.values.shape[2]

    def dx(self, order=1):
        return spectral_derivative(self.values, self.L, order)

    def dy(self, order=1):
        if self.Dy is None:
            raise ValueError("no differentiation matrix attached to this field")
        out = self.values
        for _ in range(order):
            out = cheb_apply(self.Dy, out)
        return out

    def trace0(self):
        return self.values[:, 0, :]

    def dy_trace0(self):
        if self.Dy is None:
            raise ValueError("no differentiation matrix attached to this field")
        return cheb_apply(self.Dy[:1], self.values)[:, 0]


class DiscreteStripOperator:
    """Collocation form of the flattened operator with boundary rows installed.

    Interior rows carry (B(g) + mu^2); the row at y=0 carries the
    Dirichlet trace, and the row at y=1 carries b21 d/dy (the transformed
    bottom Neumann condition).
    """

    # the y=0 row is always the Dirichlet trace; solver errors and the
    # benchmark's solve keys name it
    bc0 = "dirichlet"

    def __init__(self, profile, A, mu, ny=33):
        self.profile = profile
        self.A_mat = coupling_matrix(A)
        self.mu = float(mu)
        self.y, self.Dy = cheb_lobatto_01(ny)
        self.Dy2 = self.Dy @ self.Dy
        self.coeffs = coefficients(profile, self.y)
        require_elliptic(self.coeffs)
        self.nx, self.m = profile.nx, profile.m
        if self.A_mat.shape[0] != self.m:
            raise ValueError(
                f"coupling matrix is {self.A_mat.shape[0]}x... but profile has "
                f"{self.m} components")
        self.ny = ny
        self.L = profile.L
        k = torus_wavenumbers(self.L, self.nx)
        ik = 1j * k
        self.ik_odd = ik.copy()
        self.ik_odd[self.nx // 2] = 0.0
        self.ik2 = ik ** 2
        self.shape_full = (self.nx, self.ny, self.m)
        self.n_dof = self.nx * self.ny * self.m
        self._minv = None
        self.last_residual = None
        self.last_iterations = None

    # -- operator action ---------------------------------------------------

    def apply_values(self, u):
        """Apply the boundary-row-replaced operator to (nx, ny, m) samples."""
        c = self.coeffs
        uhat = fft(u, axis=0)
        u_x = ifft(uhat * self.ik_odd[:, None, None], axis=0)
        u_xx = ifft(uhat * self.ik2[:, None, None], axis=0)
        u_y = cheb_apply(self.Dy, u)
        u_yy = cheb_apply(self.Dy2, u)
        u_xy = cheb_apply(self.Dy, u_x)
        au = u @ self.A_mat.T
        out = (-u_xx - 2.0 * c.a12 * u_xy - c.a22 * u_yy + c.a2 * u_y
               + au + self.mu ** 2 * u)
        out[:, 0, :] = u[:, 0, :]
        out[:, -1, :] = c.b21 * u_y[:, -1, :]
        return out

    def _matvec(self, v):
        return self.apply_values(v.reshape(self.shape_full)).ravel()

    def rhs(self, F=None, psi0=None, psi1=None):
        b = np.zeros(self.shape_full, dtype=complex)
        if F is not None:
            F = np.asarray(F, dtype=complex)
            if F.ndim == 2:
                F = F[:, :, None]
            b[:, 1:-1, :] = F[:, 1:-1, :]
        if psi0 is not None:
            psi0 = np.asarray(psi0, dtype=complex)
            b[:, 0, :] = psi0[:, None] if psi0.ndim == 1 else psi0
        if psi1 is not None:
            psi1 = np.asarray(psi1, dtype=complex)
            b[:, -1, :] = psi1[:, None] if psi1.ndim == 1 else psi1
        return b

    # -- preconditioner ----------------------------------------------------

    def _build_preconditioner(self):
        """Fast-diagonalise the x-averaged operator (Lynch, Rice & Thomas).

        Averaged over x the coefficients make every Fourier mode k a block
        R + k^2 P on the (y, component) values, where P keeps the interior
        rows.  The mixed term drops out: the mean of a12 = beta w_x / w is
        beta times the mean of d/dx log w, which vanishes for a periodic w
        with Re w > 0 (it measures ~1e-17).  Eliminating the 2m boundary
        rows, which carry no k, leaves the Schur complement S on the
        interior values, and S = V diag(lam) V^-1 serves every mode.
        """
        c = self.coeffs
        ny, m, nym = self.ny, self.m, self.ny * self.m
        a22b = c.a22.mean(axis=0)      # (ny, m)
        a2b = c.a2.mean(axis=0)
        b21b = c.b21.mean(axis=0)      # (m,)
        R = np.zeros((ny, m, ny, m), dtype=complex)
        for comp in range(m):
            R[:, comp, :, comp] = (-a22b[:, comp, None] * self.Dy2
                                   + a2b[:, comp, None] * self.Dy)
        idx = np.arange(ny)
        R[idx, :, idx, :] += self.A_mat + self.mu ** 2 * np.eye(m)
        # boundary rows replace interior rows, mirroring apply_values
        R[0] = 0.0
        R[-1] = 0.0
        for comp in range(m):
            R[0, comp, 0, comp] = 1.0
            R[-1, comp, :, comp] = b21b[comp] * self.Dy[-1]
        R = R.reshape(nym, nym)
        bnd = np.r_[0:m, nym - m:nym]
        inner = slice(m, nym - m)

        def fail(what):
            return SolverError(
                f"x-averaged preconditioner is singular: {what} "
                f"(mu={self.mu}, bc0={self.bc0})", iterations=0)

        R_bb = R[np.ix_(bnd, bnd)]
        if not np.linalg.cond(R_bb, 1) < _SINGULAR_COND:
            raise fail("boundary block")
        bnd_inv = np.linalg.inv(R_bb)
        elim = bnd_inv @ R[bnd, inner]              # u_B = bnd_inv r_B - elim u_I
        schur = R[inner, inner] - R[inner, bnd] @ elim
        if not np.all(np.isfinite(schur)):
            raise fail("non-finite Schur complement")
        lam, V = np.linalg.eig(schur)
        if not np.linalg.cond(V, 1) < _SINGULAR_COND:
            raise fail("eigenvectors of the Schur complement")
        denom = lam[None, :] - self.ik2[:, None]     # lam + k^2
        if not np.all(np.abs(denom) * _SINGULAR_COND > np.max(np.abs(lam))):
            k_bad = int(np.argmin(np.min(np.abs(denom), axis=1)))
            raise fail(f"Fourier mode {k_bad} has an eigenvalue lam + k^2 = 0")
        # column form: u = [back, E_B bnd_inv] diag(scale) [V^-1 lift; E_B] r
        eye = np.eye(nym)
        lift = eye[inner] - R[inner, bnd] @ bnd_inv @ eye[bnd]
        back = (eye[:, inner] - eye[:, bnd] @ elim) @ V
        to_eig = np.vstack([np.linalg.solve(V, lift), eye[bnd]]).T
        from_eig = np.hstack([back, eye[:, bnd] @ bnd_inv]).T
        scale = np.hstack([1.0 / denom, np.ones((self.nx, 2 * m))])
        self._minv = _FastDiagonalisation(to_eig, scale, from_eig)

    def _precond(self, v):
        if self._minv is None:
            self._build_preconditioner()
        fd = self._minv
        rhat = fft(v.reshape(self.shape_full), axis=0).reshape(self.nx, -1)
        u = ((rhat @ fd.to_eig) * fd.scale) @ fd.from_eig
        return ifft(u.reshape(self.shape_full), axis=0).ravel()

    # -- solve ---------------------------------------------------------------

    def solve(self, F=None, psi0=None, psi1=None, rtol=1e-11):
        """Solve with interior source F, trace psi0 at y=0 and flux psi1
        at y=1.

        One preconditioned GMRES pass of at most _MAX_CYCLES restart cycles
        asks for rtol_gmres = max(rtol, 1e-10); a true residual above
        max(100 rtol, 1e-9) then raises SolverError at once.
        """
        b = self.rhs(F=F, psi0=psi0, psi1=psi1)
        if not np.all(np.isfinite(b)):
            raise SolverError(
                f"strip solve data has {np.count_nonzero(~np.isfinite(b))} "
                f"non-finite entries (mu={self.mu}, bc0={self.bc0})",
                iterations=0)
        if not np.any(b):
            fld = StripField(x=self.profile.x, y=self.y, L=self.L,
                             values=np.zeros(self.shape_full, dtype=complex),
                             Dy=self.Dy)
            self.last_residual = 0.0
            self.last_iterations = 0
            return fld
        b_flat = b.ravel()
        A_op = KeepLastOperator(self.n_dof, self._matvec)
        M_op = LinearOperator((self.n_dof, self.n_dof), matvec=self._precond,
                              dtype=complex)
        counter = {"n": 0}

        def cb(_):
            counter["n"] += 1

        # below ~1e-10 the iteration grinds against the round-off floor of
        # the collocation operator (row scales span ~ny^4); ask GMRES only
        # for what is attainable and gate on the true residual instead
        rtol_gmres = max(rtol, 1e-10)
        sol, _ = gmres(A_op, b_flat, rtol=rtol_gmres, atol=0.0,
                       restart=min(_RESTART, self.n_dof), maxiter=_MAX_CYCLES,
                       M=M_op, callback=cb, callback_type="pr_norm")
        res = A_op.true_residual(sol, b_flat)
        self.last_residual = res
        self.last_iterations = counter["n"]
        if not res <= max(100.0 * rtol, 1e-9):     # NaN-safe comparison
            raise SolverError(
                f"strip solve stalled at relative residual {res:.3e} after "
                f"{counter['n']} GMRES iterations (mu={self.mu}, "
                f"bc0={self.bc0})", residual=res, iterations=counter["n"])
        return StripField(x=self.profile.x, y=self.y, L=self.L,
                          values=sol.reshape(self.shape_full), Dy=self.Dy,
                          residual=res)


def b0_trace(coeffs, fld):
    """Oblique boundary read-out at y=0: b10 d/dx + b20 d/dy of the field."""
    tr = fld.trace0()
    tr_x = spectral_derivative(tr, fld.L, 1)
    return coeffs.b10 * tr_x + coeffs.b20 * fld.dy_trace0()


def coercivity_probe_33(profile, A, mu_list, ensemble, alpha=0.5, ny=17,
                        rtol=1e-10):
    """Graded-norm ratio probe for the full strip estimate.

    ensemble entries are (F, psi0, psi1) with F either None or (nx, ny, m)
    samples on this probe's Chebyshev grid, and psi0/psi1 (nx, m) traces.
    For each mu the problem is solved and all derivative fields are measured
    in mu-scaled Hölder norms against the mu-graded data norms; see
    coercivity_probe_59 for why the grading is the meaningful discrete form.
    """
    from .model import CoercivityReport, CoercivityRow, _graded_probe_norms
    from .operator_core import matrix_sqrt
    rows = []
    sqrt_A = None
    for mu in mu_list:
        op = DiscreteStripOperator(profile, A, mu, ny=ny)
        if sqrt_A is None:
            sqrt_A = matrix_sqrt(op.A_mat)
        for data_index, (F, psi0, psi1) in enumerate(ensemble):
            fld = op.solve(F=F, psi0=psi0, psi1=psi1, rtol=rtol)
            u_x = fld.dx(1)
            fields = {"u": fld.values, "ux": u_x, "uxx": fld.dx(2),
                      "uxy": cheb_apply(op.Dy, u_x),
                      "uyy": fld.dy(2), "au": fld.values @ op.A_mat.T}
            z = np.zeros((profile.nx, profile.m), dtype=complex)
            p0 = z if psi0 is None else np.asarray(psi0, dtype=complex)
            p1 = z if psi1 is None else np.asarray(psi1, dtype=complex)
            lhs, rhs = _graded_probe_norms(fields, p0, op.A_mat, fld.y,
                                           fld.L, alpha, mu)
            if F is not None:
                rhs += scaled_field_norm(
                    np.asarray(F, dtype=complex).reshape(fld.values.shape),
                    fld.y, fld.L, alpha, mu)
            weighted_p1 = (profile.nu + profile.g) * (
                p1 if p1.ndim == 2 else p1[:, None])
            rhs += graded_trace_norm(weighted_p1, profile.L, alpha, mu, order=1)
            rhs += trace_xnorm(weighted_p1 @ sqrt_A.T, profile.L, alpha, mu)
            rows.append(CoercivityRow(mu=float(mu), data_index=data_index,
                                      lhs=float(lhs), rhs=float(rhs),
                                      ratio=float(lhs / rhs)))
    return CoercivityReport.from_rows(rows)

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

The operator is real: InterfaceProfile admits only real profiles,
SectorialOperator only a real A, and the coefficients are stored as real
(ny, m, 1, nx) arrays.  Its kernels act on y-major real samples of shape
(ny, m, s, nx), s vectors side by side:
  - x is the last, contiguous axis, so u_x and u_xx are one rfft and one
    stacked irfft along it, and the preconditioner acts on the nx/2 + 1
    rfft modes of real data;
  - y is the first axis, so Dy u and Dy^2 u are one real GEMM of the
    stacked [Dy; Dy^2] against the (ny, m*s*nx) matrix of u, with no copy
    (cheb_apply says why the y-contraction must stay a real GEMM).
The solver is gmres below, in real arithmetic with s = 1.  A complex
right-hand side is the two real solves of its real and imaginary parts.
StripField.values keeps the (nx, ny, m) layout for callers; a solve
transposes its solution once.

GMRES gets at most two restart cycles.  At large amplitude rtol_gmres lies
below the round-off floor of the double-precision apply (interior rows
carry a22 Dy^2 ~ 1e7 near the wall, the Dirichlet rows 1), so further
cycles cannot reach it.  The solve is accepted or refused on the
true-residual gate instead, after those two cycles.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft
from scipy.linalg import solve_triangular

from .errors import SolverError
from .geometry import coefficients, require_elliptic
from .grids import (as_inexact, cheb_lobatto_01, real_if_exact,
                    rfft_wavenumbers, spectral_derivative)
from .holder import CoercivityReport, CoercivityRow, _graded_probe_norms


# a factor of the preconditioner whose condition number exceeds this counts
# as singular: its inverse keeps fewer than two correct digits
_SINGULAR_COND = 1e14

# restart length and cycle cap of the strip solve's GMRES.  At a = 0.85 the
# first cycle stops on its Arnoldi residual with a true one of 7.6e-9, the
# second reaches the round-off floor of the apply, 4.3e-10, and cycles 3-10
# only hover there (3.1e-10 to 4.0e-10)
_RESTART = 160
_MAX_CYCLES = 2


def gmres(apply, b, rtol, restart, max_cycles, precond=None):
    """Solve apply(x) = b by restarted GMRES from x0 = 0, preconditioned on
    the right by precond; return (x, iterations, true_residual).

    b is a nonzero real array of any shape that apply and precond keep.  A
    cycle runs modified Gram-Schmidt Arnoldi on A M, keeps the directions
    z_j = M v_j, and solves its least-squares problem by Givens rotations.
    With M on the right the Arnoldi residual is the unpreconditioned one
    (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., 9.3): the
    cycle stops once it is at most rtol ||b||, on an exact breakdown or
    after restart iterations.  One more apply gives the true residual
    ||b - A x|| / ||b||; while that is above rtol a new cycle restarts from
    it, up to max_cycles.  Each iteration is one apply and one precond.
    """
    b_norm = np.linalg.norm(b)
    eps = np.finfo(b.dtype).eps
    x = np.zeros_like(b)
    r, iterations = b, 0
    for _ in range(max_cycles):
        beta = np.linalg.norm(r)
        V, Z = [r / beta], []
        H = np.zeros((restart + 1, restart))
        rotations = np.zeros((restart, 2))
        g = np.zeros(restart + 1)
        g[0] = beta
        for j in range(restart):
            Z.append(V[j] if precond is None else precond(V[j]))
            w = apply(Z[j])
            iterations += 1
            w_norm = np.linalg.norm(w)
            for i, v in enumerate(V):
                H[i, j] = np.vdot(v, w)
                w -= H[i, j] * v
            H[j + 1, j] = np.linalg.norm(w)
            # scipy's exact-breakdown test: w lies in the Krylov space
            breakdown = H[j + 1, j] <= eps * w_norm
            if not breakdown:
                V.append(w / H[j + 1, j])
            for i, (c, s) in enumerate(rotations[:j]):
                H[i, j], H[i + 1, j] = (c * H[i, j] + s * H[i + 1, j],
                                        c * H[i + 1, j] - s * H[i, j])
            h = np.hypot(H[j, j], H[j + 1, j])
            c, s = rotations[j] = H[j, j] / h, H[j + 1, j] / h
            H[j, j], H[j + 1, j] = h, 0.0
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if abs(g[j + 1]) <= rtol * b_norm or breakdown:
                break
        # check_finite=False lets a NaN iterate through to the caller's gate
        y = solve_triangular(H[:j + 1, :j + 1], g[:j + 1], check_finite=False)
        # summed apart from x: added to x one by one, a second cycle's small
        # terms lose their low bits (twice the final near-wall residual)
        dx = np.zeros_like(b)
        for y_i, z in zip(y, Z):
            dx += y_i * z
        x += dx
        r = b - apply(x)
        residual = float(np.linalg.norm(r) / b_norm)
        if residual <= rtol or breakdown:
            break
    return x, iterations, residual


class _FastDiagonalisation(NamedTuple):
    """Inverse of the x-averaged operator on the rfft modes r of a y-major
    vector, r of shape (ny*m, s, nx/2+1):
    u = from_eig (scale * (to_eig r)), scale broadcast over s.

    to_eig maps a mode's data to the eigen-coordinates of the interior
    problem followed by the 2m boundary values, scale holds 1/(lam + k^2)
    per mode (and 1 for the boundary values), and from_eig rebuilds every
    (y, component) value.  scale is the only array with a mode axis.  All
    three are real when the eigenvalues lam are.
    """
    to_eig: np.ndarray      # (ny*m, ny*m)
    scale: np.ndarray       # (ny*m, nx/2+1)
    from_eig: np.ndarray    # (ny*m, ny*m)


def cheb_apply(D, u):
    """Contract the matrix D with the leading y axis of y-major samples u.

    u has shape (ny, ...), real or complex; the result has shape
    (D.shape[0], ...).  For a real D the contraction is one real GEMM of D
    against u as a (ny, n) real matrix, with no copy of a contiguous u: a
    complex u enters with its real and imaginary parts side by side.  That
    is faster and more accurate than an einsum or a per-x batched matvec
    (``D @ u`` broadcast over x); the latter carries enough extra round-off
    into Dy^2 u to stall the strip solve at large amplitude.  A complex D
    (the preconditioner's eigenvectors, when the x-averaged operator has
    complex eigenvalues) is one complex GEMM.
    """
    u = np.ascontiguousarray(u)
    flat = u.reshape(u.shape[0], -1)
    if np.iscomplexobj(D):
        return (D @ flat).reshape((D.shape[0],) + u.shape[1:])
    out = D @ flat.view(np.float64)
    return out.view(u.dtype).reshape((D.shape[0],) + u.shape[1:])


@dataclass
class StripField:
    """E-valued samples on the tensor grid of the strip.

    values has shape (nx, ny, m), real or complex; y ascends from the
    free-boundary image (y=0) to the flat bottom (y=1) — or to an
    arbitrary depth for half-plane truncations.  Dy, when present, is the
    collocation differentiation matrix matching y.
    """
    x: np.ndarray
    y: np.ndarray
    L: float
    values: np.ndarray
    Dy: np.ndarray = None

    def __post_init__(self):
        self.values = as_inexact(self.values)
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

    def _along_y(self, D, values):
        """D contracted with the y axis (axis 1) of (nx, ny, ...) samples."""
        if self.Dy is None:
            raise ValueError("no differentiation matrix attached to this field")
        return np.moveaxis(cheb_apply(D, np.moveaxis(values, 1, 0)), 0, 1)

    def dx(self, order):
        return spectral_derivative(self.values, self.L, order)

    def dy(self, order):
        out = self.values
        for _ in range(order):
            out = self._along_y(self.Dy, out)
        return out

    def dxy(self):
        return self._along_y(self.Dy, self.dx(1))

    def trace0(self):
        return self.values[:, 0, :]

    def dy_trace0(self):
        return self._along_y(self.Dy[:1], self.values)[:, 0]


class DiscreteStripOperator:
    """Collocation form of the flattened operator with boundary rows installed.

    Interior rows carry (B(g) + mu^2); the row at y=0 carries the
    Dirichlet trace, and the row at y=1 carries b21 d/dy (the transformed
    bottom Neumann condition).  A is a SectorialOperator, whose matrix is
    real.
    """

    # the y=0 row is always the Dirichlet trace; solver errors and the
    # benchmark's solve keys name it
    bc0 = "dirichlet"

    def __init__(self, profile, A, mu, ny=33):
        self.profile = profile
        self.A_mat = A.entries
        self.mu = float(mu)
        self.y, self.Dy = cheb_lobatto_01(ny)
        self.Dy2 = self.Dy @ self.Dy
        self._Dy12 = np.vstack([self.Dy, self.Dy2])
        self.coeffs = coefficients(profile, self.y)
        require_elliptic(self.coeffs)
        self.nx, self.m = profile.nx, profile.m
        if self.A_mat.shape[0] != self.m:
            raise ValueError(
                f"coupling matrix is {self.A_mat.shape[0]}x... but profile has "
                f"{self.m} components")
        self.ny = ny
        self.L = profile.L
        c = self.coeffs
        # y-major interior coefficients, (ny, m, 1, nx), and the bottom
        # flux coefficient, (m, 1, nx)
        self._a12x2, self._a22, self._a2 = (
            np.ascontiguousarray(f.transpose(1, 2, 0)[:, :, None, :])
            for f in (2.0 * c.a12, c.a22, c.a2))
        self._b21 = np.ascontiguousarray(c.b21.T[:, None, :])
        self._shift = self.A_mat + self.mu ** 2 * np.eye(self.m)
        k = rfft_wavenumbers(self.L, self.nx)
        self._k2 = k ** 2
        # rfft multipliers of d/dx (Nyquist mode zeroed) and -d^2/dx^2
        self._xmult = np.stack([1j * k, self._k2])[:, None, None, None, :]
        self._xmult[0, ..., self.nx // 2] = 0.0
        self.shape_full = (self.ny, self.m, self.nx)
        self.n_dof = self.nx * self.ny * self.m
        self._minv = None
        self.last_residual = None
        self.last_iterations = None

    # -- operator action ---------------------------------------------------

    def apply_values(self, u):
        """Apply the boundary-row-replaced operator to real y-major samples
        u of shape (ny, m, s, nx), s real vectors side by side."""
        ny, nx = self.ny, self.nx
        u_x, out = irfft(rfft(u, axis=-1) * self._xmult, n=nx, axis=-1)
        u_y12 = cheb_apply(self._Dy12, u)
        u_y, u_yy = u_y12[:ny], u_y12[ny:]
        out -= self._a12x2 * cheb_apply(self.Dy, u_x)
        out -= self._a22 * u_yy
        out += self._a2 * u_y
        out += (self._shift @ u.reshape(ny, self.m, -1)).reshape(u.shape)
        out[0] = u[0]
        out[-1] = self._b21 * u_y[-1]
        return out

    def rhs(self, F=None, psi0=None):
        """y-major right-hand side (ny, m, nx): the interior rows of the
        (nx, ny, m) source F and the trace psi0 at y=0; the flux row at y=1
        is zero.  It is real unless some datum has a nonzero imaginary
        part."""
        data = [np.asarray(d) for d in (F, psi0) if d is not None]
        b = np.zeros(self.shape_full, dtype=np.result_type(float, *data))
        if F is not None:
            F = np.asarray(F)
            if F.ndim == 2:
                F = F[:, :, None]
            b[1:-1] = F[:, 1:-1, :].transpose(1, 2, 0)
        if psi0 is not None:
            psi0 = np.asarray(psi0)
            b[0] = psi0[None, :] if psi0.ndim == 1 else psi0.T
        return real_if_exact(b)

    # -- preconditioner ----------------------------------------------------

    def _build_preconditioner(self):
        """Fast-diagonalise the x-averaged operator (Lynch, Rice & Thomas).

        Averaged over x the coefficients make every Fourier mode k a block
        R + k^2 P on the (y, component) values, where P keeps the interior
        rows.  The mixed term drops out: the mean of a12 = beta w_x / w is
        beta times the mean of d/dx log w, which vanishes for a periodic w
        with w > 0 (it measures ~1e-17).  Eliminating the 2m boundary
        rows, which carry no k, leaves the Schur complement S on the
        interior values, and S = V diag(lam) V^-1 serves every mode.  R is
        real, and the rfft modes k >= 0 of real data are all the modes.
        """
        ny, m, nym = self.ny, self.m, self.ny * self.m
        a22b = self._a22.mean(axis=-1)[:, :, 0]      # (ny, m)
        a2b = self._a2.mean(axis=-1)[:, :, 0]
        b21b = self._b21.mean(axis=-1)[:, 0]         # (m,)
        R = np.zeros((ny, m, ny, m))
        for comp in range(m):
            R[:, comp, :, comp] = (-a22b[:, comp, None] * self.Dy2
                                   + a2b[:, comp, None] * self.Dy)
        idx = np.arange(ny)
        R[idx, :, idx, :] += self._shift
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
        denom = lam[:, None] + self._k2[None, :]          # lam + k^2
        if not np.all(np.abs(denom) * _SINGULAR_COND > np.max(np.abs(lam))):
            k_bad = int(np.argmin(np.min(np.abs(denom), axis=0)))
            raise fail(f"Fourier mode {k_bad} has an eigenvalue lam + k^2 = 0")
        # u = [back, E_B bnd_inv] diag(scale) [V^-1 lift; E_B] r
        eye = np.eye(nym)
        lift = eye[inner] - R[inner, bnd] @ bnd_inv @ eye[bnd]
        back = (eye[:, inner] - eye[:, bnd] @ elim) @ V
        to_eig = np.vstack([np.linalg.solve(V, lift), eye[bnd]])
        from_eig = np.hstack([back, eye[:, bnd] @ bnd_inv])
        scale = np.vstack([1.0 / denom, np.ones((2 * m, self._k2.size))])
        self._minv = _FastDiagonalisation(to_eig, scale, from_eig)

    def _precond(self, v):
        """The fast-diagonalised inverse of the x-averaged operator on
        real y-major samples v of shape (ny, m, s, nx)."""
        if self._minv is None:
            self._build_preconditioner()
        fd = self._minv
        rhat = rfft(v, axis=-1).reshape(self.ny * self.m, v.shape[2], -1)
        z = cheb_apply(fd.to_eig, rhat)
        z *= fd.scale[:, None, :]
        u = cheb_apply(fd.from_eig, z)
        return irfft(u, n=self.nx, axis=-1).reshape(v.shape)

    # -- solve ---------------------------------------------------------------

    def solve(self, F=None, psi0=None, rtol=1e-11):
        """Solve with interior source F, trace psi0 at y=0 and zero flux at
        y=1.

        One preconditioned gmres of at most _MAX_CYCLES restart cycles asks
        for rtol_gmres = max(rtol, 1e-10); a true residual above
        max(100 rtol, 1e-9) then raises SolverError at once.  Real data give
        a real field.  Complex data are solved as their real and imaginary
        parts, an all-zero part skipped: last_iterations sums the two runs,
        and last_residual is ||b - A x|| / ||b|| of the complex solution.
        """
        b = self.rhs(F=F, psi0=psi0)
        if not np.all(np.isfinite(b)):
            raise SolverError(
                f"strip solve data has {np.count_nonzero(~np.isfinite(b))} "
                f"non-finite entries (mu={self.mu}, bc0={self.bc0})",
                iterations=0)
        # below ~1e-10 the iteration grinds against the round-off floor of
        # the collocation operator (row scales span ~ny^4); ask GMRES only
        # for what is attainable and gate on the true residual instead
        rtol_gmres = max(rtol, 1e-10)
        parts = (b.real, b.imag) if np.iscomplexobj(b) else (b,)
        sols, its, res_norm = [], 0, 0.0
        for part in parts:
            sol = np.zeros_like(part)
            if np.any(part):
                sol, n, res = gmres(self.apply_values, part[:, :, None, :],
                                    rtol_gmres, min(_RESTART, self.n_dof),
                                    _MAX_CYCLES, precond=self._precond)
                sol = sol[:, :, 0]
                its += n
                res_norm = np.hypot(res_norm, res * np.linalg.norm(part))
            sols.append(sol)
        b_norm = np.linalg.norm(b)
        res = float(res_norm / b_norm) if b_norm > 0 else 0.0
        self.last_residual = res
        self.last_iterations = its
        if not res <= max(100.0 * rtol, 1e-9):     # NaN-safe comparison
            raise SolverError(
                f"strip solve stalled at relative residual {res:.3e} after "
                f"{its} GMRES iterations (mu={self.mu}, bc0={self.bc0})",
                residual=res, iterations=its)
        values = sols[0] if len(sols) == 1 else sols[0] + 1j * sols[1]
        values = np.ascontiguousarray(values.transpose(2, 0, 1))
        return StripField(x=self.profile.x, y=self.y, L=self.L, values=values,
                          Dy=self.Dy)


def b0_trace(coeffs, fld):
    """Oblique boundary read-out at y=0: b10 d/dx + b20 d/dy of the field."""
    tr = fld.trace0()
    tr_x = spectral_derivative(tr, fld.L, 1)
    return coeffs.b10 * tr_x + coeffs.b20 * fld.dy_trace0()


def coercivity_probe_33(profile, A, mu_list, ensemble, alpha=0.5, ny=17,
                        rtol=1e-10):
    """Graded-norm ratio probe for the full strip estimate.

    ensemble entries are (F, psi0, psi1), the interior source, the trace at
    y=0 and the flux at y=1; the probe measures Dirichlet data alone, so F
    and psi1 must be None and psi0 is an (nx, m) trace.  For each mu the
    problem is solved and all derivative fields are measured in mu-scaled
    Hölder norms against the mu-graded data norm of psi0; see
    coercivity_probe_59 for why the grading is the meaningful discrete form.
    """
    if any(F is not None or psi1 is not None for F, _, psi1 in ensemble):
        raise ValueError(
            "coercivity_probe_33 measures Dirichlet data only: every "
            "ensemble entry needs F = psi1 = None")
    rows = []
    for mu in mu_list:
        op = DiscreteStripOperator(profile, A, mu, ny=ny)
        for data_index, (_, psi0, _) in enumerate(ensemble):
            fld = op.solve(psi0=psi0, rtol=rtol)
            fields = {"u": fld.values, "ux": fld.dx(1), "uxx": fld.dx(2),
                      "uxy": fld.dxy(),
                      "uyy": fld.dy(2), "au": fld.values @ op.A_mat.T}
            lhs, rhs = _graded_probe_norms(fields, psi0, op.A_mat, fld.y,
                                           fld.L, alpha, mu)
            rows.append(CoercivityRow(mu=float(mu), data_index=data_index,
                                      lhs=float(lhs), rhs=float(rhs),
                                      ratio=float(lhs / rhs)))
    return CoercivityReport.from_rows(rows)

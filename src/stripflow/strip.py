"""Variable-coefficient elliptic solves on the flattened strip.

The transformed problem couples Fourier modes in x through the
profile-dependent coefficients, so the discrete operator is applied
matrix-free (FFT in x, dense Chebyshev differentiation in y) and solved by
GMRES, preconditioned with the row-scaled x-average of the operator.  Each
interior row is multiplied by 1/a22, so that the stiff -Dy^2 part, with
a22 ~ 1/h^2 near the wall, has coefficient 1 at every x; the scaled
coefficients are averaged over x, and the row is divided by the average
pb = mean_x(1/a22) of its scale.  The preconditioner applies the same row
scaling (1/a22)/pb to its input and then inverts that frozen operator, which
is mode-diagonal.  Its mixed term, mean_x(a12/a22)/pb, is dropped: it
vanishes for profiles symmetric about a node, but unlike
mean_x a12 = beta mean_x d/dx log w it is not the average of a derivative,
so dropping it is an approximation.  It costs iterations, not accuracy,
since every solve is gated on its true residual.  Each mode block is then
R + k^2 P with one k-independent R: after the boundary rows are eliminated,
a single eigendecomposition of the interior Schur complement inverts every
mode (fast diagonalisation; Lynch, Rice & Thomas 1964).

The row scale is each operator's own, but the fast diagonalisation can be
another's: an operator handed one (factor=, the stepper hands each step's
to the next) keeps it while the averages it inverts have moved by no more
than the operator's own x-variation w/pb - 1, which the average drops
anyway, and builds its own otherwise.  So an evolve of a near-flat
profile builds one factor, not one per step.

The operator is real: InterfaceProfile admits only real profiles,
SectorialOperator only a real A, and the coefficients are stored as real
(ny, m, nx) arrays.  Its kernels act on one y-major real vector of shape
(ny, m, nx):
  - x is the last, contiguous axis, so u_x and u_xx are one rfft and one
    stacked irfft along it, and the preconditioner acts on the nx/2 + 1
    rfft modes of real data (a Krylov direction, the preconditioner's
    output, enters the apply with the spectrum it was made from, so it
    takes no rfft);
  - y is the first axis, so Dy u and Dy^2 u are one real GEMM of the
    stacked [Dy; Dy^2] against the (ny, m*nx) matrix of u, with no copy
    (cheb_apply says why the y-contraction must stay a real GEMM).
The solver is gmres below, in real arithmetic.  A complex
right-hand side is the two real solves of its real and imaginary parts.
StripField.values keeps the (nx, ny, m) layout for callers; a solve
transposes its solution once.

GMRES gets at most two restart cycles.  At large amplitude rtol_gmres lies
below the round-off floor of the double-precision apply (interior rows
carry a22 Dy^2 ~ 1e7 near the wall, the Dirichlet rows 1), so further
cycles cannot reach it.  The solve is accepted or refused on the
true-residual gate instead, after those two cycles.

A solve starts from zero or from a start its caller gives (the stepper's
first-order guess of the next K(g)g, dtn's combination of earlier dO
fields).  The start is confirmed or refused by its true residual, as a
zero start is.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft
from scipy.linalg.blas import daxpy, ddot

from .errors import SolverError
from .geometry import coefficients, require_elliptic
from .grids import (as_inexact, cheb_lobatto_01, rfft_wavenumbers,
                    spectral_derivative)
from .holder import CoercivityReport, _graded_probe_norms


# a factor of the preconditioner whose condition number exceeds this counts
# as singular: its inverse keeps fewer than two correct digits
_SINGULAR_COND = 1e14


# restart length and cycle cap of the strip solve's GMRES.  On the dip at
# a = 0.85 the first cycle stops on its Arnoldi residual after 15
# iterations with a true one of 1.1e-9, the second reaches the round-off
# floor of the apply, 4.9e-10, in one more, and cycles 3-7 only hover there
# (3.3e-10 to 4.2e-10)
_RESTART = 160
_MAX_CYCLES = 2


def gate(rtol):
    """The largest true relative residual a solve asked for rtol accepts."""
    return max(100.0 * rtol, 1e-9)


def gmres(apply, b, rtol, restart, max_cycles, precond=None, x0=None):
    """Solve apply(x) = b by restarted GMRES, preconditioned on the right by
    precond; return (x, iterations, true_residual).

    b is a nonzero real array of any shape that apply and precond keep.
    The start is x0 = 0, or the given x0: then one apply gives its true
    residual b - A x0, a start that meets rtol is returned with 0
    iterations, and the first cycle begins from that residual, or from
    x = 0 and r = b when ||b - A x0|| exceeds ||b|| (the cycle's stop is
    relative to ||b||, so a worse start would cost iterations).  A NaN
    start is returned at once with its NaN residual.  A cycle runs modified
    Gram-Schmidt Arnoldi on A M, keeps the directions z_j = M v_j, and
    solves its least-squares problem by Givens rotations.  With M on the
    right the Arnoldi residual is the unpreconditioned one (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 9.3): the cycle stops once
    it is at most rtol ||b||, on an exact breakdown or after restart
    iterations.  One more apply gives the true residual ||b - A x|| / ||b||;
    while that is above rtol a new cycle restarts from it, up to
    max_cycles.  Each iteration is one apply and one precond.  The Arnoldi
    basis is kept flat, the Gram-Schmidt steps and the update of x are BLAS
    level-1 calls in place, and the Hessenberg columns, the rotations and
    the rotated right-hand side g are Python floats: a cycle of a few
    iterations would otherwise spend more on temporaries and on the
    bookkeeping of restart columns than on its dots.  A zero or NaN pivot
    of the triangular factor gives a NaN coefficient, so the caller's gate
    reads the NaN residual of a NaN iterate instead of an exception.
    """
    b_norm = np.linalg.norm(b)
    eps = np.finfo(b.dtype).eps
    iterations, x, r = 0, np.zeros_like(b), b
    if x0 is not None:
        x = np.array(x0, dtype=b.dtype)         # a copy: x is updated in place
        r = b - apply(x)
        residual = float(np.linalg.norm(r) / b_norm)
        if not residual > rtol:                 # met, or NaN: the gate decides
            return x, iterations, residual
        if residual > 1.0:                      # worse than the zero start
            x, r = np.zeros_like(b), b
    for _ in range(max_cycles):
        beta = float(np.linalg.norm(r))
        V, Z, H, rotations, g = [(r / beta).reshape(-1)], [], [], [], [beta]
        for j in range(restart):
            v_j = V[j].reshape(b.shape)
            Z.append(v_j if precond is None else precond(v_j))
            w = apply(Z[j]).reshape(-1)
            iterations += 1
            w_norm = math.sqrt(w @ w)
            col = []                                # column j of H
            for v in V:
                col.append(ddot(v, w))
                w = daxpy(v, w, a=-col[-1])
            h_next = math.sqrt(w @ w)
            # scipy's exact-breakdown test: w lies in the Krylov space
            breakdown = h_next <= eps * w_norm
            if not breakdown:
                V.append(w / h_next)
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s * col[i])
            h = math.hypot(col[j], h_next)
            c, s = (col[j] / h, h_next / h) if h else (1.0, 0.0)
            rotations.append((c, s))
            col[j] = h
            H.append(col)
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            if abs(g_next) <= rtol * b_norm or breakdown:
                break
        # back-substitution on the columns of the triangular factor
        y = g[:j + 1]
        for i in range(j, -1, -1):
            y[i] = y[i] / H[i][i] if H[i][i] else math.nan
            for k in range(i):
                y[k] -= y[i] * H[i][k]
        # summed apart from x: added to x one by one, a second cycle's small
        # terms lose their low bits (twice the final near-wall residual)
        dx = np.zeros(b.size)
        for y_i, z in zip(y, Z):
            dx = daxpy(z.reshape(-1), dx, a=y_i)
        x += dx.reshape(b.shape)
        r = b - apply(x)
        residual = float(np.linalg.norm(r) / b_norm)
        if residual <= rtol or breakdown:
            break
    return x, iterations, residual


class _FastDiagonalisation(NamedTuple):
    """Inverse of the row-scaled x-averaged operator on the rfft modes r of
    a y-major vector, r of shape (ny*m, nx/2+1):
    u = from_eig (scale * (to_eig r)).

    to_eig maps a mode's data to the eigen-coordinates of the interior
    problem followed by the 2m boundary values, scale holds 1/(lam + k^2)
    per mode (and 1 for the boundary values), and from_eig rebuilds every
    (y, component) value.  scale is the only array with a mode axis.  All
    three are real when the eigenvalues lam are.  pb and b21b are the
    averages the inverse was built from, which an operator handed the
    record compares with its own.
    """
    to_eig: np.ndarray      # (ny*m, ny*m)
    scale: np.ndarray       # (ny*m, nx/2+1)
    from_eig: np.ndarray    # (ny*m, ny*m)
    pb: np.ndarray          # (ny, m), mean_x(1/a22)
    b21b: np.ndarray        # (m,), mean_x b21


def cheb_apply(D, u):
    """Contract the matrix D with the leading y axis of y-major samples u.

    u has shape (ny, ...), real or complex; the result has shape
    (D.shape[0], ...).  For a real D the contraction is one real GEMM of D
    against u as a (ny, n) real matrix, with no copy of a contiguous u: a
    complex u enters with its real and imaginary parts side by side.  That
    is faster and more accurate than an einsum or a per-x batched matvec
    (``D @ u`` broadcast over x); the latter carries enough extra round-off
    into Dy^2 u to stall the strip solve at large amplitude.  A complex D
    (the preconditioner's eigenvectors, when the row-scaled x-averaged
    operator has complex eigenvalues) is one complex GEMM.
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
        if (self.values.ndim != 3
                or self.values.shape[:2] != (self.x.size, self.y.size)):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.x.size}, {self.y.size})")

    def _along_y(self, D, values):
        """D contracted with the y axis (axis 1) of (nx, ny, m) samples, as
        a matmul over x (one row of D is a matvec per x, with no copy)."""
        if self.Dy is None:
            raise ValueError("no differentiation matrix attached to this field")
        return D @ values

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

    def __init__(self, profile, A, mu, ny=33, factor=None):
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
        # y-major interior coefficients, (ny, m, nx), and the bottom flux
        # coefficient, (m, nx)
        self._a12x2, self._a22, self._a2 = (
            np.ascontiguousarray(f.transpose(1, 2, 0))
            for f in (2.0 * c.a12, c.a22, c.a2))
        self._b21 = np.ascontiguousarray(c.b21.T)
        self._shift = self.A_mat + self.mu ** 2 * np.eye(self.m)
        k = rfft_wavenumbers(self.L, self.nx)
        self._k2 = k ** 2
        # rfft multipliers of d/dx (Nyquist mode zeroed) and of -d^2/dx^2
        # plus the diagonal of the shift, per component: the apply adds only
        # the off-diagonal part of the shift, which m = 1 does not have
        diag = np.diag(self._shift)
        self._xmult = np.stack(np.broadcast_arrays(
            1j * k, self._k2 + diag[:, None]))[:, None]
        self._xmult[0, ..., self.nx // 2] = 0.0
        self._off_shift = self._shift - np.diag(diag)
        self.shape_full = (self.ny, self.m, self.nx)
        self.n_dof = self.nx * self.ny * self.m
        # the fast diagonalisation _precond inverts: until its first use,
        # the one handed in (another operator's on the same grid, A and mu)
        self.factor = factor
        self._rowscale = None
        # the last preconditioner output and its rfft spectrum
        self._z = self._z_hat = None
        self.last_residual = None
        self.last_iterations = None

    # -- operator action ---------------------------------------------------

    def apply_values(self, u):
        """Apply the boundary-row-replaced operator to the real y-major
        samples u of shape (ny, m, nx).  When u is the last preconditioner
        output, the spectrum _precond made it from replaces its rfft."""
        ny, nx = self.ny, self.nx
        u_hat = self._z_hat if u is self._z else rfft(u, axis=-1)
        u_x, out = irfft(u_hat * self._xmult, n=nx, axis=-1)
        # u is real: each y-contraction is one GEMM on (ny, m*nx) matrices
        u_y, u_yy = (self._Dy12 @ u.reshape(ny, -1)).reshape((2,) + u.shape)
        out -= self._a12x2 * (self.Dy @ u_x.reshape(ny, -1)).reshape(u.shape)
        out -= self._a22 * u_yy
        out += self._a2 * u_y
        if self.m > 1:
            out += self._off_shift @ u
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
            b[1:-1] = np.asarray(F)[:, 1:-1].transpose(1, 2, 0)
        if psi0 is not None:
            b[0] = np.asarray(psi0).T
        return as_inexact(b)

    # -- preconditioner ----------------------------------------------------

    def _row_scale(self):
        """Set the row scaling w/pb of _precond, w = 1/a22 and pb = mean_x w
        (1 on the boundary rows, which stay unscaled), and the factor it
        inverts.

        A factor handed in is kept while its averages are no farther from
        this operator's than the x-variation the average already drops:
        stale <= var, with var = max |w/pb - 1| over the interior rows and
        stale the larger of max |pb_kept/pb - 1| over the interior rows and
        max |b21b/b21b_kept - 1|.  An evolve's step moves the averages by
        O(delta), so its operators share one factor while the profile's own
        x-variation dominates, as Newton-Krylov codes lag a preconditioner
        across steps (Knoll & Keyes, J. Comput. Phys. 193, 2004, 3.1).
        Otherwise, and when none is handed in, the operator builds its own.
        Either way the choice costs iterations, not accuracy, as every solve
        gates on its true residual.
        """
        w = 1.0 / self._a22
        pb = w.mean(axis=-1)                         # (ny, m)
        b21b = self._b21.mean(axis=-1)               # (m,)
        self._rowscale = w / pb[:, :, None]
        kept = self.factor
        if kept is not None:
            var = np.max(np.abs(self._rowscale[1:-1] - 1.0))
            stale = np.max(np.abs(np.r_[(kept.pb[1:-1] / pb[1:-1]).ravel(),
                                        b21b / kept.b21b] - 1.0))
        if kept is None or not stale <= var:        # NaN-safe comparison
            self.factor = self._build_preconditioner(w, pb, b21b)
        self._rowscale[[0, -1]] = 1.0

    def _build_preconditioner(self, w, pb, b21b):
        """Fast-diagonalise the row-scaled x-averaged operator (Lynch, Rice
        & Thomas) of the row weights w = 1/a22, their x-average pb and the
        x-average b21b of the bottom flux coefficient.

        Each interior row is multiplied by w, averaged over x and divided by
        pb: -Dy^2 gets the coefficient 1/pb, the harmonic mean of a22, and
        Dy the w-weighted mean of a2, while -Dx^2 and the shift A + mu^2
        keep theirs.  Every Fourier mode k is then a block R + k^2 P on the
        (y, component) values, where P keeps the interior rows.  The mixed
        term mean_x(w a12)/pb is dropped; it vanishes for profiles
        symmetric about a node and otherwise only costs iterations, as the
        solve gates on the true residual.  Eliminating the 2m boundary
        rows, which carry no k, leaves the Schur complement S on the
        interior values, and S = V diag(lam) V^-1 serves every mode.  R is
        real, and the rfft modes k >= 0 of real data are all the modes.
        Returns the _FastDiagonalisation, with pb and b21b.
        """
        ny, m, nym = self.ny, self.m, self.ny * self.m
        a22b = 1.0 / pb
        a2b = (w * self._a2).mean(axis=-1) / pb
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
                f"row-scaled x-averaged preconditioner is singular: {what} "
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
        # one inverse serves the condition number, cond(V, 1), and to_eig
        with np.errstate(all="ignore"):
            try:
                V_inv = np.linalg.inv(V)
                cond = np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
            except np.linalg.LinAlgError:
                cond = np.inf
        if not cond < _SINGULAR_COND:
            raise fail("eigenvectors of the Schur complement")
        denom = lam[:, None] + self._k2[None, :]          # lam + k^2
        if not np.all(np.abs(denom) * _SINGULAR_COND > np.max(np.abs(lam))):
            k_bad = int(np.argmin(np.min(np.abs(denom), axis=0)))
            raise fail(f"Fourier mode {k_bad} has an eigenvalue lam + k^2 = 0")
        # u = [back, E_B bnd_inv] diag(scale) [V^-1 lift; E_B] r
        eye = np.eye(nym)
        lift = eye[inner] - R[inner, bnd] @ bnd_inv @ eye[bnd]
        back = (eye[:, inner] - eye[:, bnd] @ elim) @ V
        to_eig = np.vstack([V_inv @ lift, eye[bnd]])
        from_eig = np.hstack([back, eye[:, bnd] @ bnd_inv])
        scale = np.vstack([1.0 / denom, np.ones((2 * m, self._k2.size))])
        return _FastDiagonalisation(to_eig, scale, from_eig, pb, b21b)

    def _precond(self, v):
        """The preconditioner on the real y-major samples v of shape
        (ny, m, nx): the row scaling w/pb, then the fast-diagonalised
        inverse of the row-scaled x-averaged operator.  The output is
        read-only, so that it keeps the spectrum apply_values reuses."""
        if self._rowscale is None:
            self._row_scale()
        fd = self.factor
        rhat = rfft(v * self._rowscale, axis=-1).reshape(self.ny * self.m, -1)
        z = cheb_apply(fd.to_eig, rhat)
        z *= fd.scale
        u_hat = cheb_apply(fd.from_eig, z).reshape(v.shape[:-1] + (-1,))
        self._z, self._z_hat = irfft(u_hat, n=self.nx, axis=-1), u_hat
        self._z.flags.writeable = False
        return self._z

    # -- solve ---------------------------------------------------------------

    def solve(self, F=None, psi0=None, rtol=1e-11, start=None):
        """Solve with interior source F, trace psi0 at y=0 and zero flux at
        y=1.

        One preconditioned gmres of at most _MAX_CYCLES restart cycles asks
        for rtol_gmres = max(rtol, 1e-10); a true residual above
        gate(rtol) = max(100 rtol, 1e-9) then raises SolverError at once.
        Real data give a real field.  Complex data are solved as their real
        and imaginary parts, an all-zero part skipped: last_iterations sums
        the two runs, and last_residual is ||b - A x|| / ||b|| of the
        complex solution.

        start, when given, is an (nx, ny, m) guess of the field: its real
        part starts the run of the real data and its imaginary part that of
        the imaginary data.  A start costs one apply and never decides
        acceptance, which reads the true residual as a zero start's does.
        """
        b = self.rhs(F=F, psi0=psi0)
        # GMRES divides by the data norm: it must be finite, and it must not
        # underflow to 0 (as it does for data below ~1e-154) unless b = 0
        b_norm = np.linalg.norm(b)
        if np.any(b) and not 0.0 < b_norm < np.inf:
            raise SolverError(
                f"strip solve data norm {b_norm:.3g} is non-finite or "
                f"underflows (mu={self.mu}, bc0={self.bc0})", iterations=0)
        # below ~1e-10 the iteration grinds against the round-off floor of
        # the collocation operator (row scales span ~ny^4); ask GMRES only
        # for what is attainable and gate on the true residual instead
        rtol_gmres = max(rtol, 1e-10)
        parts = (b.real, b.imag) if np.iscomplexobj(b) else (b,)
        starts = (None, None) if start is None else (
            np.transpose(start.real, (1, 2, 0)),
            np.transpose(start.imag, (1, 2, 0)))
        sols, its, res_norm = [], 0, 0.0
        for part, x0 in zip(parts, starts):
            sol = np.zeros_like(part)
            if np.any(part):
                sol, n, res = gmres(
                    self.apply_values, part, rtol_gmres,
                    min(_RESTART, self.n_dof), _MAX_CYCLES,
                    precond=self._precond, x0=x0)
                its += n
                res_norm = np.hypot(res_norm, res * np.linalg.norm(part))
            sols.append(sol)
        res = float(res_norm / b_norm) if b_norm > 0 else 0.0
        self.last_residual = res
        self.last_iterations = its
        limit = gate(rtol)
        if not res <= limit:                        # NaN-safe comparison
            # a22 Dy^2 ~ ny^4/h^2 sets the round-off floor of the apply, so
            # the refusal names ny and the node where the height h = nu + g
            # is least
            heights = self.profile.w.min(axis=1)
            node = np.argmin(heights)
            raise SolverError(
                f"strip solve stalled at relative residual {res:.3e} "
                f"(gate {limit:.3g}) after {its} GMRES iterations; the "
                f"smallest height is min(nu + g) = {heights[node]:.3g} at "
                f"x = {self.profile.x[node]:.4g}, and the round-off floor "
                f"rises as it falls and as ny = {self.ny} grows "
                f"(mu={self.mu}, bc0={self.bc0})",
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
            rows.append((mu, data_index, *_graded_probe_norms(
                fields, psi0, op.A_mat, fld.y, fld.L, alpha, mu)))
    return CoercivityReport.from_norms(rows)

"""Coupling-matrix calculus: sectoriality, fractional powers, interpolation norms.

The component coupling of the elliptic system is a constant m-by-m matrix A
acting on the value index of every field.  This module owns everything that
touches A alone: positivity of its shifted resolvents on a sector, fractional
powers, the semigroup exp(-tA), and the K-method interpolation norm used to
grade boundary data between the base space and the domain of A.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularOperatorError, SpectralValidationError


class SectorialOperator:
    """Constant coupling matrix with a declared sector and resolvent bound.

    Parameters
    ----------
    entries : (m, m) array_like
        The matrix itself.  Real or complex.
    sector_angle : float
        Half-angle phi of the sector |arg(lambda)| <= phi on which shifted
        inverses are required to exist, measured from the positive real
        axis.  Must lie in (pi/2, pi) for the semigroup theory to apply;
        the default pi/2 + 0.35 keeps a safe margin.
    bound : float
        Declared constant M in ||(A + lambda)^-1|| <= M / (1 + |lambda|)
        on the sector.
    """

    def __init__(self, entries, sector_angle=np.pi / 2 + 0.35, bound=20.0):
        entries = np.atleast_2d(np.asarray(entries, dtype=complex))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"coupling matrix must be square, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("coupling matrix has non-finite entries")
        if not (np.pi / 2 < sector_angle < np.pi):
            raise ValueError("sector_angle must lie in (pi/2, pi)")
        if bound <= 0:
            raise ValueError("resolvent bound must be positive")
        self.entries = entries
        self.dim = entries.shape[0]
        self.sector_angle = float(sector_angle)
        self.bound = float(bound)

    def matrix(self):
        return self.entries.copy()

    def __repr__(self):
        return (f"SectorialOperator(dim={self.dim}, "
                f"sector_angle={self.sector_angle:.4f}, bound={self.bound})")


def coupling_matrix(A):
    """The matrix of a coupling given as a SectorialOperator or an array."""
    if isinstance(A, SectorialOperator):
        return A.entries
    return np.atleast_2d(np.asarray(A, dtype=complex))


@dataclass
class PositivityReport:
    passed: bool
    worst_ratio: float
    witness: complex
    message: str = ""


def validate_sectorial(A):
    """Check invertibility and resolvent decay of A + lambda over a sector.

    The samples are lambda = 0 and 28 radii from 1e-3 to 1e6 (geometric) on
    9 rays spread evenly over |arg lambda| <= A.sector_angle.  For each
    sample the shifted matrix must be invertible and satisfy
    ``||(A + lambda)^-1|| * (1 + |lambda|) <= bound``.  Returns a
    :class:`PositivityReport`; ``worst_ratio`` is the largest observed
    quotient (ratio <= 1 means the declared bound holds).
    """
    rays = np.linspace(-A.sector_angle, A.sector_angle, 9)
    radii = np.geomspace(1e-3, 1e6, 28)
    lam_samples = np.concatenate(
        [[0.0 + 0.0j], (radii[:, None] * np.exp(1j * rays[None, :])).ravel()])
    eye = np.eye(A.dim)
    worst = 0.0
    witness = 0.0 + 0.0j
    for lam in lam_samples:
        shifted = A.entries + lam * eye
        sv_min = np.linalg.svd(shifted, compute_uv=False)[-1]
        if sv_min <= 1e-14 * max(1.0, np.abs(lam)):
            return PositivityReport(False, np.inf, lam,
                                    f"A + lambda singular at lambda={lam}")
        ratio = (1.0 + np.abs(lam)) / (sv_min * A.bound)
        if ratio > worst:
            worst = ratio
            witness = lam
    passed = worst <= 1.0
    msg = "" if passed else (
        f"resolvent bound exceeded by factor {worst:.3g} at lambda={witness}")
    return PositivityReport(bool(passed), float(worst), witness, msg)


def resolvent(A, lam):
    """(A + lambda)^-1 with an explicit singularity guard."""
    shifted = A.entries + lam * np.eye(A.dim)
    sv = np.linalg.svd(shifted, compute_uv=False)
    if sv[-1] <= 1e-14 * sv[0]:
        raise SingularOperatorError(
            f"A + lambda numerically singular at lambda={lam} "
            f"(condition {sv[0] / max(sv[-1], 1e-300):.3g})")
    return np.linalg.inv(shifted)


def frac_power(A, theta):
    """Principal fractional power A^theta for spectrum off the negative axis.

    Diagonalizable matrices go through an eigendecomposition; defective ones
    fall back to the Schur-Parlett routine in scipy.
    """
    mat = coupling_matrix(A)
    eigvals = np.linalg.eigvals(mat)
    if np.any((np.real(eigvals) <= 0) & (np.abs(np.imag(eigvals)) < 1e-14)):
        raise SpectralValidationError(
            "fractional power undefined: eigenvalue on the closed negative real axis",
            witness=eigvals[np.argmin(np.real(eigvals))])
    w, V = np.linalg.eig(mat)
    cond_v = np.linalg.cond(V)
    if cond_v < 1e8:
        out = V @ np.diag(w ** theta) @ np.linalg.inv(V)
    else:
        out = scipy.linalg.fractional_matrix_power(mat, theta)
    if not np.all(np.isfinite(out)):
        raise SpectralValidationError("fractional power produced non-finite entries")
    if np.max(np.abs(np.imag(eigvals))) < 1e-12 and np.max(np.abs(np.imag(mat))) < 1e-12:
        out = np.real(out).astype(complex)
    return out


def matrix_sqrt(mat):
    """Principal square root of a matrix or of a (..., m, m) stack.

    Shared helper for the half-plane symbols.  Each matrix goes through its
    eigendecomposition when the eigenvector matrix has condition below 1e8,
    and through scipy's Schur-based sqrtm otherwise.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    stack = mat.reshape(-1, *mat.shape[-2:])
    w, V = np.linalg.eig(stack)
    ok = np.linalg.cond(V) < 1e8
    out = np.empty_like(stack)
    out[ok] = (V[ok] * np.sqrt(w[ok])[:, None, :]) @ np.linalg.inv(V[ok])
    if not ok.all():
        out[~ok] = [scipy.linalg.sqrtm(a) for a in stack[~ok]]
    return out.reshape(mat.shape)


def semigroup(A, t):
    """exp(-tA) for t >= 0."""
    if t < 0:
        raise ValueError("semigroup defined for t >= 0 only")
    mat = coupling_matrix(A)
    return scipy.linalg.expm(-t * mat)


@dataclass
class InterpolationNormSpec:
    """Parameters of the K-method norm between the base space and dom(A).

    theta : interpolation exponent in (0, 1).
    t_grid : positive abscissae over which the sup is taken; defaults to a
        36-point log grid on [1e-4, 10].
    """
    theta: float
    t_grid: np.ndarray = field(default=None)

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if self.t_grid is None:
            self.t_grid = np.geomspace(1e-4, 10.0, 36)
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        if np.any(self.t_grid <= 0) or np.any(np.diff(self.t_grid) <= 0):
            raise ValueError("t_grid must be positive and strictly increasing")


class InterpNormEvaluator:
    """Precomputed weights for  sup_t  t^(1-theta) ||A exp(-tA) u||.

    The weight stack depends only on (A, spec), so the evaluator is built
    once and reused across many vectors; ``of_values`` handles arbitrary
    leading axes.
    """

    def __init__(self, A, spec):
        mat = coupling_matrix(A)
        self.spec = spec
        self.dim = mat.shape[0]
        stack = np.empty((spec.t_grid.size, self.dim, self.dim), dtype=complex)
        for i, t in enumerate(spec.t_grid):
            stack[i] = (t ** (1.0 - spec.theta)) * (mat @ scipy.linalg.expm(-t * mat))
        self.weights = stack

    def weighted(self, values):
        """Every weight matrix applied to every vector of an (..., m) array.

        Returns (..., T, m).  The weights are linear, so differences of
        weighted values are the weighted differences.
        """
        return np.tensordot(np.asarray(values, dtype=complex), self.weights,
                            axes=(-1, -1))

    def of_values(self, values):
        """Norm of every vector in an (..., m) array; returns (...) reals.

        Squared norms are summed on the real view and maximised over the
        weights before the single square root.
        """
        wu = self.weighted(values).view(np.float64)
        return np.sqrt(np.max(np.einsum("...k,...k->...", wu, wu), axis=-1))

    def of_vector(self, u):
        return float(self.of_values(np.asarray(u, dtype=complex)))


def interp_norm(A, u, spec):
    """One-shot interpolation norm of a single vector."""
    return InterpNormEvaluator(A, spec).of_vector(u)

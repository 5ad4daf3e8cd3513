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

    def spectrum(self):
        return np.linalg.eigvals(self.entries)

    def min_real_eig(self):
        return float(np.min(np.real(self.spectrum())))

    def __repr__(self):
        return (f"SectorialOperator(dim={self.dim}, "
                f"sector_angle={self.sector_angle:.4f}, bound={self.bound})")


@dataclass
class PositivityReport:
    passed: bool
    worst_ratio: float
    witness: complex
    n_samples: int
    message: str = ""


def default_sector_samples(sector_angle, n_rays=9, n_radii=28,
                           r_min=1e-3, r_max=1e6):
    """Sample points covering the sector |arg z| <= sector_angle, plus 0."""
    rays = np.linspace(-sector_angle, sector_angle, n_rays)
    radii = np.geomspace(r_min, r_max, n_radii)
    pts = (radii[:, None] * np.exp(1j * rays[None, :])).ravel()
    return np.concatenate([[0.0 + 0.0j], pts])


def validate_sectorial(A, lam_samples=None):
    """Check invertibility and resolvent decay of A + lambda over a sector.

    For each sample lambda the shifted matrix must be invertible and satisfy
    ``||(A + lambda)^-1|| * (1 + |lambda|) <= bound``.  Returns a
    :class:`PositivityReport`; ``worst_ratio`` is the largest observed
    quotient (ratio <= 1 means the declared bound holds).
    """
    if lam_samples is None:
        lam_samples = default_sector_samples(A.sector_angle)
    eye = np.eye(A.dim)
    worst = 0.0
    witness = 0.0 + 0.0j
    for lam in np.asarray(lam_samples, dtype=complex):
        shifted = A.entries + lam * eye
        sv_min = np.linalg.svd(shifted, compute_uv=False)[-1]
        if sv_min <= 1e-14 * max(1.0, np.abs(lam)):
            return PositivityReport(False, np.inf, lam, len(lam_samples),
                                    f"A + lambda singular at lambda={lam}")
        ratio = (1.0 + np.abs(lam)) / (sv_min * A.bound)
        if ratio > worst:
            worst = ratio
            witness = lam
    passed = worst <= 1.0
    msg = "" if passed else (
        f"resolvent bound exceeded by factor {worst:.3g} at lambda={witness}")
    return PositivityReport(bool(passed), float(worst), witness,
                            len(np.atleast_1d(lam_samples)), msg)


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
    mat = A.entries if isinstance(A, SectorialOperator) else np.asarray(A, dtype=complex)
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
    """Principal square root (shared helper for the half-plane symbols)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    w, V = np.linalg.eig(mat)
    if np.linalg.cond(V) < 1e8:
        return V @ np.diag(np.sqrt(w.astype(complex))) @ np.linalg.inv(V)
    return scipy.linalg.sqrtm(mat)


def semigroup(A, t):
    """exp(-tA) for t >= 0."""
    if t < 0:
        raise ValueError("semigroup defined for t >= 0 only")
    mat = A.entries if isinstance(A, SectorialOperator) else np.asarray(A, dtype=complex)
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
        mat = A.entries if isinstance(A, SectorialOperator) else np.asarray(A, dtype=complex)
        self.spec = spec
        self.dim = mat.shape[0]
        stack = np.empty((spec.t_grid.size, self.dim, self.dim), dtype=complex)
        for i, t in enumerate(spec.t_grid):
            stack[i] = (t ** (1.0 - spec.theta)) * (mat @ scipy.linalg.expm(-t * mat))
        self.weights = stack

    def of_values(self, values):
        """Norm of every vector in an (..., m) array; returns (...) reals."""
        values = np.asarray(values, dtype=complex)
        # (..., m) x (T, m, m) -> (T, ..., m)
        wu = np.einsum("tij,...j->t...i", self.weights, values)
        return np.max(np.linalg.norm(wu, axis=-1), axis=0)

    def of_vector(self, u):
        return float(self.of_values(np.asarray(u, dtype=complex)))


def interp_norm(A, u, spec):
    """One-shot interpolation norm of a single vector."""
    return InterpNormEvaluator(A, spec).of_vector(u)

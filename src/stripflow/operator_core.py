"""Coupling-matrix calculus: sectoriality, square roots, interpolation norms.

The component coupling of the elliptic system is a constant m-by-m matrix A
acting on the value index of every field.  This module owns everything that
touches A alone: positivity of its shifted resolvents on a sector, the
principal matrix square root, and the K-method interpolation norm used to
grade boundary data between the base space and the domain of A.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg


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


# abscissae of the sup in the interpolation norm: a 36-point log grid
_T_GRID = np.geomspace(1e-4, 10.0, 36)


class InterpNormEvaluator:
    """Precomputed weights for  sup_t  t^(1-theta) ||A exp(-tA) u||.

    theta is the interpolation exponent in (0, 1) and t runs over _T_GRID.
    The weight stack depends only on (A, theta), so the evaluator is built
    once and reused across many vectors; ``of_values`` handles arbitrary
    leading axes.
    """

    def __init__(self, A, theta):
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        mat = coupling_matrix(A)
        T = _T_GRID[:, None, None]
        self.weights = T ** (1.0 - theta) * (mat @ scipy.linalg.expm(-T * mat))

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

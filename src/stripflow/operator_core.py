"""Coupling-matrix calculus: sectoriality and interpolation norms.

The component coupling of the elliptic system is a constant, real m-by-m
matrix A acting on the value index of every field.  This module owns
everything that touches A alone: the rule that A is real (SectorialOperator
refuses any other), positivity of its shifted resolvents on a sector, and
the K-method interpolation norm used to grade boundary data between the
base space and the domain of A.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .grids import as_inexact


class SectorialOperator:
    """Constant coupling matrix with a declared sector and resolvent bound.

    Parameters
    ----------
    entries : (m, m) array_like
        The matrix itself, stored as float64.  It must be real: an entry
        with a nonzero imaginary part raises ValueError.
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
        entries = np.atleast_2d(np.asarray(entries))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"coupling matrix must be square, got {entries.shape}")
        if np.any(entries.imag):
            raise ValueError(
                f"the coupling matrix A must be real, got {entries.tolist()}")
        entries = np.array(entries.real, dtype=float, order="C")
        if not np.all(np.isfinite(entries)):
            raise ValueError("coupling matrix has non-finite entries")
        if not (np.pi / 2 < sector_angle < np.pi):
            raise ValueError("sector_angle must lie in (pi/2, pi)")
        if not bound > 0:                   # NaN-safe
            raise ValueError(f"resolvent bound must be positive, got {bound}")
        self.entries = entries
        self.dim = entries.shape[0]
        self.sector_angle = float(sector_angle)
        self.bound = float(bound)

    def __repr__(self):
        return (f"SectorialOperator(dim={self.dim}, "
                f"sector_angle={self.sector_angle:.4f}, bound={self.bound})")


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
    shifted = A.entries + lam_samples[:, None, None] * np.eye(A.dim)
    sv_min = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    singular = sv_min <= 1e-14 * np.maximum(1.0, np.abs(lam_samples))
    if np.any(singular):
        lam = lam_samples[np.argmax(singular)]
        return PositivityReport(False, np.inf, lam,
                                f"A + lambda singular at lambda={lam}")
    ratios = (1.0 + np.abs(lam_samples)) / (sv_min * A.bound)
    i = int(np.argmax(ratios))      # the first maximal ratio
    worst, witness = ratios[i], lam_samples[i]
    passed = worst <= 1.0
    msg = "" if passed else (
        f"resolvent bound exceeded by factor {worst:.3g} at lambda={witness}")
    return PositivityReport(bool(passed), float(worst), witness, msg)


# abscissae of the sup in the interpolation norm: a 36-point log grid
_T_GRID = np.geomspace(1e-4, 10.0, 36)


def require_resolved_spectrum(A, theta):
    """Refuse (ValueError) an A with an eigenvalue lam whose sup of
    t^(1-theta) |lam e^(-t lam)|, at t* = (1-theta)/|lam|, lies off _T_GRID:
    the grid's norm then misses that sup, and is zero once e^(-t lam)
    underflows at every t of the grid."""
    lo, hi = (1.0 - theta) / _T_GRID[-1], (1.0 - theta) / _T_GRID[0]
    for lam in np.abs(np.linalg.eigvals(A.entries)):
        if not lo <= lam <= hi:
            raise ValueError(
                f"A has an eigenvalue of modulus {lam:.6g}; at alpha = "
                f"{theta} the interpolation norm resolves only moduli in "
                f"[{lo:.6g}, {hi:.6g}]")


class InterpNormEvaluator:
    """Precomputed weights for  sup_t  t^(1-theta) ||A exp(-tA) u||.

    theta is the interpolation exponent in (0, 1) and t runs over _T_GRID.
    The weight stack depends only on (A, theta), so the evaluator is built
    once and reused across many vectors; ``of_values`` handles arbitrary
    leading axes.  A is a SectorialOperator, so the weights are real and
    real vectors are measured in real arithmetic.  They are formed by a
    complex expm whose real part is kept: a real expm differs from it in
    the last bit.
    """

    def __init__(self, A, theta):
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        mat = A.entries.astype(complex)
        T = _T_GRID[:, None, None]
        self.weights = np.ascontiguousarray(
            (T ** (1.0 - theta) * (mat @ scipy.linalg.expm(-T * mat))).real)

    @cached_property
    def weight_norms(self):
        """(spectral, Frobenius) norms of the weight matrices, (T,) each;
        computed on first use, once per evaluator."""
        return tuple(np.linalg.norm(self.weights, p, axis=(-2, -1))
                     for p in (2, "fro"))

    def weighted(self, values):
        """Every weight matrix applied to every vector of an (..., m) array.

        Returns (..., T, m).  The weights are linear, so differences of
        weighted values are the weighted differences.
        """
        return np.tensordot(as_inexact(values), self.weights, axes=(-1, -1))

    def of_values(self, values):
        """Norm of every vector in an (..., m) array; returns (...) reals.

        Squared norms are summed over the real components (the float64
        view of complex values) and maximised over the weights before the
        single square root.
        """
        wu = self.weighted(values)
        if np.iscomplexobj(wu):
            wu = wu.view(np.float64)
        return np.sqrt(np.max(np.einsum("...k,...k->...", wu, wu), axis=-1))

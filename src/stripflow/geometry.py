"""Interface geometry and the strip-flattening change of variables.

The moving domain  Omega = { (x, y) : 0 < y < h(x) }  under the graph of the
interface height h is pulled back to the fixed strip  Q = torus x (0, 1) by

    y_strip = 1 - y_phys / h(x),

so that the free boundary lands on y_strip = 0 and the flat bottom on
y_strip = 1.  This module owns the profile container, the forward/inverse
maps, and the transformed second-order coefficients together with their
derivatives along a direction and their ellipticity audit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDomainError, EllipticityError
from .grids import spectral_derivative, trig_interp
from .holder import SampledFunction


class InterfaceProfile(SampledFunction):
    """Periodic interface state: offset nu plus perturbation g.

    A profile is the SampledFunction of g, with g_x and g_xx its first two
    derivatives.  The per-component interface height is w = nu + g, an
    (nx, m) float64 attribute that the flattening's coefficients, the
    boundary weight and the admissibility datum read.  The physical height
    is the normalized Euclidean length of that value vector,
    h(x) = ||w(x)|| / ||ones||,  which reduces to w for a single component.
    Profiles are real, so the coefficients and the strip solves built from
    them run in real arithmetic.

    Parameters
    ----------
    nu : float
        Reference offset (> 0).
    L : float
        Torus circumference.
    g : (nx, m) array_like
        Perturbation samples on ``torus_nodes(L, nx)``, kept as a copy:
        complex samples whose imaginary parts are all exactly zero are real
        input, and a nonzero imaginary part raises EllipticityError.
    h_floor : float
        Degeneracy guard; construction fails if some component of nu + g
        is at or below h_floor.
    """

    def __init__(self, nu, L, g, h_floor=1e-8):
        # a copy: the caller's array may change after construction
        super().__init__(L, np.array(g))
        if np.iscomplexobj(self.values):
            raise EllipticityError(
                "the strip flattening needs a real profile, and g has "
                "samples with nonzero imaginary parts")
        if nu <= 0:
            raise ValueError(f"offset nu must be positive, got {nu}")
        self.nu = float(nu)
        self.g, self.g_x, self.g_xx = map(self.deriv, range(3))

        self.w = self.nu + self.g  # value vector of the interface
        scale = np.sqrt(self.m)
        self.h = np.linalg.norm(self.w, axis=1) / scale
        self.h_floor = float(h_floor)
        # the flattening needs the value vector to stay on the positive
        # side of the reference offset: a component that crosses zero folds
        # the domain onto itself even though the Euclidean height |w| stays
        # away from zero; h, a root mean square, is never below row_min
        row_min = self.w.min(axis=1)
        j = int(np.argmin(row_min))
        if row_min[j] <= self.h_floor:
            raise DegenerateDomainError(
                f"interface height {row_min[j]:.3e} at "
                f"x={self.x[j]:.4f} is at or below the degeneracy guard "
                f"{self.h_floor:.1e}")
        self.h_x = spectral_derivative(self.h, self.L, 1)

    def with_g(self, new_g):
        """Same geometry parameters, new perturbation."""
        return InterfaceProfile(self.nu, self.L, new_g, self.h_floor)

    def height_at(self, x_eval):
        """Trigonometric interpolation of h at arbitrary points."""
        return np.real(trig_interp(self.h, self.L, x_eval))

    def __repr__(self):
        return (f"InterfaceProfile(nu={self.nu}, L={self.L:.4f}, nx={self.nx}, "
                f"m={self.m}, h_range=({self.h.min():.4f}, {self.h.max():.4f}))")


def map_forward(profile, x_phys, y_phys):
    """Physical (x, y) in Omega  ->  strip (x, y_strip) in closure(Q)."""
    x_phys = np.asarray(x_phys, dtype=float)
    y_phys = np.asarray(y_phys, dtype=float)
    h = profile.height_at(x_phys)
    if np.any(y_phys < -1e-12) or np.any(y_phys > h * (1 + 1e-12)):
        raise ValueError("point lies outside the physical domain")
    return x_phys, 1.0 - y_phys / h


def map_inverse(profile, x_strip, y_strip):
    """Strip (x, y_strip)  ->  physical (x, (1 - y_strip) * h(x))."""
    x_strip = np.asarray(x_strip, dtype=float)
    y_strip = np.asarray(y_strip, dtype=float)
    if np.any(y_strip < -1e-12) or np.any(y_strip > 1 + 1e-12):
        raise ValueError("strip coordinate outside [0, 1]")
    h = profile.height_at(x_strip)
    return x_strip, (1.0 - y_strip) * h


@dataclass
class TransformedCoefficients:
    """Coefficient fields of the flattened elliptic operator.

    Interior fields are (nx, ny, m); boundary fields are (nx, m).  For a
    field u on the strip the interior operator reads

        B u = -u_xx - 2 a12 u_xy - a22 u_yy + a2 u_y + A u,

    the free-boundary trace operator (at y_strip = 0) is

        B0 u = b10 u_x + b20 u_y,

    and the bottom trace operator (at y_strip = 1) is  B1 u = b21 u_y.
    ``alpha_floor`` is the pointwise ellipticity weight
    1 / (1 + h^2 + beta^2 h_x^2) evaluated per component.
    """
    a12: np.ndarray
    a22: np.ndarray
    a2: np.ndarray
    b10: np.ndarray
    b20: np.ndarray
    b21: np.ndarray
    alpha_floor: np.ndarray
    beta: np.ndarray       # 1 - y_strip, shape (ny,)


def coefficients(profile, y_nodes):
    """Transformed coefficients of the flattening on a given y-grid.

    Derived by the chain rule from y_phys = (1 - y_strip) * w(x) with the
    per-component height w = nu + g; beta = 1 - y_strip.
    """
    y = np.asarray(y_nodes, dtype=float)
    beta = (1.0 - y)[None, :, None]                      # (1, ny, 1)
    w = profile.w[:, None, :]                            # (nx, 1, m)
    wx = profile.g_x[:, None, :]
    wxx = profile.g_xx[:, None, :]

    a12 = beta * wx / w
    a22 = (1.0 + beta ** 2 * wx ** 2) / w ** 2
    a2 = (beta / w) * (2.0 * wx ** 2 / w - wxx)
    alpha = 1.0 / (1.0 + w ** 2 + beta ** 2 * wx ** 2)

    b10 = -profile.g_x
    b20 = -(1.0 + profile.g_x ** 2) / profile.w
    b21 = 1.0 / profile.w

    return TransformedCoefficients(
        a12=a12, a22=a22, a2=a2,
        b10=b10, b20=b20, b21=b21,
        alpha_floor=alpha, beta=(1.0 - y))


def coefficient_derivatives(w, gx, gxx, ps, ps_x, ps_xx):
    """Directional derivatives of the coefficients built by coefficients().

    Perturbing g along psi moves the height w = nu + g by ps, its slope gx
    by ps_x and its curvature gxx by ps_xx (samples of psi or the symbols
    of a Fourier mode).  The interior fields are separable in beta: the
    result is (d12, d22, e22, d2, db10, db20), with first-order changes
    beta d12 of a12, beta^2 d22 - e22 of a22 and beta d2 of a2, and db10
    and db20 those of b10 and b20.  b21 enters no derivative piece.  All
    arguments broadcast against each other, and no result depends on beta.
    """
    r = 1.0 / w
    slope = (ps_x - gx * ps * r) * r        # the change of gx / w
    d22 = 2.0 * gx * r * slope
    d2 = 2.0 * d22 - ps_xx * r + gxx * ps * r ** 2
    db10 = -ps_x
    db20 = (1.0 + gx ** 2) * ps * r ** 2 - 2.0 * gx * ps_x * r
    return slope, d22, 2.0 * ps * r ** 3, d2, db10, db20


@dataclass
class EllipticityReport:
    passed: bool
    margin: float
    floor: float
    witness: tuple


def ellipticity_floor(coeffs, tol=1e-10):
    """Audit the principal symbol against its claimed pointwise floor.

    The 2x2 symbol  [[1, a12], [a12, a22]]  must have least eigenvalue at
    least alpha_floor at every node and component.  The coefficients are
    real, since InterfaceProfile admits only real profiles.
    """
    a12 = coeffs.a12
    a22 = coeffs.a22
    tr = 1.0 + a22
    # discriminant written cancellation-free: tr^2 - 4 det == (1-a22)^2 + 4a12^2
    disc = (1.0 - a22) ** 2 + 4.0 * a12 ** 2
    lam_min = 0.5 * (tr - np.sqrt(disc))
    gap = lam_min - coeffs.alpha_floor
    margin = float(np.min(gap))
    idx = np.unravel_index(np.argmin(gap), gap.shape)
    passed = margin >= -tol
    return EllipticityReport(bool(passed), margin,
                             float(np.min(coeffs.alpha_floor)),
                             tuple(int(i) for i in idx))


def require_elliptic(coeffs):
    rep = ellipticity_floor(coeffs)
    if not rep.passed:
        raise EllipticityError(
            f"principal symbol dips {abs(rep.margin):.3e} below its floor "
            f"at node index {rep.witness}")
    return rep

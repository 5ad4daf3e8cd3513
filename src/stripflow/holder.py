"""Hölder seminorms and graded trace norms on the periodic line.

Interface profiles and boundary data live in spaces of the form
C^{2+alpha}(torus, E) where the value space E is C^m measured either by the
plain Euclidean norm or by the interpolation norm attached to the coupling
matrix.  Seminorms are evaluated exactly on the sample set (all node pairs),
which is both deterministic and an honest lower bound for the continuum
seminorm; resolution is the caller's responsibility.
"""

from dataclasses import dataclass

import numpy as np

from .grids import spectral_derivative, torus_nodes
from .operator_core import InterpNormEvaluator, InterpolationNormSpec


class SampledFunction:
    """Periodic vector-valued samples with spectral derivatives on demand.

    Parameters
    ----------
    L : float
        Period of the underlying torus.
    values : (nx, m) array_like
        Samples at ``torus_nodes(L, nx)``.  A flat (nx,) array is promoted
        to a single component.
    """

    def __init__(self, L, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"values must be (nx,) or (nx, m), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples contain non-finite entries")
        self.L = float(L)
        self.values = values
        self.nx = values.shape[0]
        self.m = values.shape[1]
        self.grid = torus_nodes(self.L, self.nx)
        self._derivs = {0: values}

    @classmethod
    def from_callable(cls, L, nx, func, m=None):
        x = torus_nodes(L, nx)
        vals = np.asarray(func(x), dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        if m is not None and vals.shape[1] != m:
            raise ValueError(f"callable produced {vals.shape[1]} components, expected {m}")
        return cls(L, vals)

    def deriv(self, order):
        if order not in self._derivs:
            self._derivs[order] = spectral_derivative(self.values, self.L, order, axis=0)
        return self._derivs[order]

    def sup_norm(self, evaluator=None):
        return float(np.max(_node_norms(self.values, evaluator)))


@dataclass
class HolderNormReport:
    sup_norm: float
    seminorm: float
    total: float
    witness_pair: tuple


def _node_norms(values, evaluator=None):
    """Per-node E-norms: Euclidean by default, interpolation norm if given."""
    if evaluator is None:
        return np.linalg.norm(values, axis=-1)
    return evaluator.of_values(values)


def _periodic_distance(x, L):
    d = np.abs(x[:, None] - x[None, :])
    return np.minimum(d, L - d)


def _pair_norms(values, evaluator=None):
    """E-norms of all node differences of (..., n, m) samples: (..., n, n).

    The interpolation-norm weights are linear, so they are applied to the n
    node values once and differenced afterwards; the Euclidean norm is the
    one-weight case.  Squared norms are accumulated one real component at a
    time, each a contiguous (..., T, n, n) block, and maximised over the T
    weights before the single square root.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    w = values[..., None, :] if evaluator is None else evaluator.weighted(values)
    # (..., n, T, m) complex -> (2m, ..., T, n) real components
    comps = np.ascontiguousarray(
        np.moveaxis(w.view(np.float64), (-1, -3), (0, -1)))
    sq = sum(np.square(c[..., :, None] - c[..., None, :]) for c in comps)
    return np.sqrt(np.max(sq, axis=-3))


def _holder_ratios(values, dist, gamma, evaluator=None):
    """Pair norms over dist**gamma; coincident nodes (the diagonal) read 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _pair_norms(values, evaluator) / dist ** gamma
    diag = np.arange(dist.shape[0])
    ratio[..., diag, diag] = 0.0
    return ratio


def holder_seminorm(f, gamma, evaluator=None):
    """Exact max over node pairs of ||f(x)-f(y)||_E / |x-y|_per^gamma.

    Degenerate pairs (coincident nodes) are excluded.  Returns a
    :class:`HolderNormReport` whose witness is the maximizing node pair.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    vals = f.values
    ratio = _holder_ratios(vals, _periodic_distance(f.grid, f.L), gamma,
                           evaluator)
    idx = np.unravel_index(np.argmax(ratio), ratio.shape)
    semi = float(ratio[idx])
    sup = float(np.max(_node_norms(vals, evaluator)))
    return HolderNormReport(sup, semi, sup + semi,
                            (float(f.grid[idx[0]]), float(f.grid[idx[1]])))


def h_alpha_norm(f, alpha, evaluator=None):
    """C^alpha norm: sup plus alpha-seminorm."""
    return holder_seminorm(f, alpha, evaluator).total


def h2alpha_norm(g, alpha, A=None, spec=None, evaluator=None):
    """C^{2+alpha} norm of a periodic profile, E-norm optionally A-graded.

    Sum of the sups of g, g', g'' plus the alpha-seminorm of g''.  When the
    coupling matrix ``A`` (or a prebuilt ``evaluator``) is supplied, node
    values are measured in the interpolation norm of exponent alpha instead
    of the Euclidean norm.
    """
    if evaluator is None and A is not None:
        evaluator = InterpNormEvaluator(A, spec or InterpolationNormSpec(theta=alpha))
    total = 0.0
    for order in (0, 1, 2):
        dvals = g.deriv(order)
        total += float(np.max(_node_norms(dvals, evaluator)))
    d2 = SampledFunction(g.L, g.deriv(2))
    total += holder_seminorm(d2, alpha, evaluator).seminorm
    return total


def h1alpha_norm(f, alpha, A=None, spec=None, evaluator=None):
    """C^{1+alpha} norm (sup of f and f' plus alpha-seminorm of f')."""
    if evaluator is None and A is not None:
        evaluator = InterpNormEvaluator(A, spec or InterpolationNormSpec(theta=alpha))
    total = float(np.max(_node_norms(f.values, evaluator)))
    d1 = SampledFunction(f.L, f.deriv(1))
    total += float(np.max(_node_norms(d1.values, evaluator)))
    total += holder_seminorm(d1, alpha, evaluator).seminorm
    return total


def trace_xnorm(values, L, alpha, mu):
    """mu-scaled Hölder norm of a periodic trace: sup + mu^(-alpha) seminorm."""
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    f = SampledFunction(L, values)
    rep = holder_seminorm(f, alpha)
    mu_eff = max(float(mu), 1.0)
    return rep.sup_norm + rep.seminorm / mu_eff ** alpha


def graded_trace_norm(values, L, alpha, mu, order):
    """Parameter-graded data norm: sum of mu^(order-j) weighted derivative norms.

    For Dirichlet data (order 2) this is
        mu^2 |psi|_{alpha,mu} + mu |psi'|_{alpha,mu} + |psi''|_{alpha,mu},
    each factor a trace_xnorm; first-order boundary data take order 1.
    The grading matches the solution-side weights of the coercive
    estimates, which is what keeps probe ratios flat in mu.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    total = 0.0
    for j in range(order + 1):
        dj = spectral_derivative(values, L, j, axis=0) if j else values
        total += float(mu) ** (order - j) * trace_xnorm(dj, L, alpha, mu)
    return total


def scaled_field_norm(values, x, y, L, alpha, mu):
    """Parameter-graded Hölder norm of a strip field.

    sup-norm plus mu^(-alpha) times the larger of the directional
    alpha-seminorms in x (periodic) and y (straight line).  The mu weight
    makes the family of norms uniform in the zeroth-order parameter: a
    bare seminorm would let smooth-but-large-gradient fields dominate as
    mu grows even though the elliptic estimates hold uniformly.
    """
    values = np.asarray(values, dtype=complex)
    sup = float(np.max(np.linalg.norm(values, axis=-1)))
    mu_eff = max(float(mu), 1.0)
    semi_x = np.max(_holder_ratios(np.moveaxis(values, 1, 0),
                                   _periodic_distance(x, L), alpha))
    semi_y = np.max(_holder_ratios(values, np.abs(y[:, None] - y[None, :]),
                                   alpha))
    return sup + float(max(semi_x, semi_y)) / mu_eff ** alpha

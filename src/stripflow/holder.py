"""Hölder seminorms and graded trace norms on the periodic line.

Interface profiles and boundary data live in spaces of the form
C^{2+alpha}(torus, E) where the value space E is C^m measured either by the
plain Euclidean norm or by the interpolation norm attached to the coupling
matrix.  Seminorms are evaluated exactly on the sample set, which is both
deterministic and an honest lower bound for the continuum seminorm;
resolution is the caller's responsibility.

Each unordered node pair is visited once.  On the torus the distance of a
pair depends only on its shift class s = 1..n/2, so the squared E-norms of
f[(i+s) mod n] - f[i] are reduced to one maximum per class before the
square root and the division by d_s^gamma.  On the non-periodic y axis of
a strip field the pairs i < j are taken row by row, each with its own
distance.

The coercivity probes of model and strip share their report types and the
two graded norms they compare, which sit here beside the norms they
combine.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import as_inexact, spectral_derivative, torus_nodes

# torus pair temporaries are built about this many elements (256 KB) at a
# time, so they stay in cache: at nx = 128 the x-part of a strip field ran
# about twice as fast in such row blocks as in one pair array over the field
_BLOCK = 1 << 15


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
        values = as_inexact(values)
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

    def deriv(self, order):
        if order not in self._derivs:
            self._derivs[order] = spectral_derivative(self.values, self.L,
                                                      order)
        return self._derivs[order]


def _components(values, node_axis):
    """Real components of (..., m) samples, first, with the node axis moved
    last and made contiguous: the m rows of real samples as they are, the
    2m rows (re_0, im_0, re_1, im_1, ...) of the float64 view of complex
    ones."""
    v = values
    if np.iscomplexobj(v):
        v = np.ascontiguousarray(v).view(np.float64)
    return np.ascontiguousarray(np.moveaxis(v, (-1, node_axis), (0, -1)))


def _pair_sq(ends):
    """Squared pair distances: the sum over components of (hi - lo)^2,
    accumulated in place; ends yields one (hi, lo) pair per component."""
    acc = None
    for hi, lo in ends:
        d = hi - lo
        np.square(d, out=d)
        if acc is None:
            acc = d
        else:
            acc += d
    return acc


def _torus_pair_sq(lines):
    """Squared pair distances along periodic lines, by shift class.

    lines is (C, R, n) real: C components of R lines of n torus nodes.
    Yields (r, n, n/2) blocks of consecutive lines, entry [., i, s-1] the
    squared distance of f[(i+s) mod n] and f[i] for s = 1..n/2: every
    unordered node pair once, except that the class s = n/2 holds each of
    its pairs twice.  The shifted samples are windows of a doubled copy, so
    no gather is made, and each block's temporaries stay near _BLOCK
    elements.
    """
    n = lines.shape[-1]
    h = n // 2
    doubled = np.concatenate([lines, lines[..., :h]], axis=-1)
    windows = sliding_window_view(doubled, h + 1, axis=-1)[..., 1:]
    step = max(1, _BLOCK // (n * h))
    for r in range(0, lines.shape[1], step):
        rows = slice(r, r + step)
        yield _pair_sq(zip(windows[:, rows], lines[:, rows, :, None]))


def _shift_distance(L, n):
    """Periodic distance of the shift classes s = 1..n/2 of torus_nodes."""
    return np.arange(1, n // 2 + 1) * (L / n)


def holder_seminorm(f, gamma, evaluator=None):
    """Exact max over node pairs of ||f(x)-f(y)||_E / |x-y|_per^gamma.

    Degenerate pairs (coincident nodes) are excluded.  Returns the
    seminorm as a float.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    vals = f.values
    w = vals[:, None, :] if evaluator is None else evaluator.weighted(vals)
    # (n/2,): the largest squared E-norm of each shift class, maximised
    # over the nodes and the weights
    cls_sq = np.max([np.max(block, axis=(0, 1))
                     for block in _torus_pair_sq(_components(w, 0))], axis=0)
    dist = _shift_distance(f.L, f.nx) ** gamma
    return float(np.max(np.sqrt(cls_sq) / dist))


def _ck_alpha_norm(f, k, alpha, evaluator):
    """C^{k+alpha} norm: the sups of the derivatives 0..k, summed in that
    order, plus the alpha-seminorm of the k-th derivative."""
    total = 0.0
    for order in range(k + 1):
        vals = f.deriv(order)
        # per-node E-norms: Euclidean, or the interpolation norm if given
        norms = (np.linalg.norm(vals, axis=-1) if evaluator is None
                 else evaluator.of_values(vals))
        total += float(np.max(norms))
    dk = SampledFunction(f.L, f.deriv(k))
    return total + holder_seminorm(dk, alpha, evaluator)


def h2alpha_norm(g, alpha, evaluator=None):
    """C^{2+alpha} norm of a periodic profile, E-norm optionally A-graded.

    Sum of the sups of g, g', g'' plus the alpha-seminorm of g''.  When an
    InterpNormEvaluator of the coupling matrix is supplied, node values are
    measured in its interpolation norm instead of the Euclidean norm.
    """
    return _ck_alpha_norm(g, 2, alpha, evaluator)


def h1alpha_norm(f, alpha, evaluator=None):
    """C^{1+alpha} norm (sup of f and f' plus alpha-seminorm of f'), with
    node values measured as in h2alpha_norm."""
    return _ck_alpha_norm(f, 1, alpha, evaluator)


def trace_xnorm(values, L, alpha, mu):
    """mu-scaled Hölder norm of a periodic trace: sup + mu^(-alpha) seminorm."""
    f = SampledFunction(L, values)
    sup = float(np.max(np.linalg.norm(f.values, axis=-1)))
    mu_eff = max(float(mu), 1.0)
    return sup + holder_seminorm(f, alpha) / mu_eff ** alpha


def graded_trace_norm(values, L, alpha, mu, order):
    """Parameter-graded data norm: sum of mu^(order-j) weighted derivative norms.

    For Dirichlet data (order 2) this is
        mu^2 |psi|_{alpha,mu} + mu |psi'|_{alpha,mu} + |psi''|_{alpha,mu},
    each factor a trace_xnorm; first-order boundary data take order 1.
    The grading matches the solution-side weights of the coercive
    estimates, which is what keeps probe ratios flat in mu.
    """
    values = as_inexact(values)
    total = 0.0
    for j in range(order + 1):
        dj = spectral_derivative(values, L, j) if j else values
        total += float(mu) ** (order - j) * trace_xnorm(dj, L, alpha, mu)
    return total


def scaled_field_norm(values, y, L, alpha, mu):
    """Parameter-graded Hölder norm of strip fields.

    values is (..., nx, ny, m) on torus_nodes(L, nx) x y; the result has
    the leading shape, one norm per field.  Each norm is the sup-norm plus
    mu^(-alpha) times the larger of the directional alpha-seminorms in x
    (periodic, by shift class) and y (straight line, the pairs i < j).  The
    mu weight makes the family of norms uniform in the zeroth-order
    parameter: a bare seminorm would let smooth-but-large-gradient fields
    dominate as mu grows even though the elliptic estimates hold uniformly.
    """
    values = as_inexact(values)
    batch, (nx, ny) = values.shape[:-3], values.shape[-3:-1]
    sup = np.max(np.linalg.norm(values, axis=-1), axis=(-2, -1))
    comps = _components(values, -3)                # (C, ..., ny, nx)
    # x: every (field, y) line reduced to its per-class maxima
    lines = comps.reshape(comps.shape[0], -1, nx)
    cls_sq = np.concatenate([np.max(block, axis=-2)
                             for block in _torus_pair_sq(lines)])
    cls_sq = np.max(cls_sq.reshape(batch + (ny, nx // 2)), axis=-2)
    semi_x = np.max(np.sqrt(cls_sq) / _shift_distance(L, nx) ** alpha,
                    axis=-1)
    # y: upper triangle row by row, pairs (i, j > i) in triu_indices order,
    # each maximised over x
    pair_sq = np.concatenate(
        [np.max(_pair_sq(zip(comps[..., i + 1:, :], comps[..., i:i + 1, :])),
                axis=-1) for i in range(ny - 1)], axis=-1)
    ii, jj = np.triu_indices(ny, 1)
    semi_y = np.max(np.sqrt(pair_sq) / np.abs(y[jj] - y[ii]) ** alpha,
                    axis=-1)
    mu_eff = max(float(mu), 1.0)
    return sup + np.maximum(semi_x, semi_y) / mu_eff ** alpha


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


def _graded_probe_norms(fields, psi, A, y, L, alpha, mu):
    """The two sides shared by the coercivity probes.

    Returns the six-term mu-graded solution norm of the derivative fields
    (keys u, ux, uxx, uxy, uyy, au) and the norm of the Dirichlet datum
    psi: Dirichlet data live in the A-graded second-order trace space,
    mu-graded x-derivatives plus the coupling-operator part, so the ratio
    carries the same currencies on both sides.
    """
    names = ("u", "ux", "uxx", "uxy", "uyy", "au")
    norms = scaled_field_norm(np.stack([fields[k] for k in names]), y, L,
                              alpha, mu)
    lhs = sum(w * n for w, n in zip((mu ** 2, mu, 2.0, 2.0, 1.0, 1.0), norms))
    data = (graded_trace_norm(psi, L, alpha, mu, order=2)
            + trace_xnorm(psi @ A.T, L, alpha, mu))
    return lhs, data

"""Hölder seminorms and graded trace norms on the periodic line.

Interface profiles and boundary data live in spaces of the form
C^{2+alpha}(torus, E) where the value space E is C^m measured either by the
plain Euclidean norm or by the interpolation norm attached to the coupling
matrix.  Seminorms are evaluated exactly on the sample set, which is both
deterministic and an honest lower bound for the continuum seminorm;
resolution is the caller's responsibility.

The norms are exact over every node pair.  On the torus the distance of a
pair depends only on its shift class s = 1..n/2, so the squared E-norms of
f[(i+s) mod n] - f[i] are reduced to one maximum per class before the
square root and the division by d_s^gamma.  On the non-periodic y axis of
a strip field each pair i < j has its own distance.

Three passes take the exact pair arithmetic only where it can change the
result.  Each has a bound of every candidate's quotient, a running maximum
per field with its seed, and _prune_rounds: rounds that take the top-bound
live candidate of every field in one call, until every candidate's bound
is at most its field's maximum.  Every bound is formed from squares, as
the exact pass forms its pairs, so a pair square that overflows has an
infinite bound.  _widened puts the margin (1 + 1e-12)^2 on the square,
which covers the rounding of both passes, and adds the smallest normal
float, which covers pair squares that underflow (differences near 1e-162
keep only a few bits when squared).  A skipped candidate cannot raise the
maximum, so every norm is that of the pass over every pair, bit for bit.

- The y-pairs of a strip field (_y_seminorm).  With row r_i holding every x
  and component at y_i, the neighbour steps s_k = max_x ||r_{k+1} - r_k||
  are exact pair values and seed the maximum.  Every other pair has
  max_x ||r_j - r_i|| <= s_i + ... + s_{j-1}, its path sum.  The path sum
  is summed, never taken as a difference of prefix sums, whose
  cancellation no relative margin covers.
- The x-lines of a strip field (scaled_field_norm), seeded by the field's
  y-seminorm.  A periodic line with largest neighbour step d1 (the seam
  step from node n-1 to node 0 included) and D = 2 max_i ||f_i - mean||
  has every pair of class s within min(s d1, D), so its quotient is at
  most max_s min(s d1, D) / d_s^alpha (_torus_line_bound).
- The weight lines of holder_seminorm, one field seeded by zero, with
  ||W_t||_2 times the unweighted line's class maxima plus a rounding term
  (_weight_line_bound), which one exact pass over the unweighted line
  gives for every weight.  A single line (no evaluator) takes the exact
  pass at once.

The coercivity probes of model and strip share one sweep (_probe_report),
which sits here beside the norms it combines: a probe hands it the data
and a generator of its solution fields, and the sweep holds the input
rules, the graded data norms, the six field weights and the report.  mu
enters a datum's norm only through its grading, so the sweep measures the
four (sup, seminorm) pairs of a datum once, before the first solve, and
grades them per mu.  The grading sup + seminorm / max(mu, 1)^alpha is
written once, in trace_xnorm.  The sup of a trace or a strip field adds
the squares of one component at a time and takes one square root
(_sup_norm), where a reduction over the short component axis cost far
more.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SpectralValidationError
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
        Samples at the nodes ``x = torus_nodes(L, nx)``.  A flat (nx,)
        array is promoted to a single component.
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
        self.nx, self.m = values.shape
        self.x = torus_nodes(self.L, self.nx)
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


def _widened(bound_sq, dist):
    """sqrt(bound_sq) / dist with the margin of every pruning bound: the
    square times (1 + 1e-12)^2 plus the smallest normal float."""
    return np.sqrt(bound_sq * (1.0 + 1e-12) ** 2
                   + np.finfo(float).tiny) / dist


def _torus_line_bound(lines, dist):
    """(R,) upper bounds of the Hölder quotients of periodic lines, in O(n).

    lines is (C, R, n) real as in _torus_pair_sq, dist the (n/2,) weights
    d_s^alpha of the shift classes.  The bound is max_s min(s d1, D) / d_s,
    with d1 the largest neighbour step (seam step included) and D = 2
    max_i ||f_i - mean||, formed from squares and widened.
    """
    n = lines.shape[-1]
    step_sq = np.max(_pair_sq(zip(np.roll(lines, -1, axis=-1), lines)),
                     axis=-1)
    mean = np.mean(lines, axis=-1, keepdims=True)
    radius_sq = np.max(_pair_sq(zip(lines, mean)), axis=-1)
    s = np.arange(1, n // 2 + 1)
    bound_sq = np.minimum(step_sq[:, None] * s ** 2, 4.0 * radius_sq[:, None])
    return np.max(_widened(bound_sq, dist), axis=-1)


def _torus_class_sq(lines):
    """(R, n/2) largest pair square of each shift class of each periodic
    line; lines as in _torus_pair_sq."""
    return np.concatenate([np.max(block, axis=-2)
                           for block in _torus_pair_sq(lines)])


def _torus_line_quotient(lines, dist):
    """(R,) exact Hölder quotient of each periodic line: the largest
    sqrt(pair square) / d_s over its shift classes s."""
    return np.max(np.sqrt(_torus_class_sq(lines)) / dist, axis=-1)


def _weight_line_bound(vals, dist, evaluator):
    """(T,) upper bounds of the Hölder quotients of the weight lines
    W_t u_i of the (n, m) samples u, from one exact pass over u.

    ||W_t (u_j - u_i)|| <= ||W_t||_2 ||u_j - u_i||, so weight line t has
    every pair of class s within ||W_t||_2 D_s, D_s the largest pair
    distance of u in that class.  The weighted samples are rounded: each
    entry of W_t u_i is a dot of length m, off by at most
    m eps |W_t| |u_i|, so R_t = 4 (m + 2) eps ||W_t||_F max_i ||u_i||
    covers both ends of a pair.  Formed as a square and widened.
    """
    spec, frob = evaluator.weight_norms
    u = _components(vals[:, None, :], 0)                # (C, 1, n)
    cls = np.sqrt(_torus_class_sq(u))                   # (1, n/2)
    radius = np.max(np.linalg.norm(vals, axis=-1))
    rounding = 4 * (vals.shape[-1] + 2) * np.finfo(float).eps * frob * radius
    bound_sq = (spec[:, None] * cls + rounding[:, None]) ** 2
    return np.max(_widened(bound_sq, dist), axis=-1)


def _prune_rounds(bound, semi, quotient):
    """Raise the running maxima semi (F,) in place to the largest exact
    quotient among each field's candidates, and return semi.

    bound (F, R) holds an upper bound of each candidate's quotient, and
    quotient(rows, cols) the exact quotients of the candidates (rows[i],
    cols[i]).  Each round takes, in one call, the top-bound live candidate
    of every field that has one.  A candidate drops out once its field's
    maximum reaches its bound (not bound > max: a NaN bound keeps it live)
    or is NaN, which np.maximum keeps whatever is visited.  A skipped
    candidate cannot change the maximum, so semi ends as it would after
    visiting every candidate.
    """
    live = np.ones(bound.shape, dtype=bool)
    while True:
        live &= ~(bound <= semi[:, None]) & ~np.isnan(semi)[:, None]
        rows = np.flatnonzero(live.any(axis=-1))
        if rows.size == 0:
            return semi
        cols = np.argmax(np.where(live[rows], bound[rows], -np.inf), axis=-1)
        semi[rows] = np.maximum(semi[rows], quotient(rows, cols))
        live[rows, cols] = False


def _y_seminorm(rows, y, alpha):
    """(F,) exact y-seminorms of strip fields: the largest
    sqrt(pair square) / |y_j - y_i|^alpha over the pairs i < j, a pair
    square maximised over x.  rows is (C, F, ny, nx) real, row i holding
    every x and component at y_i.  The neighbour pairs seed the maxima, and
    the others are bounded by their path sums.
    """
    ny = rows.shape[-2]
    ii, jj = np.triu_indices(ny, 1)
    dist = np.abs(y[jj] - y[ii]) ** alpha
    near = jj == ii + 1
    step = np.sqrt(np.max(_pair_sq(zip(rows[..., 1:, :], rows[..., :-1, :])),
                          axis=-1))                 # (F, ny - 1)
    semi = np.max(step / dist[near], axis=-1)
    ii, jj, dist = ii[~near], jj[~near], dist[~near]
    # path[f, i, j - 1] = s_i + ... + s_{j-1}, summed from s_i on (the
    # zeros before it add exactly): a difference of prefix sums could
    # cancel below the pair it bounds, which no relative margin covers
    k = np.arange(ny - 1)
    steps = np.where(k >= k[:, None], step[:, None, :], 0.0)
    path = np.cumsum(steps, axis=-1)[:, ii, jj - 1]
    bound = _widened(path ** 2, dist)

    def quotient(f, p):
        pair_sq = _pair_sq(zip(rows[:, f, jj[p]], rows[:, f, ii[p]]))
        return np.sqrt(np.max(pair_sq, axis=-1)) / dist[p]

    return _prune_rounds(bound, semi, quotient)


def _shift_distance(L, n):
    """Periodic distance of the shift classes s = 1..n/2 of torus_nodes."""
    return np.arange(1, n // 2 + 1) * (L / n)


def holder_seminorm(f, gamma, evaluator=None):
    """Exact max over node pairs of ||f(x)-f(y)||_E / |x-y|_per^gamma.

    Degenerate pairs (coincident nodes) are excluded.  Returns the
    seminorm as a float.  The lines are the weights of the evaluator (one
    plain line without one), and only the lines whose bound exceeds the
    running maximum take the exact pass (see the module docstring).
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    vals = f.values
    w = vals[:, None, :] if evaluator is None else evaluator.weighted(vals)
    lines = _components(w, 0)                       # (C, weights, n)
    dist = _shift_distance(f.L, f.nx) ** gamma
    if lines.shape[1] == 1:
        return float(_torus_line_quotient(lines, dist)[0])
    bound = _weight_line_bound(vals, dist, evaluator)
    semi = _prune_rounds(bound[None], np.zeros(1),
                         lambda rows, cols: _torus_line_quotient(
                             lines[:, cols], dist))
    return float(semi[0])


def _ck_alpha_norm(f, k, alpha, evaluator):
    """C^{k+alpha} norm: the sups of the derivatives 0..k, summed in that
    order, plus the alpha-seminorm of the k-th derivative."""
    derivs = np.stack([f.deriv(order) for order in range(k + 1)])
    # per-node E-norms: Euclidean, or the interpolation norm if given
    norms = (np.linalg.norm(derivs, axis=-1) if evaluator is None
             else evaluator.of_values(derivs))
    total = sum(map(float, np.max(norms, axis=-1)))
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


def trace_parts(values, L, alpha):
    """(sup, alpha-seminorm) of a periodic trace: the two measurements its
    mu-scaled norm trace_xnorm combines."""
    f = SampledFunction(L, values)
    return float(_sup_norm(f.values)), holder_seminorm(f, alpha)


def trace_xnorm(parts, alpha, mu):
    """mu-scaled Hölder norm sup + mu^(-alpha) seminorm from its parts
    (sup, seminorm), mu below 1 taken as 1: of a periodic trace from its
    trace_parts, or of the strip fields of scaled_field_norm."""
    sup, semi = parts
    return sup + semi / max(float(mu), 1.0) ** alpha


def _sup_norm(field):
    """Largest Euclidean norm of the (..., m) samples of one field.

    The squares of one component at a time are summed, and one square
    root is taken, of their maximum: sqrt is monotone and correctly
    rounded, so this is bit for bit the maximum of np.linalg.norm over the
    last axis, whose reduction over the short component axis cost most of
    its time (0.7 against 0.3 ms on six complex 128 x 40 fields at m = 2).
    """
    sq = sum((v.conj() * v).real for v in np.moveaxis(field, -1, 0))
    return np.sqrt(np.max(sq))


def scaled_field_norm(values, y, L, alpha, mu):
    """Parameter-graded Hölder norm of strip fields.

    values is (..., nx, ny, m) on torus_nodes(L, nx) x y; the result has
    the leading shape, one norm per field.  Each norm is the sup-norm plus
    mu^(-alpha) times the larger of the directional alpha-seminorms in x
    (periodic, by shift class) and y (straight line, the pairs i < j).  The
    mu weight makes the family of norms uniform in the zeroth-order
    parameter: a bare seminorm would let smooth-but-large-gradient fields
    dominate as mu grows even though the elliptic estimates hold uniformly.

    The y-seminorm goes first (_y_seminorm) and seeds each field's running
    maximum for the x-lines, and both skip the pairs and lines their bounds
    rule out (see the module docstring), so the norms are exactly those of
    the pass over every pair.
    """
    values = as_inexact(values)
    batch, (nx, ny) = values.shape[:-3], values.shape[-3:-1]
    sup = np.reshape([_sup_norm(f) for f in values.reshape(-1, nx, ny,
                                                           values.shape[-1])],
                     batch)
    comps = _components(values, -3)                # (C, ..., ny, nx)
    semi = _y_seminorm(comps.reshape(comps.shape[0], -1, ny, nx), y, alpha)
    # x: the (field, y) lines, visited only where the bound can still reach
    # the field's running maximum
    lines = comps.reshape(comps.shape[0], -1, nx)
    dist = _shift_distance(L, nx) ** alpha
    bound = _torus_line_bound(lines, dist).reshape(-1, ny)
    _prune_rounds(bound, semi, lambda rows, cols: _torus_line_quotient(
        lines[:, rows * ny + cols], dist))
    return trace_xnorm((sup, semi.reshape(batch)), alpha, mu)


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
    def from_norms(cls, entries):
        """The report of (mu, data_index, lhs, rhs) entries, one row each
        with its ratio lhs / rhs, kept in data-major order: each datum's mu
        sweep together, in the order it was measured.  A NaN ratio makes
        max_ratio and mu_spread NaN."""
        rows = sorted((CoercivityRow(float(mu), data_index, float(lhs),
                                     float(rhs), float(lhs / rhs))
                       for mu, data_index, lhs, rhs in entries),
                      key=lambda r: r.data_index)
        spreads = []
        for idx in {r.data_index for r in rows}:
            rs = [r.ratio for r in rows if r.data_index == idx]
            spreads.append(np.max(rs) / np.min(rs))
        return cls(rows=rows, max_ratio=float(np.max([r.ratio for r in rows])),
                   mu_spread=float(np.max(spreads)))


def _probe_report(data, A, L, alpha, mu_list, solutions):
    """The CoercivityReport of a coercivity probe of the (nx, m) Dirichlet
    data on the torus of period L.

    Dirichlet data live in the A-graded second-order trace space:
        mu^2 |psi|_{alpha,mu} + mu |psi'|_{alpha,mu} + |psi''|_{alpha,mu}
            + |psi A^T|_{alpha,mu},
    each term a trace_xnorm, mu-graded x-derivatives plus the
    coupling-operator part, so the probe ratio carries the same currencies
    on both sides.  The grading matches the solution-side weights of the
    coercive estimates, which is what keeps probe ratios flat in mu.  mu
    enters only through the grading, so each datum's four (sup, seminorm)
    pairs are measured once and graded per mu.

    solutions yields (y, fields) per (mu, datum), mu-major: fields is the
    (6, nx, ny, m) stack u, u_x, u_xx, u_xy, u_yy, u A^T of the datum's
    solution at mu on the depths y, measured in one scaled_field_norm call
    and weighted mu^2, mu, 2, 2, 1, 1.  It is drawn one (mu, datum) at a
    time, after every datum is measured.  An empty data or mu_list, or a
    mu that is not nonnegative and finite, raises ValueError, and a datum
    whose norm is not positive and finite at some mu (a zero datum, say)
    has no ratio and raises SpectralValidationError naming its index, both
    before the first solution is drawn.
    """
    if (len(data) == 0 or len(mu_list) == 0
            or not all(0.0 <= mu < np.inf for mu in mu_list)):  # NaN-safe
        raise ValueError(
            f"a coercivity probe needs a datum and nonnegative, finite mu, "
            f"got {len(data)} data and mu_list = {mu_list}")
    data_norms = []
    for index, psi in enumerate(data):
        f = SampledFunction(L, psi)
        parts = [trace_parts(v, L, alpha)
                 for v in (f.deriv(0), f.deriv(1), f.deriv(2), psi @ A.T)]
        row = []
        for mu in mu_list:
            norm = sum(w * trace_xnorm(p, alpha, mu) for w, p in
                       zip((float(mu) ** 2, float(mu), 1.0, 1.0), parts))
            if not 0.0 < norm < np.inf:             # NaN-safe comparison
                raise SpectralValidationError(
                    f"coercivity probe datum {index} has graded norm "
                    f"{norm:.3g} at mu = {mu}: the ratio needs a positive, "
                    f"finite data norm (alpha = {alpha})")
            row.append(norm)
        data_norms.append(row)
    entries = []
    for mu, rhs_row in zip(mu_list, zip(*data_norms)):
        for index, rhs in enumerate(rhs_row):
            y, fields = next(solutions)
            norms = scaled_field_norm(fields, y, L, alpha, mu)
            lhs = sum(w * n for w, n in zip((mu ** 2, mu, 2.0, 2.0, 1.0, 1.0),
                                            norms))
            entries.append((mu, index, lhs, rhs))
    return CoercivityReport.from_norms(entries)

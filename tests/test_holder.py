"""Periodic Hölder norms on sampled traces."""

import numpy as np
import pytest

import stripflow.holder as holder
from stripflow.geometry import InterfaceProfile
from stripflow.grids import cheb_lobatto_01, random_trace, torus_nodes
from stripflow.holder import (
    SampledFunction,
    _components,
    _pair_sq,
    _shift_distance,
    _torus_pair_sq,
    _weight_line_bound,
    h1alpha_norm,
    h2alpha_norm,
    holder_seminorm,
    scaled_field_norm,
    spectral_derivative,
    trace_xnorm,
)
from stripflow.operator_core import InterpNormEvaluator, SectorialOperator

L = 16 * np.pi


def sampled(values):
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    return SampledFunction(L, arr)


def cos_mode(nx, k=1, amp=1.0):
    x = np.arange(nx) * (L / nx)
    return amp * np.cos(2 * np.pi * k * x / L)


def sup_norm(f):
    return float(np.max(np.linalg.norm(f.values, axis=-1)))


def holder_norm(f, gamma):
    """The plain C^gamma norm: sup plus seminorm."""
    return sup_norm(f) + holder_seminorm(f, gamma)


def test_constant_has_zero_seminorm():
    f = sampled(np.full(64, 3.0))
    assert holder_seminorm(f, 0.5) == pytest.approx(0.0, abs=1e-14)
    assert sup_norm(f) == pytest.approx(3.0, rel=1e-13)
    assert holder_norm(f, 0.5) == pytest.approx(3.0, rel=1e-12)


def test_zero_function():
    f = sampled(np.zeros(64))
    assert holder_norm(f, 0.5) == 0.0
    assert h1alpha_norm(f, 0.5) == 0.0
    assert h2alpha_norm(f, 0.5) == 0.0


def test_homogeneity():
    f = sampled(cos_mode(64, 2))
    g = sampled(5.0 * cos_mode(64, 2))
    for norm in (lambda u: holder_norm(u, 0.5),
                 lambda u: h1alpha_norm(u, 0.5),
                 lambda u: h2alpha_norm(u, 0.5)):
        assert norm(g) == pytest.approx(5.0 * norm(f), rel=1e-11)


def test_translation_invariance():
    vals = cos_mode(128, 3) + 0.2 * cos_mode(128, 5)
    f = sampled(vals)
    g = sampled(np.roll(vals, 17))
    assert h1alpha_norm(f, 0.5) == pytest.approx(h1alpha_norm(g, 0.5),
                                                 rel=1e-10)


def test_triangle_inequality():
    f_vals = cos_mode(64, 1)
    g_vals = 0.3 * cos_mode(64, 4)
    lhs = holder_norm(sampled(f_vals + g_vals), 0.5)
    rhs = (holder_norm(sampled(f_vals), 0.5)
           + holder_norm(sampled(g_vals), 0.5))
    assert lhs <= rhs + 1e-12


def test_first_order_norm_decomposition():
    """h1alpha(f) is sup(f) plus the plain Hölder norm of f'."""
    f = sampled(cos_mode(64, 2, amp=0.7))
    d1 = sampled(spectral_derivative(f.values, L, 1))
    expected = sup_norm(f) + holder_norm(d1, 0.5)
    assert h1alpha_norm(f, 0.5) == pytest.approx(expected, rel=1e-12)


def test_seminorm_scales_with_exponent():
    # |cos(kx)| differences over distance d behave like d for small d, so a
    # smaller gamma (dividing by d^gamma > d) gives a smaller seminorm when
    # the sup is attained at separations below 1.
    f = sampled(cos_mode(256, 8))
    s_low = holder_seminorm(f, 0.25)
    s_high = holder_seminorm(f, 0.75)
    assert s_low > 0 and s_high > 0


def test_spectral_derivative_of_sine():
    nx = 64
    x = np.arange(nx) * (L / nx)
    k = 2 * np.pi * 3 / L
    vals = np.sin(k * x).astype(complex)[:, None]
    d = spectral_derivative(vals, L, 1)
    assert np.allclose(d[:, 0], k * np.cos(k * x), atol=1e-12)
    d2 = spectral_derivative(vals, L, 2)
    assert np.allclose(d2[:, 0], -k * k * np.sin(k * x), atol=1e-11)


@pytest.mark.parametrize("order", [1, 2])
def test_real_spectral_derivative_matches_complex_path(order):
    """Real samples go through rfft/irfft and come back real, equal to the
    full complex transform; an odd order zeroes the Nyquist mode there too."""
    nx = 64
    x = np.arange(nx) * (L / nx)
    rng = np.random.default_rng(order)
    smooth = np.stack([np.sin(2 * np.pi * 3 * x / L),
                       np.cos(2 * np.pi * 5 * x / L + 0.3)], axis=1)
    nyquist = np.cos(np.pi * np.arange(nx))[:, None]
    vals = smooth + 0.1 * rng.standard_normal((nx, 2)) + 0.5 * nyquist
    got = spectral_derivative(vals, L, order)
    want = spectral_derivative(vals.astype(complex), L, order)
    assert not np.iscomplexobj(got)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    d_nyq = spectral_derivative(nyquist, L, order)
    if order % 2:
        assert np.max(np.abs(d_nyq)) <= 1e-12
    else:
        k_nyq = np.pi * nx / L
        assert np.allclose(d_nyq, -k_nyq ** 2 * nyquist, rtol=1e-12, atol=0)


def from_callable(L, nx, func):
    """Samples of func at torus_nodes(L, nx)."""
    return SampledFunction(L, func(torus_nodes(L, nx)))


def test_from_callable_matches_manual():
    f = from_callable(L, 64, lambda x: np.cos(2 * np.pi * x / L))
    manual = sampled(cos_mode(64, 1))
    assert np.allclose(f.values, manual.values)


def test_coupled_norm_uses_interpolation_grading():
    """With A supplied, the trace norm measures components through the
    fractional-power grading rather than plain sup; it still scales linearly."""
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]))
    vals = np.stack([cos_mode(64, 1), 0.5 * cos_mode(64, 2)], axis=1)
    f = SampledFunction(L, vals.astype(complex))
    evaluator = InterpNormEvaluator(A, 0.5)
    n = h1alpha_norm(f, 0.5, evaluator=evaluator)
    assert np.isfinite(n) and n > 0
    g = SampledFunction(L, 3.0 * vals.astype(complex))
    assert h1alpha_norm(g, 0.5, evaluator=evaluator) == pytest.approx(
        3.0 * n, rel=1e-10)


def _pair_norm(u, evaluator):
    if evaluator is None:
        return np.sqrt(np.sum(np.abs(u) ** 2))
    return max(np.sqrt(np.sum(np.abs(W @ u) ** 2)) for W in evaluator.weights)


def _brute_seminorm(vals, dist, gamma, evaluator=None):
    """Per-pair loop reference: the max ratio over node pairs."""
    best = 0.0
    n = vals.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                r = _pair_norm(vals[i] - vals[j], evaluator) / dist[i, j] ** gamma
                best = max(best, r)
    return best


def _check_pair_kernels(nx, ny, m, graded, wave=0.0):
    """holder_seminorm and scaled_field_norm against an explicit loop over
    node pairs.  wave is the amplitude of an added cos(2 pi x / L)."""
    rng = np.random.default_rng(5 + m)
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])[:m, :m])
    evaluator = (InterpNormEvaluator(A, 0.5)
                 if graded else None)
    vals = (rng.standard_normal((nx, m)) + 1j * rng.standard_normal((nx, m))
            + wave * cos_mode(nx)[:, None])
    f = sampled(vals)
    x = f.x
    d = np.abs(x[:, None] - x[None, :])
    semi = _brute_seminorm(vals, np.minimum(d, L - d), 0.5, evaluator)
    assert holder_seminorm(f, 0.5, evaluator) == pytest.approx(semi, rel=1e-14)
    if graded:
        return
    field = (rng.standard_normal((nx, ny, m))
             + 1j * rng.standard_normal((nx, ny, m))
             + wave * cos_mode(nx)[:, None, None])
    y = np.linspace(0.0, 1.0, ny) ** 2
    mu = 3.0
    semi_x = max(_brute_seminorm(field[:, c], np.minimum(d, L - d), 0.5)
                 for c in range(ny))
    semi_y = max(_brute_seminorm(field[r], np.abs(y[:, None] - y[None, :]),
                                 0.5) for r in range(nx))
    expected = (np.max(np.linalg.norm(field, axis=-1))
                + max(semi_x, semi_y) / mu ** 0.5)
    assert scaled_field_norm(field, y, L, 0.5, mu) == pytest.approx(
        expected, rel=1e-14)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("graded", [False, True])
def test_pair_kernels_match_per_pair_loop(m, graded):
    _check_pair_kernels(32, 9, m, graded)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("graded", [False, True])
def test_pair_kernels_match_loop_on_four_nodes(m, graded):
    """At nx = 4 the farthest shift class (s = 2) holds each of its pairs
    twice, as (i, i+2) and (i+2, i).  The added wave [10, 0, -10, 0] puts
    the maximum in that class."""
    _check_pair_kernels(4, 5, m, graded, wave=10.0)


@pytest.mark.parametrize("graded", [False, True])
def test_witness_is_first_pair_among_exact_ties(graded):
    """A two-level square wave jumps twice, between nodes 7 and 8 and
    across the period between 15 and 0: both neighbour pairs reach the
    maximum exactly, which is the jump over one node spacing."""
    nx = 16
    wave = np.where(np.arange(nx) < nx // 2, 1.0, -1.0)
    f = sampled(np.stack([wave, 0.5 * wave], axis=1))
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]))
    evaluator = InterpNormEvaluator(A, 0.5) if graded else None
    jump = np.array([2.0, 1.0])
    norm = (np.linalg.norm(jump) if evaluator is None
            else float(evaluator.of_values(jump)))
    assert holder_seminorm(f, 0.5, evaluator) == pytest.approx(
        norm / (L / nx) ** 0.5, rel=1e-14)


def test_constant_witness_is_first_pair():
    """Every pair of a constant ties at 0, so the seminorm is exactly 0."""
    f = sampled(np.full(8, 2.0))
    assert holder_seminorm(f, 0.5) == 0.0


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("graded", [False, True])
def test_ck_alpha_norms_are_the_explicit_sums(real, m, graded):
    """h1alpha_norm and h2alpha_norm equal, bit for bit, the sups of the
    derivatives 0..k summed in that order plus the seminorm of the k-th."""
    rng = np.random.default_rng(11 + m)
    vals = rng.standard_normal((32, m))
    if not real:
        vals = vals + 1j * rng.standard_normal((32, m))
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])[:m, :m])
    evaluator = InterpNormEvaluator(A, 0.5) if graded else None

    def sup(v):
        return float(np.max(np.linalg.norm(v, axis=-1) if evaluator is None
                            else evaluator.of_values(v)))

    f = SampledFunction(L, vals)
    for k, norm in ((1, h1alpha_norm), (2, h2alpha_norm)):
        derivs = [vals] + [spectral_derivative(vals, L, j)
                           for j in range(1, k + 1)]
        expected = 0.0
        for d in derivs:
            expected += sup(d)
        expected += holder_seminorm(SampledFunction(L, derivs[-1]), 0.5,
                                    evaluator)
        assert norm(f, 0.5, evaluator=evaluator) == expected


def test_h2alpha_norm_measures_each_derivative_once(monkeypatch):
    """With an evaluator, h2alpha_norm takes the interpolation norms of g,
    g' and g'' in one of_values call.  A profile, the SampledFunction of
    its g whose g_x and g_xx are computed at construction, is measured
    with no spectral_derivative call of its own and has the norm of a
    fresh SampledFunction of g bit for bit."""
    evaluator = InterpNormEvaluator(
        SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])), 0.5)
    of_values, calls = evaluator.of_values, []

    def counted(values):
        calls.append(values.shape)
        return of_values(values)

    evaluator.of_values = counted
    p = InterfaceProfile(1.0, L, np.stack([0.1 * cos_mode(32, 1),
                                           0.2 * cos_mode(32, 3)], axis=1))
    want = h2alpha_norm(SampledFunction(L, p.g), 0.5, evaluator=evaluator)
    assert calls == [(3, 32, 2)]
    monkeypatch.setattr(holder, "spectral_derivative", None)
    assert h2alpha_norm(p, 0.5, evaluator=evaluator) == want


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("graded", [False, True])
def test_real_samples_measure_as_their_complex_cast(m, graded):
    """Real samples take the real path (m pair components, real weights),
    and every norm equals, bit for bit, its value on the same samples cast
    to complex.  The complex copy of h2alpha_norm's function is given the
    real derivatives, since a complex FFT differs from rfft in the last
    bit; only the norm kernels are compared."""
    rng = np.random.default_rng(5 + m)
    vals = rng.standard_normal((32, m))
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]])[:m, :m])
    evaluator = InterpNormEvaluator(A, 0.5) if graded else None
    f = SampledFunction(L, vals)
    fc = SampledFunction(L, vals.astype(complex))
    fc._derivs = {k: f.deriv(k).astype(complex) for k in range(3)}
    assert h2alpha_norm(f, 0.5, evaluator) == h2alpha_norm(fc, 0.5, evaluator)
    assert (trace_xnorm(vals, L, 0.5, 4.0)
            == trace_xnorm(vals.astype(complex), L, 0.5, 4.0))
    fields = rng.standard_normal((2, 32, 9, m))
    y = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(scaled_field_norm(fields, y, L, 0.5, 4.0),
                          scaled_field_norm(fields.astype(complex), y, L,
                                            0.5, 4.0))


NX, NY = 32, 9


def _exhaustive_field_parts(values, y, alpha):
    """sup, the per-class x-quotients (..., NX/2) and the y-quotients of
    every pair i < j in triu_indices order (..., NY (NY - 1) / 2) of strip
    fields, with _torus_pair_sq taken over every x-line."""
    batch, (nx, ny) = values.shape[:-3], values.shape[-3:-1]
    sup = np.max(np.linalg.norm(values, axis=-1), axis=(-2, -1))
    comps = _components(values, -3)
    lines = comps.reshape(comps.shape[0], -1, nx)
    cls_sq = np.concatenate([np.max(block, axis=-2)
                             for block in _torus_pair_sq(lines)])
    cls_sq = np.max(cls_sq.reshape(batch + (ny, nx // 2)), axis=-2)
    cls = np.sqrt(cls_sq) / _shift_distance(L, nx) ** alpha
    ii, jj = np.triu_indices(ny, 1)
    pair_sq = np.max(_pair_sq(zip(comps[..., jj, :], comps[..., ii, :])),
                     axis=-1)
    return sup, cls, np.sqrt(pair_sq) / np.abs(y[jj] - y[ii]) ** alpha


def _pruning_case(name):
    """(fields, y, alpha) of one case: (B, NX, NY, m) fields."""
    rng = np.random.default_rng(17)
    x = torus_nodes(L, NX)
    y = np.linspace(0.0, 4.0, NY)
    cos1 = np.cos(2 * np.pi * x / L)
    if name == "largest shift class":
        # a dipole, +c at node 0 and -c at node NX/2, with c growing along
        # y: at alpha = 0.1 each line's largest quotient is its pair across
        # half the period, and the bound skips only some of the lines
        dipole = np.zeros(NX)
        dipole[0], dipole[NX // 2] = 1.0, -1.0
        return np.outer(dipole, 1.0 + y)[None, :, :, None], y, 0.1
    if name == "spike line":
        # one node of one line spikes, abruptly in y in the first field and
        # under a smooth y-envelope in the second
        spike = np.zeros((NX, NY))
        spike[7, 4] = 3.0
        smooth = np.outer(np.eye(NX)[7], 3.0 * np.exp(-(y - 2.0) ** 2))
        fields = np.stack([spike, smooth])[..., None]
        return fields + 1e-3 * rng.standard_normal(fields.shape), y, 0.5
    if name == "ties":
        # one complex line on every y, so every line ties, in two fields
        line = (rng.standard_normal((NX, 2))
                + 1j * rng.standard_normal((NX, 2)))
        field = np.repeat(line[:, None, :], NY, axis=1)
        return np.stack([field, -field]), y, 0.5
    if name == "constant":
        return np.full((2, NX, NY, 2), 2.0), y, 0.5
    if name == "seam jump":
        # a sawtooth: neighbour steps of 1/NX inside the line and a jump of
        # 31/32 from node NX-1 back to node 0; the bound must see the jump
        saw = np.arange(NX) / NX
        return np.outer(saw, 1.0 + y / 4.0)[None, :, :, None], y, 0.5
    if name in ("x just above y", "x just below y"):
        # cos(2 pi x / L) + b y: every x-line has the same quotient, and
        # b puts the y-seminorm (2b) within 1e-13 of it, inside the margin
        _, cls, _ = _exhaustive_field_parts(
            np.repeat(cos1[None, :, None, None], NY, axis=2), y, 0.5)
        rel = -1e-13 if name == "x just above y" else 1e-13
        b = 0.5 * np.max(cls) * (1.0 + rel)
        field = cos1[:, None] + b * y[None, :]
        return field[None, :, :, None], y, 0.5
    if name == "non-finite":
        fields = rng.standard_normal((2, NX, NY, 2))
        fields[0, 5, 3, 1] = np.nan
        return fields, y, 0.5
    if name == "subnormal squares":
        # differences of about 1e-162, whose squares lose bits in the
        # subnormal range
        amp = 1e-162 * rng.uniform(0.5, 1.0, (4, 1, NY, 1))
        fields = amp * (np.cos(2 * np.pi * 3 * x / L)[None, :, None, None]
                        + 1e-3 * rng.standard_normal((4, NX, NY, 1)))
        return fields, y, 0.5
    # the y cases: fields that vary little or not at all in x, so that the
    # y-pairs decide the norm
    flat = 1e-3 * cos1[None, :, None, None]
    if name == "widest y pair":
        # a ramp in y: at alpha = 0.5 the quotient grows with the distance,
        # so the maximum is the pair (0, NY - 1), whose bound is tight
        return flat + y[None, None, :, None] * np.ones((2, 1, 1, 2)), y, 0.5
    if name == "spike row":
        # one row lifted at one node, on a smooth background
        fields = 0.1 * np.sin(y)[None, None, :, None] + flat
        fields = np.repeat(fields, 2, axis=0)
        fields[0, 9, 5, 0] += 3.0
        return fields, y, 0.5
    if name == "rise and fall":
        # up and back down: the path of the pair (0, NY - 1) climbs and
        # descends, so its path bound is far above the pair itself
        bump = np.sin(np.pi * y / y[-1]) + 0.01 * y
        return (bump[None, None, :, None] + flat), y, 0.5
    if name == "chebyshev y":
        yc = 4.0 * np.cos(np.pi * np.arange(NY)[::-1] / (NY - 1)) + 4.0
        fields = (np.exp(-yc)[None, None, :, None]
                  + 0.01 * rng.standard_normal((3, 1, NY, 2)) + flat)
        return fields, yc, 0.5
    if name == "late small steps":
        # steps of 1e8 over far-apart rows, then two small collinear steps
        # late in the path: the pair (NY - 3, NY - 1) over them is the
        # maximum, and the neighbour pair (0, 1) comes within 1e-10 below
        # it.  The steps before the pair sum to about 8e8, so the pair's
        # path taken as a difference of prefix sums loses about 3e-10 and
        # no longer bounds the pair
        yl = np.array([0.5, 0.5 + 1e-6, 1e12, 2e12, 3e12, 4e12,
                       0.0, 1e-6, 2e-6])
        a = 100.0 + np.pi
        col = np.array([0.0, 0.0, 1e8, -1e8, 1e8, -1e8, 0.0, a, 2.0 * a])
        top = np.max(_exhaustive_field_parts(
            col[None, None, :, None] + np.zeros((NX, 1, 1)), yl, 0.5)[2])
        col[1] = top * (1.0 - 1e-10) * (yl[1] - yl[0]) ** 0.5
        return col[None, None, :, None] + np.zeros((1, NX, 1, 1)), yl, 0.5
    assert name == "non-finite y-line"
    fields = np.repeat(np.sin(y)[None, None, :, None] + flat, 2, axis=0)
    fields[0, 3, 6, 0] = np.nan
    return fields, y, 0.5


@pytest.mark.parametrize("name", [
    "largest shift class", "spike line", "ties", "constant", "seam jump",
    "x just above y", "x just below y", "non-finite", "subnormal squares",
    "widest y pair", "spike row", "rise and fall", "chebyshev y",
    "late small steps", "non-finite y-line"])
def test_pruned_field_norm_equals_every_line_pass(name):
    """scaled_field_norm skips the x-lines and the y-pairs its bounds rule
    out; the norms equal, bit for bit, those with the exact pair pass over
    every line and every pair."""
    fields, y, alpha = _pruning_case(name)
    mu = 3.0
    sup, cls, y_pairs = _exhaustive_field_parts(fields, y, alpha)
    semi_x = np.max(cls, axis=-1)
    semi_y = np.max(y_pairs, axis=-1)
    want = sup + np.maximum(semi_x, semi_y) / mu ** alpha
    got = scaled_field_norm(fields, y, L, alpha, mu)
    assert np.array_equal(got, want, equal_nan=True)
    # each case is what its name says
    if name == "largest shift class":
        assert np.argmax(cls[0]) == NX // 2 - 1 and semi_x[0] > semi_y[0]
    elif name == "seam jump":
        assert np.argmax(cls[0]) == 0 and semi_x[0] > semi_y[0]
    elif name == "x just above y":
        assert 1.0 < semi_x[0] / semi_y[0] < 1.0 + 1e-12
    elif name == "x just below y":
        assert 1.0 - 1e-12 < semi_x[0] / semi_y[0] < 1.0
    elif name in ("non-finite", "non-finite y-line"):
        assert np.isnan(got[0]) and np.isfinite(got[1])
    if name in ("widest y pair", "spike row", "rise and fall", "chebyshev y",
                "late small steps"):
        assert np.all(semi_y > semi_x)
        ii, jj = np.triu_indices(len(y), 1)
        top = np.argmax(y_pairs, axis=-1)
        if name == "widest y pair":
            assert np.all(ii[top] == 0) and np.all(jj[top] == NY - 1)
        elif name == "late small steps":
            assert (ii[top], jj[top]) == (NY - 3, NY - 1)
            near = y_pairs[0, jj == ii + 1]
            assert 1.0 - 2e-10 < np.max(near) / y_pairs[0, top] < 1.0
        elif name != "spike row":
            # the maximum is a pair the neighbour steps do not seed
            assert np.all(jj[top] > ii[top] + 1)
    if name == "rise and fall":
        steps = np.abs(np.diff(fields[0, 0, :, 0]))
        assert np.sum(steps) > 10 * abs(fields[0, 0, -1, 0]
                                         - fields[0, 0, 0, 0])


def _every_line_seminorm(f, gamma, evaluator):
    """holder_seminorm with _torus_pair_sq over every weight line: the
    class maxima over every node and weight, then the largest quotient."""
    w = (f.values[:, None, :] if evaluator is None
         else evaluator.weighted(f.values))
    cls_sq = np.max([np.max(block, axis=(0, 1))
                     for block in _torus_pair_sq(_components(w, 0))], axis=0)
    return float(np.max(np.sqrt(cls_sq)
                        / _shift_distance(f.L, f.nx) ** gamma))


def _seminorm_case(name):
    """(samples, coupling matrix) of one holder_seminorm case."""
    rng = np.random.default_rng(23)
    if name == "m = 1":
        # a scalar A: the 36 weight lines are multiples of one line
        return random_trace(rng, NX, 1).real, [[2.0]]
    if name == "jordan":
        return random_trace(rng, NX, 2), [[1.0, 1.0], [0.0, 1.0]]
    if name == "spike":
        vals = np.zeros((NX, 2))
        vals[7] = [3.0, -1.0]
        return vals, [[2.0, 0.5], [0.0, 1.0]]
    if name == "near constant":
        # within two ulps of a constant: the weighted samples' rounding
        # sets the seminorm of every weight line
        rng = np.random.default_rng(4)
        c = rng.uniform(0.5, 2.0, 2)
        eps = np.finfo(float).eps
        return (c * (1.0 + eps * rng.integers(-2, 3, (NX, 2))),
                [[2.0, 0.5], [0.0, 1.0]])
    assert name == "constant"
    return np.full((NX, 2), 2.0), [[2.0, 0.5], [0.0, 1.0]]


def _near_constant_lines(m, A, count=100):
    """count seeded (samples, coupling matrix) cases within two ulps of a
    constant of magnitude 1e-3 to 1e3: every weight line's seminorm is set
    by the rounding of the weighted samples, which the bound from the
    unweighted line must cover."""
    rng = np.random.default_rng(m)
    eps = np.finfo(float).eps
    for _ in range(count):
        c = rng.uniform(0.5, 2.0, m) * 10.0 ** rng.uniform(-3, 3)
        yield c * (1.0 + eps * rng.integers(-2, 3, (NX, m))), A


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("name", ["m = 1", "jordan", "spike", "constant",
                                  "near constant", "near constant lines"])
def test_pruned_seminorm_equals_every_line_pass(name, graded):
    """holder_seminorm skips the weight lines its bounds rule out; the
    seminorm equals, bit for bit, the class maximum over every line,
    with an m = 1 and an m = 2 evaluator on the near-constant lines."""
    cases = ([*_near_constant_lines(1, [[2.0]]),
              *_near_constant_lines(2, [[2.0, 0.5], [0.0, 1.0]])]
             if name == "near constant lines" else [_seminorm_case(name)])
    for vals, A in cases:
        evaluator = (InterpNormEvaluator(SectorialOperator(np.array(A)), 0.5)
                     if graded else None)
        if graded:
            assert evaluator.weights.shape[0] == 36
        f = SampledFunction(L, vals)
        got = holder_seminorm(f, 0.5, evaluator)
        assert got == _every_line_seminorm(f, 0.5, evaluator)
        assert (got == 0.0) == (name == "constant")


def test_pruned_seminorm_visits_a_tight_line_after_a_loose_one():
    """Two weight lines: a sine and a square wave 0.5 % above it (both
    reach their jump over one node).  Both weights have norm 1, so both
    bounds are the class maxima of the unweighted samples.  The square
    wave jumps where the sine is flat, so it sets them: the bound is loose
    for the sine and tight for the square wave.  The sine goes first, and
    the square wave's bound must still exceed the sine's quotient: a bound
    1 % low would skip it."""
    evaluator = InterpNormEvaluator(SectorialOperator(np.eye(2)), 0.5)
    sine = np.sin(2 * np.pi * torus_nodes(L, NX) / L)
    # a call before the weights are replaced keeps the old weights' norms;
    # the bound must follow the new weights
    holder_seminorm(SampledFunction(L, np.stack([sine, sine], axis=1)), 0.5,
                    evaluator)
    evaluator.weights = np.array([[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [0.0, 1.0]]])
    assert np.array_equal(evaluator.weight_norms()[0], [1.0, 1.0])
    q_sine = holder_seminorm(SampledFunction(L, sine), 0.5)
    # jumps at the sine's extrema, x = L/4 and 3L/4
    square = np.where((np.arange(NX) - NX // 4) % NX < NX // 2, 1.0, -1.0)
    square *= 1.005 * q_sine / holder_seminorm(SampledFunction(L, square),
                                               0.5)
    f = SampledFunction(L, np.stack([sine, square], axis=1))
    dist = _shift_distance(L, NX) ** 0.5
    bound = _weight_line_bound(f.values, dist, evaluator)
    assert bound[0] == bound[1] > 1.005 * q_sine > 0.995 * bound[1]
    got = holder_seminorm(f, 0.5, evaluator)
    assert got == _every_line_seminorm(f, 0.5, evaluator)
    assert got > q_sine


def test_nan_field_drops_out_of_the_pruning_rounds(monkeypatch):
    """A field whose running maximum is NaN keeps it NaN whatever is
    visited, so its pairs and lines are not visited: one NaN sample in one
    of six fields adds no pruning round, and the other fields' norms are
    unchanged."""
    rounds, prune = [], holder._prune_rounds

    def counted(bound, semi, quotient):
        def one_round(rows, cols):
            rounds[-1] += 1
            return quotient(rows, cols)
        rounds.append(0)
        return prune(bound, semi, one_round)
    monkeypatch.setattr(holder, "_prune_rounds", counted)
    rng = np.random.default_rng(3)
    re, im = rng.standard_normal((2, 6, 128, 40, 2))
    fields = re + 1j * im
    y = cheb_lobatto_01(40)[0]
    clean = scaled_field_norm(fields, y, L, 0.5, 3.0)
    clean_rounds = sum(rounds)
    fields[2, 17, 11, 1] = np.nan
    got = scaled_field_norm(fields, y, L, 0.5, 3.0)
    assert sum(rounds) - clean_rounds <= clean_rounds
    assert np.isnan(got[2])
    assert np.array_equal(np.delete(got, 2), np.delete(clean, 2))

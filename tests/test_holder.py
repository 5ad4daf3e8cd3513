"""Periodic Hölder norms on sampled traces."""

import numpy as np
import pytest

from stripflow.grids import torus_nodes
from stripflow.holder import (
    SampledFunction,
    h1alpha_norm,
    h2alpha_norm,
    holder_seminorm,
    scaled_field_norm,
    spectral_derivative,
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


def test_constant_has_zero_seminorm():
    f = sampled(np.full(64, 3.0))
    rep = holder_seminorm(f, 0.5)
    assert rep.seminorm == pytest.approx(0.0, abs=1e-14)
    assert rep.sup_norm == pytest.approx(3.0, rel=1e-13)
    assert rep.total == pytest.approx(3.0, rel=1e-12)


def test_zero_function():
    f = sampled(np.zeros(64))
    assert holder_seminorm(f, 0.5).total == 0.0
    assert h1alpha_norm(f, 0.5) == 0.0
    assert h2alpha_norm(f, 0.5) == 0.0


def test_homogeneity():
    f = sampled(cos_mode(64, 2))
    g = sampled(5.0 * cos_mode(64, 2))
    for norm in (lambda u: holder_seminorm(u, 0.5).total,
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
    lhs = holder_seminorm(sampled(f_vals + g_vals), 0.5).total
    rhs = (holder_seminorm(sampled(f_vals), 0.5).total
           + holder_seminorm(sampled(g_vals), 0.5).total)
    assert lhs <= rhs + 1e-12


def test_first_order_norm_decomposition():
    """h1alpha(f) is sup(f) plus the plain Hölder norm of f'."""
    f = sampled(cos_mode(64, 2, amp=0.7))
    d1 = sampled(spectral_derivative(f.values, L, 1))
    expected = (holder_seminorm(f, 0.5).sup_norm
                + holder_seminorm(d1, 0.5).total)
    assert h1alpha_norm(f, 0.5) == pytest.approx(expected, rel=1e-12)


def test_seminorm_scales_with_exponent():
    # |cos(kx)| differences over distance d behave like d for small d, so a
    # smaller gamma (dividing by d^gamma > d) gives a smaller seminorm when
    # the sup is attained at separations below 1.
    f = sampled(cos_mode(256, 8))
    s_low = holder_seminorm(f, 0.25).seminorm
    s_high = holder_seminorm(f, 0.75).seminorm
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
    """Per-pair loop reference: max ratio and its first maximizing pair."""
    best, pair = 0.0, (0, 0)
    n = vals.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                r = _pair_norm(vals[i] - vals[j], evaluator) / dist[i, j] ** gamma
                if r > best:
                    best, pair = r, (i, j)
    return best, pair


def _check_pair_kernels(nx, ny, m, graded, wave=0.0):
    """holder_seminorm and scaled_field_norm against an explicit loop over
    node pairs, witness pair included.  wave is the amplitude of an added
    cos(2 pi x / L)."""
    rng = np.random.default_rng(5 + m)
    A = np.array([[2.0, 0.5], [0.0, 1.0]])[:m, :m]
    evaluator = (InterpNormEvaluator(A, 0.5)
                 if graded else None)
    vals = (rng.standard_normal((nx, m)) + 1j * rng.standard_normal((nx, m))
            + wave * cos_mode(nx)[:, None])
    f = sampled(vals)
    rep = holder_seminorm(f, 0.5, evaluator)
    x = f.grid
    d = np.abs(x[:, None] - x[None, :])
    semi, (i, j) = _brute_seminorm(vals, np.minimum(d, L - d), 0.5, evaluator)
    assert rep.seminorm == pytest.approx(semi, rel=1e-14)
    assert rep.witness_pair == (x[i], x[j])
    if graded:
        return
    field = (rng.standard_normal((nx, ny, m))
             + 1j * rng.standard_normal((nx, ny, m))
             + wave * cos_mode(nx)[:, None, None])
    y = np.linspace(0.0, 1.0, ny) ** 2
    mu = 3.0
    semi_x = max(_brute_seminorm(field[:, c], np.minimum(d, L - d), 0.5)[0]
                 for c in range(ny))
    semi_y = max(_brute_seminorm(field[r], np.abs(y[:, None] - y[None, :]),
                                 0.5)[0] for r in range(nx))
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
    maximum exactly, and the witness is the lexicographically first pair
    with p < q, (0, 15)."""
    nx = 16
    wave = np.where(np.arange(nx) < nx // 2, 1.0, -1.0)
    f = sampled(np.stack([wave, 0.5 * wave], axis=1))
    evaluator = (InterpNormEvaluator(np.array([[2.0, 0.5], [0.0, 1.0]]), 0.5)
                 if graded else None)
    rep = holder_seminorm(f, 0.5, evaluator)
    assert rep.witness_pair == (f.grid[0], f.grid[15])
    jump = np.array([2.0, 1.0])
    norm = (np.linalg.norm(jump) if evaluator is None
            else float(evaluator.of_values(jump)))
    assert rep.seminorm == pytest.approx(norm / (L / nx) ** 0.5, rel=1e-14)


def test_constant_witness_is_first_pair():
    """Every pair of a constant ties at 0; the witness is nodes 0 and 1."""
    f = sampled(np.full(8, 2.0))
    assert holder_seminorm(f, 0.5).witness_pair == (f.grid[0], f.grid[1])

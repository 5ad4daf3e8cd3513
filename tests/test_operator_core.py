"""Sectorial-operator calculus: validation and interpolation norms."""

import numpy as np
import pytest
import scipy.linalg

from stripflow.errors import SpectralValidationError
from stripflow.operator_core import (
    _T_GRID,
    InterpNormEvaluator,
    SectorialOperator,
    require_resolved_spectrum,
    validate_sectorial,
)


# ---------------------------------------------------------------- validation

def test_identity_is_sectorial():
    rep = validate_sectorial(SectorialOperator(np.array([[1.0]])))
    assert rep.passed


def test_spd_coupling_is_sectorial():
    A = SectorialOperator(np.array([[2.0, 0.5], [0.5, 3.0]]),
                          sector_angle=3 * np.pi / 4)
    rep = validate_sectorial(A)
    assert rep.passed


def test_nilpotent_block_rejected():
    A = SectorialOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    rep = validate_sectorial(A)
    assert not rep.passed


def test_negative_definite_rejected():
    rep = validate_sectorial(SectorialOperator(np.array([[-1.0]])))
    assert not rep.passed


def test_nonsymmetric_coupling_passes():
    A = SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]))
    assert validate_sectorial(A).passed


@pytest.mark.parametrize("entries", [
    [[2, 1], [0, 1]], [[2.0, 1.0], [0.0, 1.0]],
    [[2 + 0j, 1 + 0j], [0j, 1 + 0j]]])
def test_coupling_is_stored_real(entries):
    """Integer, float and zero-imaginary complex input are stored as the
    same float64 matrix."""
    A = SectorialOperator(np.array(entries))
    assert A.entries.dtype == np.float64
    assert np.array_equal(A.entries, [[2.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0])
def test_nonpositive_or_nan_bound_refused(bound):
    with pytest.raises(ValueError, match="resolvent bound must be positive"):
        SectorialOperator(np.eye(2), bound=bound)


def test_complex_coupling_refused():
    with pytest.raises(ValueError, match="coupling matrix A must be real"):
        SectorialOperator(np.array([[1.0, 1e-12j], [0.0, 1.0]]))


# -------------------------------------------------------- interpolation norm

def interp_norm(A, u, theta):
    return float(InterpNormEvaluator(A, theta).of_values(u))


def test_interp_norm_zero_vector():
    A = SectorialOperator(np.array([[1.0]]))
    assert interp_norm(A, np.zeros(1), 0.5) == 0.0


def _check_scalar_closed_form(a, theta):
    """For A = a > 0 the norm of u = 1 is the largest grid value of
    t^(1-theta) a e^(-ta).  Its continuum sup sits at t* = (1-theta)/a, and
    the 1/7-decade grid gets within 1e-3 of it from below."""
    A = SectorialOperator(np.array([[a]]))
    val = interp_norm(A, np.array([1.0]), theta)
    grid_max = np.max(_T_GRID ** (1 - theta) * a * np.exp(-a * _T_GRID))
    assert val == pytest.approx(grid_max, rel=1e-13)
    tstar = (1 - theta) / a
    sup = tstar ** (1 - theta) * a * np.exp(-(1 - theta))
    assert sup * (1 - 1e-3) <= val <= sup


def test_interp_norm_scalar_closed_form():
    _check_scalar_closed_form(1.0, 0.5)


def test_interp_norm_scalar_closed_form_generic():
    _check_scalar_closed_form(2.0, 0.25)


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_resolved_spectrum_keeps_the_grid_sup_near_the_true_sup(theta):
    """Across the moduli require_resolved_spectrum admits, the grid's sup
    is within 1 % of the continuum sup of t^(1-theta) a e^(-ta); an A with
    an eigenvalue just outside them, or a pair of complex ones, is
    refused."""
    lo, hi = (1 - theta) / _T_GRID[-1], (1 - theta) / _T_GRID[0]
    for a in np.geomspace(lo, hi, 50):
        A = SectorialOperator(np.array([[a]]))
        require_resolved_spectrum(A, theta)
        sup = a * ((1 - theta) / a) ** (1 - theta) * np.exp(-(1 - theta))
        val = interp_norm(A, np.array([1.0]), theta)
        assert 0.99 * sup <= val <= sup * (1 + 1e-13)
    for entries in ([[0.99 * lo]], [[1.01 * hi]], [[2.0, 0.0], [0.0, 1e7]],
                    [[0.0, -1.01 * hi], [1.01 * hi, 0.0]]):
        with pytest.raises(ValueError, match="eigenvalue of modulus"):
            require_resolved_spectrum(SectorialOperator(entries), theta)
    require_resolved_spectrum(
        SectorialOperator([[1.0, -0.8], [0.8, 1.0]]), theta)


def test_interp_norm_homogeneous():
    A = SectorialOperator(np.array([[2.0, 0.5], [0.5, 3.0]]))
    u = np.array([1.0, -0.4])
    assert np.isclose(interp_norm(A, 7.0 * u, 0.3),
                      7.0 * interp_norm(A, u, 0.3), rtol=1e-12)


def test_interp_norm_rejects_theta_outside_unit_interval():
    A = SectorialOperator(np.array([[1.0]]))
    for theta in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="theta"):
            InterpNormEvaluator(A, theta)


@pytest.mark.parametrize("A", [[[1.0]], [[2.0, 0.5], [0.0, 1.0]],
                               [[1.0, 1.0], [0.0, 1.0]]])
def test_evaluator_weights_match_per_t_loop(A):
    """The stacked weights equal, bit for bit, a loop of one expm per t at
    theta = 0.5, the exponent of every scenario; the Jordan block takes
    expm's non-diagonalisable path."""
    mat = np.array(A, dtype=complex)
    ref = np.empty((_T_GRID.size,) + mat.shape, dtype=complex)
    for i, t in enumerate(_T_GRID):
        ref[i] = t ** 0.5 * (mat @ scipy.linalg.expm(-t * mat))
    weights = InterpNormEvaluator(SectorialOperator(np.array(A)), 0.5).weights
    assert np.array_equal(weights, ref)


@pytest.mark.parametrize("A", [[[1.0]], [[2.0, 0.5], [0.0, 1.0]],
                               [[1.0, -0.8], [0.8, 1.0]],
                               [[1.0, 1.0], [0.0, 1.0]]])
def test_real_coupling_gives_real_weights(A):
    """For a real A, the rotation with complex eigenvalues and the Jordan
    block included, the complex-formed weights have imaginary parts exactly
    0, and the evaluator keeps their real parts as float64."""
    mat = np.array(A, dtype=complex)
    T = _T_GRID[:, None, None]
    formed = T ** 0.5 * (mat @ scipy.linalg.expm(-T * mat))
    weights = InterpNormEvaluator(SectorialOperator(np.array(A)), 0.5).weights
    assert weights.dtype == np.float64
    assert np.array_equal(weights, formed.real)


def _sectorial_loop(A):
    """Per-sample reference for validate_sectorial: the first singular
    sample, else the first maximal ratio."""
    rays = np.linspace(-A.sector_angle, A.sector_angle, 9)
    radii = np.geomspace(1e-3, 1e6, 28)
    lams = np.concatenate(
        [[0.0 + 0.0j], (radii[:, None] * np.exp(1j * rays[None, :])).ravel()])
    worst, witness = 0.0, 0.0 + 0.0j
    for lam in lams:
        sv_min = np.linalg.svd(A.entries + lam * np.eye(A.dim),
                               compute_uv=False)[-1]
        if sv_min <= 1e-14 * max(1.0, np.abs(lam)):
            return False, np.inf, lam, f"A + lambda singular at lambda={lam}"
        ratio = (1.0 + np.abs(lam)) / (sv_min * A.bound)
        if ratio > worst:
            worst, witness = ratio, lam
    msg = "" if worst <= 1.0 else (
        f"resolvent bound exceeded by factor {worst:.3g} at lambda={witness}")
    return worst <= 1.0, float(worst), witness, msg


@pytest.mark.parametrize("A", [
    [[1.0]], [[2.0, 0.5], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]],
    [[1.0, -0.8], [0.8, 1.0]], [[-1.0]], [[0.0]], np.diag([1.0, 0.0]),
    np.diag([-2.0, 1.0])])
def test_validate_sectorial_matches_per_sample_loop(A):
    """One stacked SVD gives the loop's report exactly: the first singular
    sample when there is one ([[-1]], [[0]], diag(1, 0)), else the first
    maximal ratio, passing or not (diag(-2, 1) fails the bound)."""
    op = SectorialOperator(np.array(A))
    rep = validate_sectorial(op)
    passed, worst, witness, msg = _sectorial_loop(op)
    assert (rep.passed, rep.worst_ratio, rep.witness, rep.message) == (
        passed, worst, witness, msg)


def test_validation_reports_reason():
    rep = validate_sectorial(SectorialOperator(np.array([[0.0, 1.0],
                                                         [0.0, 0.0]])))
    assert not rep.passed
    # a failed report should explain itself one way or another
    assert rep.message


def test_spectral_validation_error_available():
    assert issubclass(SpectralValidationError, Exception)

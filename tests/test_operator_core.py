"""Sectorial-operator calculus: validation, square roots, interpolation
norms."""

import numpy as np
import pytest
import scipy.linalg

from stripflow.errors import SpectralValidationError
from stripflow.operator_core import (
    _T_GRID,
    InterpNormEvaluator,
    SectorialOperator,
    matrix_sqrt,
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


# ------------------------------------------------------------------- powers

def test_matrix_sqrt_matches_frac_power():
    """The principal square root is the fractional power M^(1/2); scipy's
    Schur-based sqrtm is the independent reference."""
    M = np.array([[2.0, 0.5], [0.5, 3.0]])
    assert np.allclose(matrix_sqrt(M), scipy.linalg.sqrtm(M), atol=1e-11)


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
    assert np.array_equal(InterpNormEvaluator(np.array(A), 0.5).weights, ref)


def test_validation_reports_reason():
    rep = validate_sectorial(SectorialOperator(np.array([[0.0, 1.0],
                                                         [0.0, 0.0]])))
    assert not rep.passed
    # a failed report should explain itself one way or another
    assert rep.message


def test_spectral_validation_error_available():
    assert issubclass(SpectralValidationError, Exception)

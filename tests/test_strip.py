"""Variable-coefficient strip solver and its boundary read-outs."""

import numpy as np
import pytest

from conftest import make_profile, torus_x
from stripflow.errors import SolverError
from stripflow.geometry import coefficients
from stripflow.operator_core import SectorialOperator
from stripflow.strip import assemble, b0_trace, solve_K

L = 16 * np.pi


def test_flat_single_mode_closed_form(A1):
    """On the flat strip the solution of a single cosine mode is
    cosh(T(1-y))/cosh(T) and its boundary gradient is -T tanh(T)."""
    nx, ny = 32, 17
    p = make_profile(nx=nx, amp=0.0)
    x = torus_x(nx)
    kmode = 3
    k = 2 * np.pi * kmode / L
    mu = 2.0
    T = np.sqrt(1.0 + mu ** 2 + k ** 2)
    psi = np.cos(k * x).astype(complex)[:, None]
    fld = solve_K(p, A1, mu, psi, ny=ny)
    expected = (np.cos(k * x)[:, None]
                * (np.cosh(T * (1.0 - fld.y)) / np.cosh(T))[None, :])
    assert np.max(np.abs(fld.values[..., 0] - expected)) < 1e-10
    dtr = fld.dy_trace0()
    assert np.allclose(dtr[:, 0], -T * np.tanh(T) * np.cos(k * x), atol=1e-9)


def test_flat_boundary_readout_is_symbol(A1):
    """b0 o K on the flat strip multiplies each mode by T tanh(T)."""
    nx, ny = 64, 17
    p = make_profile(nx=nx, amp=0.0)
    x = torus_x(nx)
    mu = 4.0
    c = coefficients(p, np.zeros(1))
    for kmode in (1, 5):
        k = 2 * np.pi * kmode / L
        T = np.sqrt(1.0 + mu ** 2 + k ** 2)
        psi = np.sin(k * x).astype(complex)[:, None]
        fld = solve_K(p, A1, mu, psi, ny=ny)
        out = b0_trace(c, fld)
        assert np.allclose(out[:, 0], T * np.tanh(T) * np.sin(k * x),
                           atol=1e-8)


def test_zero_data_short_circuits(A1):
    p = make_profile(nx=32, amp=0.1)
    fld = solve_K(p, A1, 4.0, np.zeros((32, 1), dtype=complex), ny=9)
    assert np.all(fld.values == 0.0)
    assert fld.residual == 0.0


def test_solver_inverts_its_own_operator(A1):
    """Residual metadata reflects the actual discrete residual."""
    p = make_profile(nx=64, amp=0.15, mode=2)
    x = torus_x(64)
    psi = (0.3 * np.cos(2 * np.pi * x / L)).astype(complex)[:, None]
    fld = solve_K(p, A1, 4.0, psi, ny=17)
    assert fld.resolved
    assert fld.residual < 1e-9


def test_coupled_system_solve(A2):
    p = make_profile(nx=32, amp=0.1, m=2)
    x = torus_x(32)
    psi = np.stack([0.2 * np.cos(2 * np.pi * x / L),
                    0.1 * np.sin(2 * np.pi * x / L)], axis=1).astype(complex)
    fld = solve_K(p, A2, 4.0, psi, ny=17)
    assert fld.resolved
    assert fld.values.shape == (32, 17, 2)
    assert np.allclose(fld.trace0(), psi, atol=1e-10)


def test_bottom_neumann_enforced(A1):
    p = make_profile(nx=32, amp=0.2, mode=2)
    x = torus_x(32)
    psi = (0.3 * np.cos(2 * np.pi * x / L)).astype(complex)[:, None]
    fld = solve_K(p, A1, 2.0, psi, ny=17)
    assert np.max(np.abs(fld.dy_trace1())) < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_data_raises_not_silently_returns(A1):
    p = make_profile(nx=32, amp=0.1)
    psi = np.full((32, 1), np.nan, dtype=complex)
    with pytest.raises(SolverError):
        solve_K(p, A1, 4.0, psi, ny=9)


def test_assemble_exposes_operator_pieces(A1):
    op = assemble(make_profile(nx=32, amp=0.1), A1, 4.0, ny=9)
    assert op.Dy.shape == (9, 9)
    assert op.A_mat.shape == (1, 1)

"""Shared fixtures: small interface profiles and operator matrices."""

import os

import numpy as np
import pytest

from stripflow.geometry import InterfaceProfile
from stripflow.operator_core import SectorialOperator

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def make_profile(nx=64, amp=0.05, mode=1, m=1, nu=1.0, L=16 * np.pi,
                 shape="sin"):
    """Band-limited periodic profile on the torus grid."""
    x = np.arange(nx) * (L / nx)
    if shape == "sin":
        base = amp * np.sin(2 * np.pi * mode * x / L)
    elif shape == "bump":
        base = amp * np.exp(np.cos(2 * np.pi * mode * x / L) - 1.0)
    else:
        raise ValueError(shape)
    g = np.tile(base.astype(complex)[:, None], (1, m))
    return InterfaceProfile(nu, L, g)


def torus_x(nx, L=16 * np.pi):
    return np.arange(nx) * (L / nx)


def tail_ratios(report):
    """Phi(Y)/Phi(Y/100) per profile of a MultiplierDecayReport, Y the last
    y-grid point."""
    y = report.y_grid
    j_near = int(np.argmin(np.abs(y - y[-1] / 100.0)))
    out = {}
    profs = {"phi0": report.phi0}
    for j in range(report.phi_j.shape[0]):
        profs[f"phi{j}_weighted"] = report.phi_j[j]
    for name, p in profs.items():
        out[name] = float(p[-1] / p[j_near]) if p[j_near] > 0 else 0.0
    return out


@pytest.fixture
def A1():
    return SectorialOperator(np.array([[1.0]]))


@pytest.fixture
def A2():
    # upper-triangular coupling; sectorial but not normal
    return SectorialOperator(np.array([[2.0, 0.5], [0.0, 1.0]]))


@pytest.fixture
def scenario_dir():
    return os.path.abspath(SCENARIO_DIR)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

"""Domain flattening: profiles, coordinate maps, transformed coefficients."""

import numpy as np
import pytest

from conftest import make_profile, torus_x
from stripflow.errors import DegenerateDomainError, EllipticityError
from stripflow.geometry import (
    InterfaceProfile,
    coefficient_derivatives,
    coefficients,
    ellipticity_floor,
    map_forward,
    map_inverse,
)
from stripflow.grids import (cheb_lobatto_01, partition_of_unity,
                             spectral_derivative)
from stripflow.holder import SampledFunction

L = 16 * np.pi


def test_profile_derivatives_spectrally_exact():
    p = make_profile(nx=64, amp=0.3, mode=2)
    x = torus_x(64)
    k = 2 * np.pi * 2 / L
    assert np.allclose(p.g_x[:, 0], 0.3 * k * np.cos(k * x), atol=1e-12)
    assert np.allclose(p.g_xx[:, 0], -0.3 * k * k * np.sin(k * x), atol=1e-11)


def test_profile_height():
    p = make_profile(nx=64, amp=0.25, mode=1)
    x = torus_x(64)
    assert np.allclose(p.h, 1.0 + 0.25 * np.sin(2 * np.pi * x / L), atol=1e-13)
    assert np.allclose(p.height_at(x[::3]), p.h[::3], atol=1e-12)


def test_profile_requires_positive_depth():
    with pytest.raises(ValueError):
        InterfaceProfile(-1.0, L, np.zeros((16, 1), dtype=complex))


def test_touching_bottom_rejected():
    x = torus_x(64)
    g = (-1.0 + 0.5 * np.cos(2 * np.pi * x / L)).astype(complex)[:, None]
    with pytest.raises(DegenerateDomainError):
        InterfaceProfile(1.0, L, g)


def test_component_below_guard_rejected_though_height_is_not():
    """An m = 2 row f = nu + g = (-0.5, 2.5) has height h = 1.8, yet its
    negative component folds the domain: the row is refused by name."""
    x = torus_x(16)
    g = np.zeros((16, 2))
    g[3] = (-1.5, 1.5)
    with pytest.raises(DegenerateDomainError) as err:
        InterfaceProfile(1.0, L, g)
    assert str(err.value) == (f"interface height -5.000e-01 at x={x[3]:.4f} "
                              f"is at or below the degeneracy guard 1.0e-08")


def test_profile_refuses_imaginary_sample():
    """Profiles are real: one sample with imaginary part 1e-12 is refused,
    and a complex dtype with zero imaginary parts is stored as float64."""
    g = 0.1 * np.sin(2 * np.pi * torus_x(32) / L).astype(complex)
    assert InterfaceProfile(1.0, L, g).g.dtype == np.float64
    g[5] += 1e-12j
    with pytest.raises(EllipticityError, match="real profile"):
        InterfaceProfile(1.0, L, g)


def test_with_g_replaces_profile():
    p = make_profile(nx=32, amp=0.1)
    q = p.with_g(np.zeros_like(p.g))
    assert np.allclose(q.h, 1.0)
    assert q.L == p.L and q.nu == p.nu


@pytest.mark.parametrize("m", [None, 1, 2])
def test_profile_keeps_its_own_copy_of_g(m):
    """A profile is the SampledFunction of a copy of g: changing the
    caller's float64 array afterwards changes neither p.g nor p.g_x, the
    profile's samples and first derivative."""
    g = 0.1 * np.sin(2 * np.pi * torus_x(32) / L)
    if m is not None:
        g = np.tile(g[:, None], (1, m))
    p = InterfaceProfile(1.0, L, g)
    assert isinstance(p, SampledFunction)
    assert p.values is p.g and p.deriv(1) is p.g_x
    g_was, g_x_was = p.g.copy(), p.g_x.copy()
    g += 0.5
    assert np.array_equal(p.g, g_was) and np.array_equal(p.g_x, g_x_was)


# ------------------------------------------------------------- coordinate map

def test_map_round_trip_random_points(rng):
    p = make_profile(nx=64, amp=0.2, mode=3)
    x = rng.uniform(0.0, L, 200)
    y_phys = rng.uniform(0.02, 0.98, 200) * p.height_at(x)
    xs, ys = map_forward(p, x, y_phys)
    assert np.allclose(xs, x, atol=1e-14)
    xb, yb = map_inverse(p, xs, ys)
    assert np.allclose(xb, x, atol=1e-14)
    assert np.allclose(yb, y_phys, atol=1e-12)


def test_map_orientation():
    """The interface itself lands on y=0 and the flat bottom on y=1."""
    p = make_profile(nx=32, amp=0.15)
    x = torus_x(32)
    _, y_top = map_forward(p, x, p.h)
    _, y_bot = map_forward(p, x, np.zeros_like(x))
    assert np.allclose(y_top, 0.0, atol=1e-14)
    assert np.allclose(y_bot, 1.0, atol=1e-14)


# ----------------------------------------------------------------- coefficients

def test_coefficients_closed_form():
    nx, amp, mode = 64, 0.2, 1
    p = make_profile(nx=nx, amp=amp, mode=mode)
    y = cheb_lobatto_01(9)[0]
    c = coefficients(p, y)
    x = torus_x(nx)
    k = 2 * np.pi * mode / L
    w = 1.0 + amp * np.sin(k * x)
    gx = amp * k * np.cos(k * x)
    gxx = -amp * k * k * np.sin(k * x)
    beta = 1.0 - y
    a12 = beta[None, :] * gx[:, None] / w[:, None]
    a22 = (1.0 + beta[None, :] ** 2 * gx[:, None] ** 2) / w[:, None] ** 2
    a2 = (beta[None, :] / w[:, None]) * (
        2.0 * gx[:, None] ** 2 / w[:, None] - gxx[:, None])
    assert np.allclose(c.a12[..., 0], a12, atol=1e-11)
    assert np.allclose(c.a22[..., 0], a22, atol=1e-11)
    assert np.allclose(c.a2[..., 0], a2, atol=1e-10)
    assert np.allclose(c.b10[:, 0], -gx, atol=1e-12)
    assert np.allclose(c.b20[:, 0], -(1.0 + gx ** 2) / w, atol=1e-11)
    assert np.allclose(c.b21[:, 0], 1.0 / w, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2])
def test_coefficient_derivatives_match_central_difference(m):
    """The chain rule of coefficient_derivatives against a central difference
    of coefficients() along the real and the imaginary part of a complex
    direction psi, two real directions, for every field."""
    nx = 64
    x = torus_x(nx)
    k = 2 * np.pi / L
    g = np.stack([0.2 * np.sin(k * x), 0.15 * np.cos(2 * k * x) - 0.05],
                 axis=1)[:, :m]
    psi = np.stack([0.3 * np.cos(k * x) + 0.2j * np.sin(2 * k * x),
                    0.1j * np.cos(3 * k * x) - 0.2 * np.sin(k * x)],
                   axis=1)[:, :m]
    p = InterfaceProfile(1.0, L, g)
    y = cheb_lobatto_01(9)[0]
    eps = 1e-5
    col = (lambda a: a[:, None, :])
    for part in (psi.real, psi.imag):
        plus = coefficients(p.with_g(g + eps * part), y)
        minus = coefficients(p.with_g(g - eps * part), y)
        d12, d22, e22, d2, db10, db20 = coefficient_derivatives(
            col(1.0 + g), col(p.g_x), col(p.g_xx), col(part),
            col(spectral_derivative(part, L, 1)),
            col(spectral_derivative(part, L, 2)))
        beta = (1.0 - y)[None, :, None]
        exact = (beta * d12, beta ** 2 * d22 - e22, beta * d2, db10, db20)
        for name, d in zip(("a12", "a22", "a2", "b10", "b20"), exact):
            fd = (getattr(plus, name) - getattr(minus, name)) / (2.0 * eps)
            d = np.broadcast_to(d if name[0] == "a" else d[:, 0], fd.shape)
            assert np.max(np.abs(fd - d)) < 1e-8 * np.max(np.abs(d)), name


def test_flat_coefficients():
    p = make_profile(nx=32, amp=0.0)
    c = coefficients(p, cheb_lobatto_01(7)[0])
    assert np.allclose(c.a12, 0.0)
    assert np.allclose(c.a22, 1.0)
    assert np.allclose(c.a2, 0.0)
    assert np.allclose(c.alpha_floor, 0.5)   # 1/(1+w^2) with w=1


def test_ellipticity_floor_respected_on_rough_profile():
    p = make_profile(nx=128, amp=0.45, mode=4)
    c = coefficients(p, cheb_lobatto_01(17)[0])
    rep = ellipticity_floor(c)
    assert rep.passed
    assert rep.margin >= -1e-10


def test_ellipticity_floor_near_flat_is_clean():
    # regression: the floor at a22 ~ 1 and a12 ~ 0 must come out exactly,
    # without cancellation artifacts
    p = make_profile(nx=32, amp=1e-9)
    rep = ellipticity_floor(coefficients(p, cheb_lobatto_01(7)[0]))
    assert rep.passed
    assert np.isfinite(rep.margin)


# ------------------------------------------------------------ partition of unity

def test_partition_sums_to_one():
    x = torus_x(128)
    for n in (1, 2, 4, 8):
        centers, phis = partition_of_unity(x, L, n)
        assert phis.shape == (n, 128)
        assert centers.shape == (n,)
        assert np.all(phis >= -1e-14)
        assert np.allclose(phis.sum(axis=0), 1.0, atol=1e-12)


def test_partition_centers_are_nested():
    """Doubling the piece count keeps every coarse anchor in place."""
    x = torus_x(64)
    c2 = partition_of_unity(x, L, 2)[0]
    c4 = partition_of_unity(x, L, 4)[0]
    for c in c2:
        assert np.min(np.abs(c4 - c)) < 1e-12

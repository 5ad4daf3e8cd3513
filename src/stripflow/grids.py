"""Discretization primitives: periodic x-grid, Chebyshev y-grid, partitions.

The horizontal direction is a torus of circumference L sampled at equispaced
nodes (FFT differentiation); the vertical direction is the unit interval
sampled at Chebyshev-Lobatto points (dense differentiation matrix).  Both are
used everywhere else, so they live in one small module with no dependencies
on the rest of the package.
"""

import functools

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft


def as_inexact(values):
    """values as a float64 array, or as a complex128 one when some imaginary
    part is nonzero: complex input whose imaginary parts are all exactly
    zero is real input."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and not np.any(values.imag):
        values = np.ascontiguousarray(values.real)
    return values.astype(np.result_type(values, float), copy=False)


def torus_nodes(L, nx):
    """Equispaced nodes x_j = j*L/nx on the circle of circumference L."""
    if nx < 4 or nx & (nx - 1):
        raise ValueError(f"nx must be a power of two >= 4, got {nx}")
    return np.arange(nx) * (L / nx)


def torus_wavenumbers(L, nx):
    """FFT-ordered wavenumbers k_j = 2*pi*j/L for the torus grid."""
    return 2.0 * np.pi * np.fft.fftfreq(nx, d=L / nx)


def rfft_wavenumbers(L, nx):
    """Wavenumbers k_j = 2*pi*j/L, j = 0..nx/2, of the rfft of nx samples."""
    return 2.0 * np.pi * np.fft.rfftfreq(nx, d=L / nx)


@functools.lru_cache(maxsize=32)
def _derivative_multiplier(L, nx, order, real):
    """(ik)^order on the rfft (real) or fft wavenumbers, the Nyquist mode
    zeroed for odd orders; read-only, built once per (L, nx, order)."""
    k = rfft_wavenumbers(L, nx) if real else torus_wavenumbers(L, nx)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[nx // 2] = 0.0
    mult.flags.writeable = False
    return mult


def spectral_derivative(values, L, order):
    """Differentiate periodic samples along axis 0 by FFT.

    For odd derivative orders the Nyquist mode is zeroed (its derivative is
    not representable on the grid and keeping it injects a spurious
    sawtooth).  Real input is differentiated through rfft/irfft and gives
    real output; complex input goes through the full transform.
    """
    values = np.asarray(values)
    nx = values.shape[0]
    real = not np.iscomplexobj(values)
    mult = _derivative_multiplier(L, nx, order, real)
    mult = mult.reshape((-1,) + (1,) * (values.ndim - 1))
    if real:
        return irfft(rfft(values, axis=0) * mult, n=nx, axis=0)
    return ifft(fft(values, axis=0) * mult, axis=0)


def trig_interp(values, L, x_eval):
    """Evaluate the trigonometric interpolant of periodic samples.

    ``values`` are samples on ``torus_nodes(L, nx)`` along axis 0;
    evaluation points are arbitrary reals (wrapped mod L).  Direct
    exponential summation - fine for the modest grids used here.
    """
    values = np.asarray(values, dtype=complex)
    nx = values.shape[0]
    k = torus_wavenumbers(L, nx)
    vhat = fft(values, axis=0) / nx
    # Split the Nyquist coefficient between +/- to keep real data real.
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    phases = np.exp(1j * np.outer(x_eval, k))
    if nx % 2 == 0:
        phases[:, nx // 2] = np.cos(k[nx // 2] * x_eval)
    return np.tensordot(phases, vhat, axes=(1, 0))


def random_trace(rng, nx, m):
    """Random smooth periodic samples of shape (nx, m).

    The Fourier coefficients are (N + iN') / (1 + |k|)^4 with N, N' standard
    normal (nx x m) draws from rng and k the integer wavenumber.
    """
    ks = np.abs(np.fft.fftfreq(nx, d=1.0 / nx))
    coef = ((rng.standard_normal((nx, m)) + 1j * rng.standard_normal((nx, m)))
            / (1.0 + ks[:, None]) ** 4)
    return ifft(coef, axis=0)


def cheb_lobatto_01(ny):
    """Chebyshev-Lobatto nodes on [0, 1] (ascending) plus differentiation matrix.

    Returns ``(y, D)`` with ``y[0] = 0``, ``y[-1] = 1`` and ``(D @ u)``
    approximating du/dy for samples ``u`` on ``y``.
    """
    if ny < 5:
        raise ValueError(f"ny must be at least 5, got {ny}")
    n = ny - 1
    xc = np.cos(np.pi * np.arange(ny) / n)  # standard nodes on [-1, 1], descending
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(ny)
    X = np.tile(xc[:, None], (1, ny))
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(ny))
    D -= np.diag(D.sum(axis=1))
    # Map x = 1 - 2y so that y ascends over [0, 1]: d/dy = -2 d/dx.
    y = (1.0 - xc) / 2.0
    return y, -2.0 * D


def partition_of_unity(x, L, n_pieces):
    """Smooth periodic partition of unity from raised-cosine bumps.

    Returns ``(centers, weights)`` where ``weights[j]`` is the j-th bump
    sampled on ``x``; bumps overlap by half a width and sum to one exactly.
    Centers sit at j L / n so that doubling n keeps every existing center
    and adds midpoints; refinement sweeps then shrink each patch around a
    persistent anchor instead of re-seeding the anchors.
    """
    if n_pieces < 1:
        raise ValueError("need at least one piece")
    centers = np.arange(n_pieces) * (L / n_pieces)
    width = L / n_pieces
    weights = np.zeros((n_pieces, x.size))
    for j, c in enumerate(centers):
        d = np.remainder(x - c + L / 2.0, L) - L / 2.0
        inside = np.abs(d) < width
        weights[j, inside] = 0.5 * (1.0 + np.cos(np.pi * d[inside] / width))
    total = weights.sum(axis=0)
    return centers, weights / total

"""Sampling of the Gaussian log-correlated field on the circle.

The free field is synthesized from its Fourier series with real (A_k, B_k)
coefficient pairs; its variance and exponential normalizer are closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import real_fourier_grid


def harmonic_number(k: int) -> float:
    return float(np.sum(1.0 / np.arange(1, k + 1)))


def sample_circle_field(kmax: int, grid_size: int, streams) -> np.ndarray:
    """X(theta) = sum_{k<=kmax} k^{-1/2} (A_k cos k theta + B_k sin k theta)
    with A, B iid standard normal; its values on the uniform grid
    theta_j = 2 pi j / grid_size, by one real inverse FFT per row.  Row r of
    the (R, grid_size) result is drawn from the r-th of the R streams, A
    first, then B.  Var X(theta) = harmonic_number(kmax).
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if grid_size <= kmax:
        raise ValueError(f"grid_size must exceed kmax for alias-free synthesis, got {grid_size}")
    normals = np.array([stream.standard_normal(2 * kmax) for stream in streams])
    # A cos + B sin = Re((A - iB) e^{ik theta})
    coeff = (normals[:, :kmax] - 1j * normals[:, kmax:]) / np.sqrt(np.arange(1, kmax + 1))
    return real_fourier_grid(coeff, grid_size)


def gaussian_exp_normalizer(variance: float, gamma: float) -> float:
    """E e^{gamma X} = exp(gamma^2 variance / 2) for centered Gaussian X."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return math.exp(0.5 * gamma * gamma * variance)

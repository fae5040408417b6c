"""Sampling of Gaussian log-correlated fields.

The free field on the circle is synthesized from its Fourier series with real
(A_k, B_k) coefficient pairs; convolution-mollified fields on an interval are
drawn through a Cholesky factor of the doubly mollified covariance.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import MollifierSpec, Shift, doubly_mollified_kernel, real_fourier_grid


def harmonic_number(k: int) -> float:
    return float(np.sum(1.0 / np.arange(1, k + 1)))


def sample_circle_field(kmax: int, grid_size: int, stream: np.random.Generator) -> np.ndarray:
    """X(theta) = sum_{k<=kmax} k^{-1/2} (A_k cos k theta + B_k sin k theta)
    with A, B iid standard normal; its values on the uniform grid
    theta_j = 2 pi j / grid_size, by one real inverse FFT.  Var X(theta) =
    harmonic_number(kmax).
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if grid_size <= kmax:
        raise ValueError(f"grid_size must exceed kmax for alias-free synthesis, got {grid_size}")
    a = stream.standard_normal(kmax)
    b = stream.standard_normal(kmax)
    # A cos + B sin = Re((A - iB) e^{ik theta})
    coeff = (a - 1j * b) / np.sqrt(np.arange(1, kmax + 1))
    return real_fourier_grid(coeff, grid_size) * (0.5 * grid_size)


class CovarianceFactorization:
    """Reusable Cholesky factor of the mollified covariance on a fixed grid.

    The factor is immutable after construction and may be shared across
    concurrent replica draws.
    """

    JITTER_START = 1e-12
    JITTER_DOUBLINGS = 6

    def __init__(
        self,
        grid,
        delta: float,
        rho: MollifierSpec,
        h: Shift | None = None,
        domain: tuple[float, float] = (0.0, 1.0),
    ):
        grid = np.asarray(grid, dtype=float)
        if np.any(grid - delta < domain[0]) or np.any(grid + delta > domain[1]):
            raise ValueError("grid with mollifier support must stay inside the domain")
        m = grid.size
        cov = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                cov[i, j] = cov[j, i] = doubly_mollified_kernel(
                    float(grid[i]), float(grid[j]), delta, delta, rho, h, domain
                )
        self.grid = grid
        self.covariance = cov
        self.factor = self._factor(cov)

    def _factor(self, cov: np.ndarray) -> np.ndarray:
        jitter = self.JITTER_START * float(np.mean(np.diag(cov)))
        for attempt in range(self.JITTER_DOUBLINGS + 1):
            try:
                return np.linalg.cholesky(cov + (jitter * 2**attempt) * np.eye(cov.shape[0]))
            except np.linalg.LinAlgError:
                continue
        raise np.linalg.LinAlgError(
            "covariance not positive definite after max jitter; "
            "scale/grid combination is numerically ill-conditioned"
        )

    def draw(self, stream: np.random.Generator) -> np.ndarray:
        """Field values at the grid points."""
        return self.factor @ stream.standard_normal(self.grid.size)


def sample_mollified_field(
    grid,
    delta: float,
    rho: MollifierSpec,
    h: Shift | None,
    stream: np.random.Generator,
    domain: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Mean-zero Gaussian vector with covariance C_{X,delta,delta}(x_i, x_j)."""
    return CovarianceFactorization(grid, delta, rho, h, domain).draw(stream)


def gaussian_exp_normalizer(variance: float, gamma: float) -> float:
    """E e^{gamma X} = exp(gamma^2 variance / 2) for centered Gaussian X."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return math.exp(0.5 * gamma * gamma * variance)

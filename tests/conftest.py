"""Shared test oracles.

Independent high-precision references used to pin the analytic code:
a Weierstrass-product Barnes G, a replica-vectorized Szego sampler for
Monte Carlo moment oracles, an mpmath Szego recursion, and a brute-force
Simpson convolution density.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import zeta

EULER_GAMMA = 0.57721566490153286060651209008240

SQRT2 = math.sqrt(2.0)


def weierstrass_log_barnes_g1p(w: float, terms: int = 100_000) -> float:
    """log G(1+w) from the Weierstrass product, with an analytic tail.

    log G(1+w) = (w/2) log 2pi - w(w+1)/2 - gamma w^2/2
                 + sum_k [w^2/(2k) - w + k log(1+w/k)],
    the truncated sum completed with the series
    sum_{k>K} = sum_{m>=3} (-1)^{m+1} w^m/m zeta(m-1, K+1).
    """
    k = np.arange(1, terms + 1, dtype=np.float64)
    partial = math.fsum((w * w / (2.0 * k) - w + k * np.log1p(w / k)).tolist())
    tail = 0.0
    for m in range(3, 30):
        term = (-1.0) ** (m + 1) * w**m / m * float(zeta(m - 1, terms + 1))
        tail += term
        if abs(term) < 1e-18:
            break
    return (
        0.5 * w * math.log(2.0 * math.pi)
        - 0.5 * w * (w + 1.0)
        - 0.5 * EULER_GAMMA * w * w
        + partial
        + tail
    )


def weierstrass_log_psi(z: float) -> float:
    """log Psi(z) = 2 log G(1 + z/sqrt 2) - log G(1 + sqrt 2 z), product oracle."""
    return 2.0 * weierstrass_log_barnes_g1p(z / SQRT2) - weierstrass_log_barnes_g1p(SQRT2 * z)


def batch_sample_alphas(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Verblunsky coefficients for many replicas at once, shape (reps, n)."""
    u = rng.random((reps, n))
    phase = np.exp(2j * np.pi * rng.random((reps, n)))
    radii = np.empty((reps, n))
    if n > 1:
        b = n - 1 - np.arange(n - 1, dtype=np.float64)
        radii[:, :-1] = np.sqrt(1.0 - u[:, :-1] ** (1.0 / b))
    radii[:, -1] = 1.0
    return radii * phase


def mc_field_at(
    n: int, thetas, reps: int, rng: np.random.Generator, chunk: int = 5000
) -> np.ndarray:
    """X_N at the given angles over many replicas, chunked to bound memory."""
    parts = []
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        parts.append(batch_field_at(batch_sample_alphas(n, m, rng), thetas))
        done += m
    return np.concatenate(parts, axis=0)


def batch_field_at(alphas: np.ndarray, thetas) -> np.ndarray:
    """X_N at the given angles for every replica, shape (reps, len(thetas)).

    Replica-vectorized Szego recursion with periodic rescaling.
    """
    z = np.exp(1j * np.atleast_1d(np.asarray(thetas, dtype=float)))[None, :]
    reps, n = alphas.shape
    phi = np.ones((reps, z.size), dtype=np.complex128)
    star = np.ones_like(phi)
    logs = np.zeros(phi.shape)
    for k in range(n):
        a = alphas[:, k][:, None]
        zphi = z * phi
        phi, star = zphi - np.conj(a) * star, star - a * zphi
        if (k + 1) % 64 == 0:
            s = np.maximum(np.abs(phi), np.abs(star))
            s[s == 0.0] = 1.0
            phi /= s
            star /= s
            logs += np.log(s)
    with np.errstate(divide="ignore"):
        return SQRT2 * (np.log(np.abs(phi)) + logs)


def mp_field_on_grid(alphas: np.ndarray, grid_size: int, indices, dps: int = 40) -> np.ndarray:
    """X_N at theta = 2 pi j / grid_size for j in indices, by the Szego
    recursion in mpmath at dps digits."""
    out = []
    with mpmath.workdps(dps):
        steps = [mpmath.mpc(complex(a)) for a in alphas]
        for j in indices:
            z = mpmath.expjpi(mpmath.mpf(2 * j) / grid_size)
            phi = star = mpmath.mpc(1)
            for a in steps:
                zphi = z * phi
                phi, star = zphi - mpmath.conj(a) * star, star - a * zphi
            out.append(float(mpmath.sqrt(2) * mpmath.log(abs(phi))))
    return np.array(out)


def simpson_conv_density(delta: float, epsilon: float, rho):
    """Cubic spline of q(w) = int rho_delta(w + v) rho_epsilon(v) dv and its
    half-width delta + epsilon, by Simpson over v at every one of 4097 points w.
    """
    v = np.linspace(-epsilon, epsilon, 2049)
    rv = rho.scaled_density(v, epsilon, 0.0)
    half = delta + epsilon
    w = np.linspace(-half, half, 4097)
    vals = rho.scaled_density(w[:, None] + v[None, :], delta, 0.0) * rv[None, :]
    return CubicSpline(w, simpson(vals, x=v, axis=1)), half

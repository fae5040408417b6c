"""Closed-form and asymptotic formulas: log-Gamma, Barnes G, CUE moments,
moderate-deviation probabilities and the Fyodorov-Keating normalizer.

All moment products are assembled in log-space with compensated summation and
exponentiated on demand, so they survive N = 10^4 at exponents up to 2.
A gamma is on the theorem scale (critical value sqrt(2)) unless its docstring
says otherwise; to_theorem_scale converts one given with an explicit
GammaConvention.  The normalizers that depend only on a run's config (the
exact CUE moment, the thick-point probability and the Fyodorov-Keating
normalizer) are cached, so a Monte Carlo run computes each once rather than
once per replica.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .kernels import GL_NODES, GL_WEIGHTS

SQRT2 = math.sqrt(2.0)

# Stirling series of log Gamma: B_2k / (2k (2k - 1)) for k = 1..8.  Applied at
# Re(w) >= _STIRLING_SHIFT, the first omitted term is below 8e-16 absolute;
# shifting further up only adds rounding to the sum of logs taken off.
_STIRLING_COEFFS = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
_STIRLING_SHIFT = 7.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class GammaConvention(enum.Enum):
    """Scale attached to a gamma value.

    THEOREM: field is sqrt(2) log|p_N|, subcritical range (0, sqrt(2)).
    CONJECTURE: field is log|p_N|, subcritical range (0, 1).
    """

    THEOREM = "theorem"
    CONJECTURE = "conjecture"


def to_theorem_scale(gamma: float, convention: GammaConvention) -> float:
    """Convert gamma to the theorem scale and validate its open range."""
    if convention is GammaConvention.CONJECTURE:
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"conjecture-scale gamma must lie in (0,1), got {gamma}")
        return SQRT2 * gamma
    if not 0.0 < gamma < SQRT2:
        raise ValueError(f"theorem-scale gamma must lie in (0,sqrt(2)), got {gamma}")
    return gamma


def _stirling_series(w: np.ndarray) -> np.ndarray:
    """sum_k B_2k / (2k (2k - 1) w^(2k - 1)), the tail of Stirling's log Gamma."""
    inv_w = 1.0 / w
    series = np.zeros_like(w)
    for c in reversed(_STIRLING_COEFFS):
        series = series * inv_w * inv_w + c
    return series * inv_w


def _loggamma(z) -> np.ndarray:
    """Principal-branch log Gamma for Re z > 0, elementwise; other points
    give nan.

    Positive reals go through math.lgamma.  Other points are shifted up to
    Re >= _STIRLING_SHIFT by log Gamma(z) = log Gamma(z + m) -
    sum_{k<m} log(z + k), which holds with principal logs in the right
    half-plane, and summed by the Stirling series.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, complex(math.nan, math.nan))
    real = (z.imag == 0.0) & (z.real > 0.0)
    out[real] = [math.lgamma(x) for x in z.real[real].tolist()]
    right = ~real & (z.real > 0.0)
    if right.any():
        zr = z[right]
        shift = np.maximum(np.ceil(_STIRLING_SHIFT - zr.real), 0.0)
        w = zr + shift
        head = (w - 0.5) * (np.log(w) - 1.0) + (_LOG_SQRT_2PI - 0.5) + _stirling_series(w)
        for k in range(int(shift.max())):
            head -= np.where(k < shift, np.log(zr + k), 0.0)
        out[right] = head
    return out


def _log1p(z: np.ndarray) -> np.ndarray:
    """Complex log(1 + z), accurate for small z (numpy forms 1 + z first)."""
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _loggamma_difference(x: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """log Gamma(x + a) - log Gamma(x + b) for reals x >= 1, Re a, Re b > -1.

    From x = _STIRLING_SHIFT + 1 on it is the difference of the Stirling
    forms, with log(x + a) = log x + log(1 + a / x), so no term is as large as
    log Gamma(x) and the error stays at the rounding of the difference.
    """
    out = np.empty(x.shape, dtype=np.complex128)
    small = x < _STIRLING_SHIFT + 1.0
    out[small] = _loggamma(x[small] + a) - _loggamma(x[small] + b)
    x = x[~small]
    out[~small] = (
        (a - b) * (np.log(x) - 1.0)
        + (x + a - 0.5) * _log1p(a / x)
        - (x + b - 0.5) * _log1p(b / x)
        + _stirling_series(x + a)
        - _stirling_series(x + b)
    )
    return out


def log_barnes_g(z: complex) -> complex:
    """log G(z) on the principal branch for Re(z) > 0.

    With w = z - 1, log G(1 + w) = (w/2) log 2 pi - w (w + 1)/2
    + w log Gamma(1 + w) - int_0^w log Gamma(1 + t) dt (DLMF 5.17.4).  The
    integral runs along the straight path from 0 to w, on which
    Re(1 + t) > 0, in ceil(|w|/2) equal panels of 16-point Gauss-Legendre.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError(f"log_barnes_g requires Re(z) > 0, got {z}")
    w = z - 1.0
    panels = max(math.ceil(abs(w) / 2.0), 1)
    h = w / panels
    t = h * (np.arange(panels)[:, None] + 0.5 * (GL_NODES + 1.0))
    integral = 0.5 * h * complex(np.sum(_loggamma(1.0 + t) @ GL_WEIGHTS))
    return w * _LOG_SQRT_2PI - 0.5 * w * (w + 1.0) + w * complex(_loggamma(z)) - integral


def log_psi(zeta: complex) -> complex:
    """log of Psi(zeta) = G(1 + zeta/sqrt(2))^2 / G(1 + sqrt(2) zeta)."""
    zeta = complex(zeta)
    if zeta.real <= -1.0 / SQRT2:
        raise ValueError(f"psi requires Re(zeta) > -1/sqrt(2), got {zeta}")
    return 2.0 * log_barnes_g(1.0 + zeta / SQRT2) - log_barnes_g(1.0 + SQRT2 * zeta)


@functools.cache
def log_cue_abs_moment_exact(n: int, zeta: complex) -> complex:
    """log E|det(e^{i theta} - U_N)|^zeta via the finite-N product formula.

    log of (1/N!) prod_{j=0}^{N-1} Gamma(1+zeta+j) Gamma(2+j) / Gamma(1+j+zeta/2)^2,
    summed as sum_{x=1}^{N} [log Gamma(x+zeta) - log Gamma(x+zeta/2)]
    - [log Gamma(x+zeta/2) - log Gamma(x)] with each difference formed directly
    (_loggamma_difference) and compensated summation.  Independent of theta by
    rotation invariance.  Requires Re(zeta) > -1.
    """
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    zeta = complex(zeta)
    if zeta.real <= -1.0:
        raise ValueError(f"moment formula requires Re(zeta) > -1, got {zeta}")
    x = np.arange(1.0, n + 1.0)
    terms = _loggamma_difference(x, zeta, zeta / 2.0) - _loggamma_difference(x, zeta / 2.0, 0.0)
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def cue_abs_moment_exact(n: int, zeta: complex) -> complex:
    """E|det(e^{i theta} - U_N)|^zeta; exact at every finite N."""
    return complex(np.exp(log_cue_abs_moment_exact(n, zeta)))


@functools.cache
def thickpoint_prob_asymptotic(n: int, gamma: float) -> float:
    """Asymptotic P(X_N(theta) >= gamma log N) at theorem-scale gamma:
    N^{-gamma^2/2} Psi(gamma) / (gamma sqrt(2 pi log N)).
    """
    if n < 2:
        raise ValueError(f"need N >= 2 so that log N is bounded away from 0, got {n}")
    g = to_theorem_scale(gamma, GammaConvention.THEOREM)
    logn = math.log(n)
    logp = -0.5 * g * g * logn + log_psi(g).real - math.log(g) - 0.5 * math.log(2.0 * math.pi * logn)
    return math.exp(logp)


@functools.cache
def fk_normalizer(n: int, gamma: float) -> float:
    """Deterministic denominator of the Fyodorov-Keating mass ratio.

    N^{-gamma^2} (pi log N)^{-1/2} G(1+gamma)^2 / (2 gamma G(1+2 gamma))
    / Gamma(1-gamma^2), with gamma on the conjecture scale (0,1).  Since
    Psi(sqrt(2) gamma) = G(1+gamma)^2 / G(1+2 gamma), this is the thick-point
    probability at conjecture-scale gamma over Gamma(1-gamma^2).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"conjecture-scale gamma must lie in (0,1), got {gamma}")
    return thickpoint_prob_asymptotic(n, SQRT2 * gamma) / math.gamma(1.0 - gamma * gamma)

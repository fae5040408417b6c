"""Random measures built from field samples on a grid: the exponential
(chaos) measure, the thick-point measure, the barrier diagnostic and their
scalar statistics.

All measures are reported as plain averages over the M uniform grid points,
matching the (1/2pi) d theta convention, so f = 1 totals are directly
comparable with the deterministic normalizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cue import FieldSample, SQRT2
from .special_fn import (
    GammaConvention,
    cue_abs_moment_exact,
    fk_normalizer,
    thickpoint_prob_asymptotic,
    to_theorem_scale,
)


@dataclass(frozen=True)
class ThickPointSpec:
    """Parameters of the thick-point measure.

    g is the tuneable shift (scalar or per-grid-point vector, default 0).  The
    denominator is the moderate-deviation asymptotic unless an externally
    estimated exact probability in (0, 1] is supplied.
    """

    gamma: float
    convention: GammaConvention = GammaConvention.THEOREM
    g: float | np.ndarray = 0.0
    supplied_denominator: float | None = None

    def __post_init__(self):
        p = self.supplied_denominator
        if p is not None and not 0.0 < p <= 1.0:
            raise ValueError(f"supplied denominator must be a probability in (0,1], got {p}")

    @property
    def gamma_theorem(self) -> float:
        return to_theorem_scale(self.gamma, self.convention)

    def denominator(self, n: int) -> float:
        if self.supplied_denominator is not None:
            return self.supplied_denominator
        return thickpoint_prob_asymptotic(n, self.gamma, self.convention)


@dataclass(frozen=True)
class BarrierSpec:
    """Truncated-field barrier: X_{N, e^{-k}} <= (gamma + eta) k for k in [ell, L].

    An empty range (ell > L) imposes no constraint.  L defaults to the
    mesoscopic cap floor((1 - eta) log N).
    """

    gamma: float
    eta: float
    ell: int
    L: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    @staticmethod
    def auto_depth(n: int, eta: float) -> int:
        return int(math.floor((1.0 - eta) * math.log(n)))

    @property
    def levels(self) -> list[int]:
        return list(range(self.ell, self.L + 1))

    def scale(self, k: int) -> float:
        return math.exp(-k)


def cue_exp_normalizer(n: int, gamma_theorem: float) -> float:
    """Exact E e^{gamma X_N} = E|det|^{sqrt(2) gamma} from the finite-N formula."""
    return float(cue_abs_moment_exact(n, SQRT2 * gamma_theorem).real)


def _as_grid_function(f, m: int) -> np.ndarray:
    if f is None:
        return np.ones(m)
    f = np.asarray(f, dtype=float)
    if f.ndim == 0:
        return np.full(m, float(f))
    if f.size != m:
        raise ValueError(f"grid function has size {f.size}, expected {m}")
    return f


def exp_measure_integral(
    field: FieldSample, gamma: float, normalizer_per_point, f=None
) -> float:
    """Grid-average realization of the normalized exponential measure:
    (1/M) sum f(theta_i) e^{gamma X(theta_i)} / E e^{gamma X(theta_i)}.
    """
    norm = np.asarray(normalizer_per_point, dtype=float)
    if np.any(norm <= 0.0):
        raise ValueError("normalizer must be strictly positive")
    weights = _as_grid_function(f, field.grid_size)
    return float(np.mean(weights * np.exp(gamma * field.values) / norm))


def thick_measure_integral(field: FieldSample, spec: ThickPointSpec, n: int, f=None) -> float:
    """Grid-average thick-point measure
    (1/M) sum f(theta_i) 1{X(theta_i) >= gamma' log N + g(theta_i)} / denominator.
    """
    weights = _as_grid_function(f, field.grid_size)
    indicator = thick_indicator(field, spec, n)
    return float(np.mean(weights * indicator) / spec.denominator(n))


def thick_indicator(field: FieldSample, spec: ThickPointSpec, n: int) -> np.ndarray:
    """1{X(theta_i) >= gamma' log N + g(theta_i)} on the grid, as booleans."""
    threshold = spec.gamma_theorem * math.log(n) + np.asarray(spec.g, dtype=float)
    return field.values >= threshold


def fk_normalized_mass(field: FieldSample, gamma_conj: float, n: int) -> float:
    """Thick-point volume of log|p_N| = X / sqrt(2) over the Fyodorov-Keating
    normalizer; converges in law to the Frechet-type variable."""
    if not 0.0 < gamma_conj < 1.0:
        raise ValueError(f"conjecture-scale gamma must lie in (0,1), got {gamma_conj}")
    volume = float(np.mean(field.values / SQRT2 > gamma_conj * math.log(n)))
    return volume / fk_normalizer(n, gamma_conj)


def barrier_mask(truncated_fields: dict[int, FieldSample], spec: BarrierSpec) -> np.ndarray:
    """Per-grid-point conjunction of the level constraints
    X_{N, e^{-k}}(theta_i) <= (gamma + eta) k over k in [ell, L]."""
    levels = spec.levels
    if not levels:
        sizes = {fs.grid_size for fs in truncated_fields.values()}
        m = sizes.pop() if sizes else 1
        return np.ones(m, dtype=bool)
    missing = [k for k in levels if k not in truncated_fields]
    if missing:
        raise ValueError(f"missing truncated fields for levels {missing}")
    mask = None
    for k in levels:
        ok = truncated_fields[k].values <= (spec.gamma + spec.eta) * k
        mask = ok if mask is None else (mask & ok)
    return mask


def barrier_violations(
    field: FieldSample,
    spec: ThickPointSpec,
    n: int,
    barrier: BarrierSpec,
    truncated: np.ndarray,
) -> list[float]:
    """Thick-point measure of the barrier's complement for every start level
    ell' in barrier.levels: nu(1 - barrier_mask) with the constraints
    k in [ell', L], in the order of the levels.

    truncated holds the values of X_{N, e^{-k}} on the grid, one row per
    level.  One conjunction is kept from the deepest level up, so each level
    is read once, and the thick-point indicator is formed once.  Each value
    is bit for bit thick_measure_integral(field, spec, n, f=~mask): both sum
    zeros and ones exactly and divide by M, then by the denominator.
    """
    levels = barrier.levels
    thick = thick_indicator(field, spec, n)
    denominator = spec.denominator(n)
    mask = np.ones(field.grid_size, dtype=bool)
    out = [0.0] * len(levels)
    for i in reversed(range(len(levels))):
        mask &= truncated[i] <= (barrier.gamma + barrier.eta) * levels[i]
        out[i] = np.count_nonzero(thick & ~mask) / field.grid_size / denominator
    return out


def l1_discrepancy(
    field: FieldSample,
    spec: ThickPointSpec,
    n: int,
    f=None,
    mu_normalizer: float | None = None,
) -> tuple[float, float, float]:
    """Single-replica (mu, nu, |nu - mu|) for mu = mu_N(e^{-gamma g} f) and
    nu = nu_N(f).

    mu_normalizer defaults to the exact CUE moment at the spec's gamma.
    """
    g = spec.gamma_theorem  # raises for gamma = 0 or out of range
    if mu_normalizer is None:
        mu_normalizer = cue_exp_normalizer(n, g)
    weights = _as_grid_function(f, field.grid_size)
    shifted = weights * np.exp(-g * np.asarray(spec.g, dtype=float))
    mu = exp_measure_integral(field, g, mu_normalizer, shifted)
    nu = thick_measure_integral(field, spec, n, weights)
    return mu, nu, abs(nu - mu)

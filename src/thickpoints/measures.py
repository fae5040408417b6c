"""Random measures built from field samples on a grid: the exponential
(chaos) measure, the thick-point measure, the barrier diagnostic and the
Fyodorov-Keating mass.

Every measure is a plain average over the M uniform grid points, matching
the (1/2pi) d theta convention, so totals are directly comparable with the
deterministic normalizers.  The thick-point set {X >= gamma log N + shift}
has one indicator, thick_indicator; the thick-point measure, the barrier's
complement and the Fyodorov-Keating mass each count its points, divide by
M and then by their own denominator.  gamma is on the theorem scale
throughout, except for the conjecture-scale argument of fk_normalized_mass.
"""

from __future__ import annotations

import math

import numpy as np

from .cue import FieldSample, SQRT2
from .special_fn import cue_abs_moment_exact, fk_normalizer, thickpoint_prob_asymptotic


def cue_exp_normalizer(n: int, gamma_theorem: float) -> float:
    """Exact E e^{gamma X_N} = E|det|^{sqrt(2) gamma} from the finite-N formula."""
    return float(cue_abs_moment_exact(n, SQRT2 * gamma_theorem).real)


def exp_measure_integral(field: FieldSample, gamma: float, normalizer: float) -> float:
    """Grid-average realization of the normalized exponential measure:
    (1/M) sum e^{gamma X(theta_i)} / normalizer."""
    if not normalizer > 0.0:
        raise ValueError(f"normalizer must be strictly positive, got {normalizer}")
    return float(np.mean(np.exp(gamma * field.values) / normalizer))


def thick_indicator(field: FieldSample, gamma: float, n: int, shift: float = 0.0) -> np.ndarray:
    """1{X(theta_i) >= gamma log N + shift} on the grid, as booleans."""
    return field.values >= gamma * math.log(n) + shift


def thick_measure_integral(field: FieldSample, gamma: float, n: int, shift: float = 0.0) -> float:
    """Grid-average thick-point measure: the fraction of grid points with
    X >= gamma log N + shift over the moderate-deviation asymptotic of
    P(X >= gamma log N)."""
    thick = thick_indicator(field, gamma, n, shift)
    denominator = thickpoint_prob_asymptotic(n, gamma)
    return np.count_nonzero(thick) / field.grid_size / denominator


def fk_normalized_mass(field: FieldSample, gamma_conj: float, n: int) -> float:
    """Thick-point volume of log|p_N| = X / sqrt(2) at conjecture-scale gamma,
    that is of X >= sqrt(2) gamma log N, over the Fyodorov-Keating
    normalizer; converges in law to the Frechet-type variable."""
    if not 0.0 < gamma_conj < 1.0:
        raise ValueError(f"conjecture-scale gamma must lie in (0,1), got {gamma_conj}")
    thick = thick_indicator(field, SQRT2 * gamma_conj, n)
    return np.count_nonzero(thick) / field.grid_size / fk_normalizer(n, gamma_conj)


def barrier_mask(
    truncated_fields: dict[int, FieldSample], gamma: float, eta: float, levels
) -> np.ndarray:
    """Per-grid-point conjunction of the level constraints
    X_{N, e^{-k}}(theta_i) <= (gamma + eta) k over the levels k.  With no
    levels there is no constraint."""
    if not levels:
        sizes = {fs.grid_size for fs in truncated_fields.values()}
        m = sizes.pop() if sizes else 1
        return np.ones(m, dtype=bool)
    missing = [k for k in levels if k not in truncated_fields]
    if missing:
        raise ValueError(f"missing truncated fields for levels {missing}")
    mask = None
    for k in levels:
        ok = truncated_fields[k].values <= (gamma + eta) * k
        mask = ok if mask is None else (mask & ok)
    return mask


def barrier_violations(
    field: FieldSample, gamma: float, n: int, eta: float, levels: list[int], truncated: np.ndarray
) -> list[float]:
    """Thick-point measure of the barrier's complement for every start level
    ell' in levels: nu(1 - barrier_mask) with the constraints k in
    [ell', levels[-1]], in the order of the levels.

    truncated holds the values of X_{N, e^{-k}} on the grid, one row per
    level.  One conjunction is kept from the deepest level up, so each level
    is read once, and the thick-point indicator is formed once.
    """
    thick = thick_indicator(field, gamma, n)
    denominator = thickpoint_prob_asymptotic(n, gamma)
    mask = np.ones(field.grid_size, dtype=bool)
    out = [0.0] * len(levels)
    for i in reversed(range(len(levels))):
        mask &= truncated[i] <= (gamma + eta) * levels[i]
        out[i] = np.count_nonzero(thick & ~mask) / field.grid_size / denominator
    return out


def l1_discrepancy(field: FieldSample, gamma: float, n: int) -> tuple[float, float, float]:
    """Single-replica (mu, nu, |nu - mu|) for the exponential measure mu,
    normalized by the exact CUE moment, and the thick-point measure nu, both
    of the whole circle at theorem-scale gamma."""
    mu = exp_measure_integral(field, gamma, cue_exp_normalizer(n, gamma))
    nu = thick_measure_integral(field, gamma, n)
    return mu, nu, abs(nu - mu)

"""Random measures built from field values on a grid: the exponential
(chaos) measure, the thick-point measure, the barrier diagnostic and the
Fyodorov-Keating mass.

A field is the plain (M,) array of its values at theta_i = 2 pi i / M, on
the theorem scale X_N = sqrt(2) log|p_N|; a -inf value marks a grid point
on an eigenvalue, which is never thick and carries no exponential mass.
Every measure is a plain average over the M grid points, matching the
(1/2pi) d theta convention, so totals are directly comparable with the
deterministic normalizers.  The thick-point set {X >= gamma log N + shift}
has one indicator, thick_indicator; the thick-point measure, the barrier's
complement and the Fyodorov-Keating mass each count its points, divide by
M and then by their own denominator.  gamma is on the theorem scale
throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .special_fn import SQRT2, cue_abs_moment_exact, fk_normalizer, thickpoint_prob_asymptotic


def cue_exp_normalizer(n: int, gamma_theorem: float) -> float:
    """Exact E e^{gamma X_N} = E|det|^{sqrt(2) gamma} from the finite-N formula."""
    return float(cue_abs_moment_exact(n, SQRT2 * gamma_theorem).real)


def exp_measure_integral(field: np.ndarray, gamma: float, normalizer: float) -> float:
    """Grid-average realization of the normalized exponential measure:
    (1/M) sum e^{gamma X(theta_i)} / normalizer."""
    if not normalizer > 0.0:
        raise ValueError(f"normalizer must be strictly positive, got {normalizer}")
    return float(np.mean(np.exp(gamma * field))) / normalizer


def thick_indicator(field: np.ndarray, gamma: float, n: int, shift: float = 0.0) -> np.ndarray:
    """1{X(theta_i) >= gamma log N + shift} on the grid, as booleans."""
    return field >= gamma * math.log(n) + shift


def thick_measure_integral(field: np.ndarray, gamma: float, n: int, shift: float = 0.0) -> float:
    """Grid-average thick-point measure: the fraction of grid points with
    X >= gamma log N + shift over the moderate-deviation asymptotic of
    P(X >= gamma log N)."""
    thick = thick_indicator(field, gamma, n, shift)
    denominator = thickpoint_prob_asymptotic(n, gamma)
    return np.count_nonzero(thick) / field.size / denominator


def fk_normalized_mass(field: np.ndarray, gamma: float, n: int) -> float:
    """Thick-point volume {X >= gamma log N} over the Fyodorov-Keating
    normalizer, which takes log|p_N| = X / sqrt(2) and so gamma / sqrt(2);
    converges in law to the Frechet-type variable."""
    thick = thick_indicator(field, gamma, n)
    return np.count_nonzero(thick) / field.size / fk_normalizer(n, gamma / SQRT2)


def barrier_mask(truncated: np.ndarray, gamma: float, eta: float, levels) -> np.ndarray:
    """The barrier for every start level: row i is the per-grid-point
    conjunction of the constraints X_{N, e^{-k}} <= (gamma + eta) k over the
    levels k = levels[j], j >= i.

    truncated holds X_{N, e^{-k}} one row per level, in any layout of the
    grid that the rows share; the masks come in that shape.  The rows are
    compared once, then joined in place from the deepest level up, so each
    is read once.  Raises ValueError unless there is one row per level.
    """
    if len(truncated) != len(levels):
        raise ValueError(f"{len(truncated)} truncated fields for {len(levels)} levels")
    bounds = (gamma + eta) * np.reshape(levels, (-1,) + (1,) * (truncated.ndim - 1))
    masks = truncated <= bounds
    for i in reversed(range(len(masks) - 1)):
        masks[i] &= masks[i + 1]
    return masks


def barrier_violations(
    field: np.ndarray, gamma: float, n: int, eta: float, levels: list[int], truncated: np.ndarray
) -> list[float]:
    """Thick-point measure of the barrier's complement for every start level
    ell' in levels: nu(1 - barrier_mask) with the constraints k in
    [ell', levels[-1]], in the order of the levels.

    truncated holds the values of X_{N, e^{-k}} on the grid, one row per
    level, in the coset layout (len(levels), Q, P) of cue.truncated_field.
    The rows are not reordered: the thick-point indicator, a byte per point,
    is formed once and put in their layout.
    """
    cosets, length = truncated.shape[1:] if truncated.ndim == 3 else (0, 0)
    if truncated.shape[:1] != (len(levels),) or cosets * length != field.size:
        raise ValueError(
            f"truncated fields of shape {truncated.shape} do not lay out {len(levels)} levels "
            f"over the field of shape {field.shape} as (levels, Q, P) with Q P = {field.size}"
        )
    thick = np.ascontiguousarray(thick_indicator(field, gamma, n).reshape(length, cosets).T)
    denominator = thickpoint_prob_asymptotic(n, gamma)
    masks = barrier_mask(truncated, gamma, eta, levels)
    return [np.count_nonzero(thick & ~mask) / field.size / denominator for mask in masks]


def l1_discrepancy(field: np.ndarray, gamma: float, n: int) -> tuple[float, float, float]:
    """Single-replica (mu, nu, |nu - mu|) for the exponential measure mu,
    normalized by the exact CUE moment, and the thick-point measure nu, both
    of the whole circle at theorem-scale gamma."""
    mu = exp_measure_integral(field, gamma, cue_exp_normalizer(n, gamma))
    nu = thick_measure_integral(field, gamma, n)
    return mu, nu, abs(nu - mu)

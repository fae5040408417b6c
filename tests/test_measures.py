import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_thickpoint_prob, mc_field_at, phi_coefficients
from thickpoints.cue import SQRT2, eval_field, sample_verblunsky
from thickpoints.measures import (
    barrier_mask,
    barrier_violations,
    cue_exp_normalizer,
    exp_measure_integral,
    fk_normalized_mass,
    l1_discrepancy,
    thick_indicator,
    thick_measure_integral,
)
from thickpoints.montecarlo import Experiment, ExperimentConfig, replica_stream, sample_field
from thickpoints.special_fn import fk_normalizer, thickpoint_prob_asymptotic


def flat_field(m, value):
    return np.full(m, float(value))


def asymptotic_prob(n, gamma):
    return thickpoint_prob_asymptotic(n, gamma)


class TestExpMeasureIntegral:
    def test_zero_gamma_is_grid_average(self):
        field = np.array([1.0, 2.0, 3.0, 4.0])
        got = exp_measure_integral(field, 0.0, 4.0)
        assert got == 0.25

    def test_constant_field_factorizes(self):
        field = flat_field(16, 2.0)
        norm = 3.0
        got = exp_measure_integral(field, 0.5, norm)
        assert got == pytest.approx(math.exp(1.0) / norm, rel=1e-14)

    def test_rejects_nonpositive_normalizer(self):
        for norm in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                exp_measure_integral(flat_field(4, 0.0), 0.5, norm)

    def test_expectation_is_one_over_cue_replicas(self):
        rng = np.random.default_rng(1)
        n, reps, gamma = 16, 4000, 0.5
        norm = cue_exp_normalizer(n, gamma)
        vals = np.empty(reps)
        for i in range(reps):
            field = eval_field(phi_coefficients(sample_verblunsky(n, rng)), 16 * n).values
            vals[i] = exp_measure_integral(field, gamma, norm)
        se = float(vals.std(ddof=1) / math.sqrt(reps))
        assert abs(float(vals.mean()) - 1.0) <= 4.0 * se

    def test_positive_and_finite_every_replica(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            field = eval_field(phi_coefficients(sample_verblunsky(8, rng)), 128).values
            v = exp_measure_integral(field, 1.2, cue_exp_normalizer(8, 1.2))
            assert 0.0 < v < math.inf


class TestThickMeasureIntegral:
    def test_field_below_threshold_gives_zero(self):
        assert thick_measure_integral(flat_field(32, -10.0), 0.5, 64) == 0.0

    def test_field_above_threshold_gives_inverse_denominator(self):
        got = thick_measure_integral(flat_field(32, 100.0), 0.5, 64)
        assert got == pytest.approx(1.0 / asymptotic_prob(64, 0.5), rel=1e-12)

    def test_threshold_tie_counts_as_thick(self):
        exact = 0.5 * math.log(64)
        got = thick_measure_integral(flat_field(8, exact), 0.5, 64)
        assert got > 0.0

    def test_nonincreasing_in_g(self):
        rng = np.random.default_rng(3)
        field = eval_field(phi_coefficients(sample_verblunsky(32, rng)), 512).values
        vals = [thick_measure_integral(field, 0.5, 32, shift) for shift in (-1.0, 0.0, 1.0)]
        assert vals[0] >= vals[1] >= vals[2]

    @pytest.mark.slow
    def test_replica_mean_with_supplied_exact_probability(self):
        # rescaled from the asymptotic denominator to an independent estimate
        # of the true finite-N probability, the mean of nu(1) must be 1 up to
        # MC noise; so must it when rescaled by the exact probability, which
        # every grid point shares by rotation invariance
        rng = np.random.default_rng(5)
        n, gamma = 256, 0.6
        draws = 200_000
        x0 = mc_field_at(n, [0.0], draws, rng)[:, 0]
        p_freq = float(np.mean(x0 >= gamma * math.log(n)))
        p_exact = exact_thickpoint_prob(n, gamma)
        assert abs(p_freq - p_exact) <= 4.0 * math.sqrt(p_exact * (1.0 - p_exact) / draws)
        reps = 3000
        nu = np.empty(reps)
        for i in range(reps):
            field = eval_field(phi_coefficients(sample_verblunsky(n, rng)), 16 * n).values
            nu[i] = thick_measure_integral(field, gamma, n)
        for p in (p_freq, p_exact):
            vals = nu * (asymptotic_prob(n, gamma) / p)
            se = float(vals.std(ddof=1) / math.sqrt(reps))
            assert abs(float(vals.mean()) - 1.0) <= 4.0 * se + 0.01

    @pytest.mark.slow
    def test_replica_mean_with_asymptotic_denominator(self):
        # the moderate-deviation denominator still carries a ~20% bias at
        # N=256; assert the mean lands inside that window
        rng = np.random.default_rng(6)
        n, gamma, reps = 256, 0.6, 3000
        vals = np.empty(reps)
        for i in range(reps):
            field = eval_field(phi_coefficients(sample_verblunsky(n, rng)), 16 * n).values
            vals[i] = thick_measure_integral(field, gamma, n)
        assert float(vals.mean()) == pytest.approx(1.0, rel=0.25)


class TestFkNormalizedMass:
    def test_empty_thick_set(self):
        assert fk_normalized_mass(flat_field(16, -50.0), SQRT2 * 0.3, 64) == 0.0

    def test_full_circle_thick(self):
        got = fk_normalized_mass(flat_field(16, 100.0), SQRT2 * 0.3, 64)
        assert got == pytest.approx(1.0 / fk_normalizer(64, 0.3), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.3])
    def test_rejects_out_of_range_gamma(self, gamma):
        with pytest.raises(ValueError):
            fk_normalized_mass(flat_field(16, 0.0), SQRT2 * gamma, 64)

    @pytest.mark.parametrize("gamma_conj", [0.1, 0.3, 0.7])
    def test_counts_the_thick_set_at_sqrt2_gamma(self, gamma_conj):
        # nu and the FK mass count one thick set: X >= sqrt(2) gamma_c log N
        rng = np.random.default_rng(11)
        n = 64
        for _ in range(20):
            field = rng.normal(0.0, 3.0, 512)
            thick = thick_indicator(field, SQRT2 * gamma_conj, n)
            volume = np.count_nonzero(thick) / field.size
            got = fk_normalized_mass(field, SQRT2 * gamma_conj, n) * fk_normalizer(n, gamma_conj)
            assert got == pytest.approx(volume, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma_conj", [0.1, 0.3, 0.7])
    def test_threshold_tie_counts_as_thick(self, gamma_conj):
        tie = flat_field(8, SQRT2 * gamma_conj * math.log(64))
        assert fk_normalized_mass(tie, SQRT2 * gamma_conj, 64) > 0.0


class TestBarrierMask:
    def test_all_zero_fields_pass(self):
        masks = barrier_mask(np.zeros((3, 8)), 0.5, 0.2, [2, 3, 4])
        assert masks.shape == (3, 8) and np.all(masks)

    def test_single_violation_flips_one_point(self):
        truncated = np.zeros((2, 8))
        truncated[1, 5] = 10.0  # exceeds (gamma+eta)*3
        masks = barrier_mask(truncated, 0.5, 0.2, [2, 3])
        # the deepest level's constraint holds for both start levels
        for mask in masks:
            assert not mask[5]
            assert np.sum(~mask) == 1

    def test_missing_scale_raises(self):
        with pytest.raises(ValueError, match="1 truncated fields for 3 levels"):
            barrier_mask(np.zeros((1, 8)), 0.5, 0.2, [2, 3, 4])

    def test_empty_levels_take_the_row_size(self):
        masks = barrier_mask(np.zeros((0, 2, 4)), 0.5, 0.2, [])
        assert masks.shape == (0, 2, 4) and masks.dtype == bool


class TestBarrierViolations:
    # two levels over a field of 8 points: a row too many, a row too few, a
    # layout of 12 points and a grid-order (levels, M) array
    @pytest.mark.parametrize("shape", [(3, 2, 4), (1, 2, 4), (2, 3, 4), (2, 8)])
    def test_refuses_truncated_fields_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError) as refused:
            barrier_violations(flat_field(8, 10.0), 0.5, 16, 0.2, [1, 2], np.zeros(shape))
        assert str(shape) in str(refused.value) and "(8,)" in str(refused.value)


class TestMeasureProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 6),
        ells=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(sorted),
    )
    def test_barrier_mask_grows_with_ell(self, seed, depth, ells):
        # a larger ell drops constraints, so every point that passes the
        # smaller ell's barrier passes the larger one's; a start level past
        # the depth has no constraint
        rng = np.random.default_rng(seed)
        truncated = rng.normal(0.0, 1.0, (depth, 32)) * np.arange(1, depth + 1)[:, None]
        masks = barrier_mask(truncated, 0.5, 0.2, range(1, depth + 1))
        no_constraint = np.ones(32, dtype=bool)
        small, large = (masks[ell - 1] if ell <= depth else no_constraint for ell in ells)
        assert np.all(large[small])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.lists(st.integers(1, 9), max_size=6),
        layout=st.sampled_from([(16,), (4, 4), (2, 3, 5)]),
        eta=st.floats(0.05, 0.95),
    )
    def test_barrier_mask_rows_are_the_naive_conjunctions(self, seed, levels, layout, eta):
        rng = np.random.default_rng(seed)
        truncated = rng.normal(0.0, 2.0, (len(levels), *layout))
        masks = barrier_mask(truncated, 0.5, eta, levels)
        assert masks.shape == truncated.shape
        for i in range(len(levels)):
            naive = np.ones(layout, dtype=bool)
            for j in range(i, len(levels)):
                naive = naive & (truncated[j] <= (0.5 + eta) * levels[j])
            assert np.array_equal(masks[i], naive)


class TestL1Discrepancy:
    def test_rejects_gamma_zero(self):
        field = flat_field(8, 0.0)
        with pytest.raises(ValueError):
            l1_discrepancy(field, 0.0, 16)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        field = eval_field(phi_coefficients(sample_verblunsky(16, rng)), 256).values
        assert l1_discrepancy(field, 0.5, 16) == l1_discrepancy(field, 0.5, 16)

    def test_discrepancy_is_absolute_difference(self):
        rng = np.random.default_rng(8)
        field = eval_field(phi_coefficients(sample_verblunsky(16, rng)), 256).values
        mu, nu, discrepancy = l1_discrepancy(field, 0.5, 16)
        assert discrepancy == pytest.approx(abs(nu - mu), abs=1e-15)
        assert mu >= 0.0 and nu >= 0.0



@pytest.mark.filterwarnings("error")
class TestSingularGridPoint:
    # eval_field writes -inf where a grid point lies on an eigenvalue: the
    # alpha = -1 spectrum has its eigenvalue at angle pi, the third of four
    # points.  At gamma = 0.5, n = 2 the threshold 0.5 log 2 lies below the
    # three finite values, so exactly they are thick.
    gamma, n = 0.5, 2

    @pytest.fixture
    def field(self):
        values = eval_field(phi_coefficients(np.array([-1.0 + 0.0j])), 4).values
        assert np.isneginf(values[2]) and np.all(np.isfinite(np.delete(values, 2)))
        assert np.all(np.delete(values, 2) >= self.gamma * math.log(self.n))
        return values

    def test_l1_discrepancy_weighs_the_point_zero(self, field):
        mu, nu, discrepancy = l1_discrepancy(field, self.gamma, self.n)
        finite = np.delete(field, 2)
        expected_mu = float(np.sum(np.exp(self.gamma * finite))) / 4.0
        assert mu == pytest.approx(expected_mu / cue_exp_normalizer(self.n, self.gamma), rel=1e-14)
        assert nu == pytest.approx(0.75 / asymptotic_prob(self.n, self.gamma), rel=1e-14)
        assert math.isfinite(discrepancy)

    def test_nu_counts_the_point_as_not_thick(self, field):
        assert not thick_indicator(field, self.gamma, self.n)[2]
        got = thick_measure_integral(field, self.gamma, self.n)
        assert got == pytest.approx(0.75 / asymptotic_prob(self.n, self.gamma), rel=1e-14)

    def test_fk_mass_counts_the_point_as_not_thick(self, field):
        got = fk_normalized_mass(field, self.gamma, self.n)
        expected = 0.75 / fk_normalizer(self.n, self.gamma / SQRT2)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_barrier_violations_count_the_point_as_not_thick(self, field):
        # every grid point breaks both levels' constraints; one coset of four
        truncated = np.full((2, 1, 4), 10.0)
        got = barrier_violations(field, self.gamma, self.n, 0.2, [1, 2], truncated)
        expected = 0.75 / asymptotic_prob(self.n, self.gamma)
        assert got == pytest.approx([expected, expected], rel=1e-14)


class TestCueExpNormalizer:
    def test_matches_exact_moment(self):
        from thickpoints.special_fn import cue_abs_moment_exact

        got = cue_exp_normalizer(16, 0.5)
        assert got == pytest.approx(cue_abs_moment_exact(16, 0.5 * math.sqrt(2)).real, rel=1e-13)


class TestGridBudget:
    # the same spectra on grids of 16n and 128n points.  Over 200 replicas at
    # n = 1024 and 60 at n = 4096 (gamma = 0.5), mu's worst relative
    # difference was 3.6e-4 and 1.7e-4, and nu's worst absolute difference
    # 0.0049 and 0.0027
    @pytest.mark.parametrize("n, nu_budget", [(1024, 0.01), (4096, 0.006)])
    def test_coarse_grid_within_budget_of_fine(self, n, nu_budget):
        gamma = 0.5
        config = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, n=n, gamma=gamma)
        norm = cue_exp_normalizer(n, gamma)
        for i in range(8):
            coefficients, coarse = sample_field(config, replica_stream(0, i))
            fine = eval_field(coefficients[0], 128 * n).values
            mu_coarse, mu_fine = (exp_measure_integral(f, gamma, norm) for f in (coarse, fine))
            nu_coarse, nu_fine = (thick_measure_integral(f, gamma, n) for f in (coarse, fine))
            assert abs(mu_coarse - mu_fine) <= 8e-4 * mu_fine
            assert abs(nu_coarse - nu_fine) <= nu_budget

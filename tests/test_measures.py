import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mc_field_at, phi_coefficients
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
        # MC noise
        rng = np.random.default_rng(5)
        n, gamma = 256, 0.6
        x0 = mc_field_at(n, [0.0], 200_000, rng)[:, 0]
        p_exact = float(np.mean(x0 >= gamma * math.log(n)))
        rescale = asymptotic_prob(n, gamma) / p_exact
        reps = 3000
        vals = np.empty(reps)
        for i in range(reps):
            field = eval_field(phi_coefficients(sample_verblunsky(n, rng)), 16 * n).values
            vals[i] = thick_measure_integral(field, gamma, n) * rescale
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
        fields = {k: flat_field(8, 0.0) for k in (2, 3, 4)}
        assert np.all(barrier_mask(fields, 0.5, 0.2, [2, 3, 4]))

    def test_single_violation_flips_one_point(self):
        values2 = np.zeros(8)
        values3 = np.zeros(8)
        values3[5] = 10.0  # exceeds (gamma+eta)*3
        fields = {2: values2, 3: values3}
        mask = barrier_mask(fields, 0.5, 0.2, [2, 3])
        assert not mask[5]
        assert np.sum(~mask) == 1

    def test_missing_scale_raises(self):
        with pytest.raises(ValueError):
            barrier_mask({2: flat_field(8, 0.0)}, 0.5, 0.2, [2, 3, 4])

    def test_empty_levels_mask_all_true(self):
        mask = barrier_mask({}, 0.5, 0.2, [])
        assert mask.dtype == bool and np.all(mask)


class TestMeasureProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 6),
        ells=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(sorted),
    )
    def test_barrier_mask_grows_with_ell(self, seed, depth, ells):
        # a larger ell drops constraints, so every point that passes the
        # smaller ell's barrier passes the larger one's
        rng = np.random.default_rng(seed)
        fields = {k: rng.normal(0.0, k, 32) for k in range(1, depth + 1)}
        small, large = (barrier_mask(fields, 0.5, 0.2, range(ell, depth + 1)) for ell in ells)
        assert np.all(large[small])


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
        # every grid point breaks both levels' constraints
        truncated = np.full((2, 4), 10.0)
        got = barrier_violations(field, self.gamma, self.n, 0.2, [1, 2], truncated)
        expected = 0.75 / asymptotic_prob(self.n, self.gamma)
        assert got == pytest.approx([expected, expected], rel=1e-14)


class TestCueExpNormalizer:
    def test_matches_exact_moment(self):
        from thickpoints.special_fn import cue_abs_moment_exact

        got = cue_exp_normalizer(16, 0.5)
        assert got == pytest.approx(cue_abs_moment_exact(16, 0.5 * math.sqrt(2)).real, rel=1e-13)

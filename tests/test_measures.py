import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mc_field_at
from thickpoints.cue import FieldSample, eval_field, sample_verblunsky
from thickpoints.measures import (
    BarrierSpec,
    ThickPointSpec,
    barrier_mask,
    cue_exp_normalizer,
    exp_measure_integral,
    fk_normalized_mass,
    l1_discrepancy,
    thick_measure_integral,
)
from thickpoints.special_fn import fk_normalizer


def flat_field(m, value):
    return FieldSample(np.full(m, float(value)))


class TestExpMeasureIntegral:
    def test_zero_gamma_is_grid_average(self):
        field = flat_field(4, 1.7)
        f = np.array([1.0, 2.0, 3.0, 4.0])
        got = exp_measure_integral(field, 0.0, np.ones(4), f)
        assert got == pytest.approx(2.5, abs=1e-15)

    def test_constant_field_factorizes(self):
        field = flat_field(16, 2.0)
        norm = 3.0
        got = exp_measure_integral(field, 0.5, np.full(16, norm))
        assert got == pytest.approx(math.exp(1.0) / norm, rel=1e-14)

    def test_linear_in_f(self):
        rng = np.random.default_rng(0)
        field = eval_field(sample_verblunsky(8, rng), 64)
        f1 = rng.random(64)
        f2 = rng.random(64)
        a = exp_measure_integral(field, 0.5, 1.0, f1)
        b = exp_measure_integral(field, 0.5, 1.0, f2)
        both = exp_measure_integral(field, 0.5, 1.0, 2.0 * f1 + 3.0 * f2)
        assert both == pytest.approx(2.0 * a + 3.0 * b, rel=1e-12)

    def test_rejects_nonpositive_normalizer(self):
        with pytest.raises(ValueError):
            exp_measure_integral(flat_field(4, 0.0), 0.5, np.zeros(4))

    def test_expectation_is_one_over_cue_replicas(self):
        rng = np.random.default_rng(1)
        n, reps, gamma = 16, 4000, 0.5
        norm = cue_exp_normalizer(n, gamma)
        vals = np.empty(reps)
        for i in range(reps):
            field = eval_field(sample_verblunsky(n, rng), 16 * n)
            vals[i] = exp_measure_integral(field, gamma, norm)
        se = float(vals.std(ddof=1) / math.sqrt(reps))
        assert abs(float(vals.mean()) - 1.0) <= 4.0 * se

    def test_positive_and_finite_every_replica(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            field = eval_field(sample_verblunsky(8, rng), 128)
            v = exp_measure_integral(field, 1.2, cue_exp_normalizer(8, 1.2))
            assert 0.0 < v < math.inf


class TestThickMeasureIntegral:
    def test_field_below_threshold_gives_zero(self):
        spec = ThickPointSpec(0.5)
        assert thick_measure_integral(flat_field(32, -10.0), spec, 64) == 0.0

    def test_field_above_threshold_gives_inverse_denominator(self):
        spec = ThickPointSpec(0.5)
        got = thick_measure_integral(flat_field(32, 100.0), spec, 64)
        assert got == pytest.approx(1.0 / spec.denominator(64), rel=1e-12)

    def test_threshold_tie_counts_as_thick(self):
        spec = ThickPointSpec(0.5)
        exact = 0.5 * math.log(64)
        got = thick_measure_integral(flat_field(8, exact), spec, 64)
        assert got > 0.0

    def test_nonincreasing_in_g(self):
        rng = np.random.default_rng(3)
        field = eval_field(sample_verblunsky(32, rng), 512)
        vals = [
            thick_measure_integral(field, ThickPointSpec(0.5, g=g), 32)
            for g in (-1.0, 0.0, 1.0)
        ]
        assert vals[0] >= vals[1] >= vals[2]

    def test_linear_in_f(self):
        rng = np.random.default_rng(4)
        field = eval_field(sample_verblunsky(16, rng), 256)
        spec = ThickPointSpec(0.4)
        f1 = rng.random(256)
        f2 = rng.random(256)
        a = thick_measure_integral(field, spec, 16, f1)
        b = thick_measure_integral(field, spec, 16, f2)
        both = thick_measure_integral(field, spec, 16, f1 + 2.0 * f2)
        assert both == pytest.approx(a + 2.0 * b, rel=1e-12)

    def test_supplied_denominator_mode(self):
        spec = ThickPointSpec(0.5, supplied_denominator=0.25)
        got = thick_measure_integral(flat_field(8, 100.0), spec, 64)
        assert got == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf, 1.5])
    def test_rejects_supplied_denominator_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            ThickPointSpec(0.5, supplied_denominator=p)

    @pytest.mark.slow
    def test_replica_mean_with_supplied_exact_probability(self):
        # with the denominator set to an independent estimate of the true
        # finite-N probability, the mean of nu(1) must be 1 up to MC noise
        rng = np.random.default_rng(5)
        n, gamma = 256, 0.6
        x0 = mc_field_at(n, [0.0], 200_000, rng)[:, 0]
        p_exact = float(np.mean(x0 >= gamma * math.log(n)))
        spec = ThickPointSpec(gamma, supplied_denominator=p_exact)
        reps = 3000
        vals = np.empty(reps)
        for i in range(reps):
            field = eval_field(sample_verblunsky(n, rng), 16 * n)
            vals[i] = thick_measure_integral(field, spec, n)
        se = float(vals.std(ddof=1) / math.sqrt(reps))
        assert abs(float(vals.mean()) - 1.0) <= 4.0 * se + 0.01

    @pytest.mark.slow
    def test_replica_mean_with_asymptotic_denominator(self):
        # the moderate-deviation denominator still carries a ~20% bias at
        # N=256; assert the mean lands inside that window
        rng = np.random.default_rng(6)
        n, gamma, reps = 256, 0.6, 3000
        spec = ThickPointSpec(gamma)
        vals = np.empty(reps)
        for i in range(reps):
            field = eval_field(sample_verblunsky(n, rng), 16 * n)
            vals[i] = thick_measure_integral(field, spec, n)
        assert float(vals.mean()) == pytest.approx(1.0, rel=0.25)


class TestFkNormalizedMass:
    def test_empty_thick_set(self):
        assert fk_normalized_mass(flat_field(16, -50.0), 0.3, 64) == 0.0

    def test_full_circle_thick(self):
        got = fk_normalized_mass(flat_field(16, 100.0), 0.3, 64)
        assert got == pytest.approx(1.0 / fk_normalizer(64, 0.3), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.3])
    def test_rejects_out_of_range_gamma(self, gamma):
        with pytest.raises(ValueError):
            fk_normalized_mass(flat_field(16, 0.0), gamma, 64)


class TestBarrierSpec:
    def test_auto_depth(self):
        assert BarrierSpec.auto_depth(1024, 0.2) == int(0.8 * math.log(1024))

    def test_levels_and_scales(self):
        spec = BarrierSpec(0.5, 0.2, 2, 5)
        assert spec.levels == [2, 3, 4, 5]
        assert spec.scale(3) == pytest.approx(math.exp(-3.0))

    def test_empty_range_allowed(self):
        assert BarrierSpec(0.5, 0.2, 6, 5).levels == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BarrierSpec(0.5, 0.2, 0, 5)
        with pytest.raises(ValueError):
            BarrierSpec(0.5, -0.1, 2, 5)


class TestBarrierMask:
    def test_all_zero_fields_pass(self):
        spec = BarrierSpec(0.5, 0.2, 2, 4)
        fields = {k: flat_field(8, 0.0) for k in (2, 3, 4)}
        assert np.all(barrier_mask(fields, spec))

    def test_single_violation_flips_one_point(self):
        spec = BarrierSpec(0.5, 0.2, 2, 3)
        values2 = np.zeros(8)
        values3 = np.zeros(8)
        values3[5] = 10.0  # exceeds (gamma+eta)*3
        fields = {2: FieldSample(values2), 3: FieldSample(values3)}
        mask = barrier_mask(fields, spec)
        assert not mask[5]
        assert np.sum(~mask) == 1

    def test_missing_scale_raises(self):
        spec = BarrierSpec(0.5, 0.2, 2, 4)
        with pytest.raises(ValueError):
            barrier_mask({2: flat_field(8, 0.0)}, spec)

    def test_empty_levels_mask_all_true(self):
        spec = BarrierSpec(0.5, 0.2, 7, 5)
        mask = barrier_mask({}, spec)
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
        fields = {k: FieldSample(rng.normal(0.0, k, 32)) for k in range(1, depth + 1)}
        small, large = (barrier_mask(fields, BarrierSpec(0.5, 0.2, ell, depth)) for ell in ells)
        assert np.all(large[small])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(-10.0, 10.0),
        b=st.floats(-10.0, 10.0),
        gamma=st.floats(0.05, 1.4),
    )
    @example(seed=0, a=0.0, b=2.2250738585e-313, gamma=1.0)
    def test_measures_are_linear_in_f(self, seed, a, b, gamma):
        rng = np.random.default_rng(seed)
        field = FieldSample(rng.normal(0.0, 3.0, 48))
        f1, f2 = rng.uniform(-1.0, 1.0, (2, 48))
        norm = cue_exp_normalizer(64, gamma)
        spec = ThickPointSpec(gamma)
        for integral in (
            lambda f: exp_measure_integral(field, gamma, norm, f),
            lambda f: thick_measure_integral(field, spec, 64, f),
        ):
            scale = abs(a) * integral(np.abs(f1)) + abs(b) * integral(np.abs(f2))
            combined = integral(a * f1 + b * f2)
            # a relative bound underflows for subnormal a or b, where each of
            # the 48 grid terms can round by one subnormal ulp
            bound = 1e-13 * scale + 48 * 2.0**-1074
            assert abs(combined - (a * integral(f1) + b * integral(f2))) <= bound


class TestL1Discrepancy:
    def test_rejects_gamma_zero(self):
        field = flat_field(8, 0.0)
        with pytest.raises(ValueError):
            l1_discrepancy(field, ThickPointSpec(0.0), 16)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        field = eval_field(sample_verblunsky(16, rng), 256)
        spec = ThickPointSpec(0.5)
        assert l1_discrepancy(field, spec, 16) == l1_discrepancy(field, spec, 16)

    def test_discrepancy_is_absolute_difference(self):
        rng = np.random.default_rng(8)
        field = eval_field(sample_verblunsky(16, rng), 256)
        mu, nu, discrepancy = l1_discrepancy(field, ThickPointSpec(0.5), 16)
        assert discrepancy == pytest.approx(abs(nu - mu), abs=1e-15)
        assert mu >= 0.0 and nu >= 0.0

    def test_constant_g_reweights_mu(self):
        rng = np.random.default_rng(9)
        field = eval_field(sample_verblunsky(16, rng), 256)
        c = 0.7
        spec = ThickPointSpec(0.5, g=c)
        mu, _, _ = l1_discrepancy(field, spec, 16)
        base, _, _ = l1_discrepancy(field, ThickPointSpec(0.5), 16)
        assert mu == pytest.approx(math.exp(-0.5 * c) * base, rel=1e-12)

    def test_mu_normalizer_override(self):
        rng = np.random.default_rng(10)
        field = eval_field(sample_verblunsky(16, rng), 256)
        spec = ThickPointSpec(0.5)
        mu, _, _ = l1_discrepancy(field, spec, 16, mu_normalizer=2.0)
        base, _, _ = l1_discrepancy(field, spec, 16, mu_normalizer=1.0)
        assert mu == pytest.approx(base / 2.0, rel=1e-12)


class TestCueExpNormalizer:
    def test_matches_exact_moment(self):
        from thickpoints.special_fn import cue_abs_moment_exact

        got = cue_exp_normalizer(16, 0.5)
        assert got == pytest.approx(cue_abs_moment_exact(16, 0.5 * math.sqrt(2)).real, rel=1e-13)

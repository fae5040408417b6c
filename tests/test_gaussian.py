import math

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from thickpoints import gaussian
from thickpoints.gaussian import gaussian_exp_normalizer, harmonic_number, sample_circle_field
from thickpoints.kernels import doubly_mollified_kernel, real_fourier_grid, to_grid_order
from conftest import (
    circle_truncated_kernel,
    kappa,
    ks_critical_value,
    ks_statistic,
    mp_fourier_sum,
)


class TestHarmonicNumber:
    def test_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25.0 / 12.0, abs=1e-14)


class TestSampleCircleField:
    def test_single_mode_is_exact_cosine_combination(self):
        rng = np.random.default_rng(0)
        field = to_grid_order(sample_circle_field(1, 64, [rng]))[0]
        check = np.random.default_rng(0)
        a = check.standard_normal(1)[0]
        b = check.standard_normal(1)[0]
        theta = 2.0 * np.pi * np.arange(64) / 64
        expected = a * np.cos(theta) + b * np.sin(theta)
        assert np.max(np.abs(field - expected)) < 1e-12

    @pytest.mark.parametrize("kmax, m", [(4, 8), (7, 8), (5, 6), (10, 11), (64, 80), (512, 8192)])
    def test_matches_direct_sum_with_aliased_modes(self, kmax, m):
        # modes at and above m/2 alias onto the grid; the sum is still exact there
        field = to_grid_order(sample_circle_field(kmax, m, [np.random.default_rng(kmax)]))[0]
        check = np.random.default_rng(kmax)
        a = check.standard_normal(kmax)
        b = check.standard_normal(kmax)
        k = np.arange(1, kmax + 1)
        phase = np.outer(2.0 * np.pi * np.arange(m) / m, k)
        expected = (np.cos(phase) * a + np.sin(phase) * b) @ (1.0 / np.sqrt(k))
        assert np.max(np.abs(field - expected)) < 1e-11

    @pytest.mark.parametrize("kmax, m, step", [(512, 8192, 67), (16, 32, 1), (7, 35, 1)])
    def test_against_mpmath_direct_sum(self, kmax, m, step):
        # budget 1e-15 of sum_k (|A_k| + |B_k|) / sqrt(k); measured at most 1.6e-16 of it
        field = to_grid_order(sample_circle_field(kmax, m, [np.random.default_rng(kmax)]))[0]
        check = np.random.default_rng(kmax)
        a = check.standard_normal(kmax)
        b = check.standard_normal(kmax)
        indices = range(0, m, step)
        # A cos + B sin = Re((A - iB) e^{ik theta})
        ref = mp_fourier_sum(a - 1j * b, lambda k: 1 / mpmath.sqrt(k), m, indices)
        scale = np.sum((np.abs(a) + np.abs(b)) / np.sqrt(np.arange(1, kmax + 1)))
        assert np.max(np.abs(field[::step] - ref)) <= 1e-15 * scale

    def test_single_mode_variance_and_covariance(self):
        rng = np.random.default_rng(1)
        reps = 50_000
        x0 = np.empty(reps)
        x1 = np.empty(reps)
        for i in range(reps):
            f = to_grid_order(sample_circle_field(1, 6, [rng]))[0]  # grid step pi/3
            x0[i], x1[i] = f[0], f[1]
        assert float(x0.var(ddof=1)) == pytest.approx(1.0, abs=0.03)
        cov = float(np.mean(x0 * x1))
        assert cov == pytest.approx(math.cos(math.pi / 3.0), abs=0.03)

    def test_empirical_covariance_matches_truncated_kernel(self):
        rng = np.random.default_rng(2)
        kmax, reps = 256, 30_000
        m = 516  # index 86 sits at angle pi/3
        x0 = np.empty(reps)
        xd = np.empty(reps)
        for i in range(reps):
            f = to_grid_order(sample_circle_field(kmax, m, [rng]))[0]
            x0[i], xd[i] = f[0], f[86]
        target = circle_truncated_kernel(0.0, 2.0 * math.pi * 86 / m, kmax)
        cov = float(np.mean(x0 * xd))
        se = float(np.std(x0 * xd, ddof=1) / math.sqrt(reps))
        assert abs(cov - target) <= 4.0 * se

    def test_gaussianity_at_a_point(self):
        rng = np.random.default_rng(3)
        kmax, reps = 64, 10_000
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = to_grid_order(sample_circle_field(kmax, 80, [rng]))[0, 0]
        vals /= math.sqrt(harmonic_number(kmax))
        d = ks_statistic(vals, norm.cdf)
        assert d < ks_critical_value(reps, 0.01)

    def test_stationarity_of_covariance(self):
        rng = np.random.default_rng(4)
        kmax, reps, m = 16, 40_000, 64
        step = 8  # common separation
        anchors = range(0, m, m // 8)
        # the rows read the one generator in turn
        draws = to_grid_order(sample_circle_field(kmax, m, [rng] * reps))
        covs = []
        ses = []
        for a in anchors:
            prod = draws[:, a] * draws[:, (a + step) % m]
            covs.append(float(prod.mean()))
            ses.append(float(prod.std(ddof=1) / math.sqrt(reps)))
        spread = max(covs) - min(covs)
        assert spread < 4.0 * (max(ses) + min(ses))

    def test_analytic_variance_property(self):
        # Var X(theta) = H_kmax at every grid point
        rng = np.random.default_rng(6)
        kmax, reps = 8, 20_000
        draws = to_grid_order(sample_circle_field(kmax, 16, [rng] * reps))
        target = harmonic_number(kmax)
        se = target * math.sqrt(2.0 / (reps - 1))  # stderr of a variance estimate
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - target) <= 5.0 * se)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sample_circle_field(0, 16, [rng])
        with pytest.raises(ValueError):
            sample_circle_field(16, 16, [rng])

    def test_returns_the_grid_transform_itself(self, monkeypatch):
        # gaussian-gmc's grid of 16 kmax points leaves 4 cosets; the field is
        # the transform's own (R, Q, P) array, not a reordered copy
        made = []

        def recorded(modes, grid_size):
            made.append(real_fourier_grid(modes, grid_size))
            return made[-1]

        monkeypatch.setattr(gaussian, "real_fourier_grid", recorded)
        rng = np.random.default_rng(9)
        field = sample_circle_field(64, 16 * 64, [rng, rng])
        assert made[0].shape == field.shape == (2, 4, 256)
        assert np.shares_memory(field, made[0])


class TestMollifiedGaussianField:
    """The covariance of the bump-mollified field on [0, 1]:
    Cov(X_delta(x), X_delta(y)) = C_{delta,delta}(x, y)."""

    @staticmethod
    def covariance(x: float, y: float, delta: float) -> float:
        return doubly_mollified_kernel(x, y, delta, delta, domain=(0.0, 1.0))

    def test_single_point_variance_is_log_scale_plus_kappa(self):
        delta = 1.0 / 64.0
        assert self.covariance(0.5, 0.5, delta) == pytest.approx(
            math.log(1.0 / delta) + kappa(), abs=1e-8
        )

    def test_halving_scale_adds_log_two_to_variance(self):
        v1 = self.covariance(0.5, 0.5, 1.0 / 64.0)
        v2 = self.covariance(0.5, 0.5, 1.0 / 128.0)
        assert v2 - v1 == pytest.approx(math.log(2.0), abs=0.05)

    def test_far_point_correlation_matches_log_kernel(self):
        assert self.covariance(0.3, 0.7, 1.0 / 64.0) == pytest.approx(-math.log(0.4), abs=2e-3)

    def test_rejects_grid_leaving_domain(self):
        with pytest.raises(ValueError):
            self.covariance(0.01, 0.01, 1.0 / 16.0)


class TestGaussianExpNormalizer:
    def test_zero_gamma(self):
        assert gaussian_exp_normalizer(3.7, 0.0) == 1.0

    def test_unit_case(self):
        assert gaussian_exp_normalizer(2.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            gaussian_exp_normalizer(1.0, -0.5)

    @pytest.mark.slow
    def test_matches_empirical_exponential_moment(self):
        rng = np.random.default_rng(10)
        kmax, reps, gamma = 64, 100_000, 0.5
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = math.exp(gamma * to_grid_order(sample_circle_field(kmax, 80, [rng]))[0, 0])
        target = gaussian_exp_normalizer(harmonic_number(kmax), gamma)
        se = float(vals.std(ddof=1) / math.sqrt(reps))
        assert abs(float(vals.mean()) - target) <= 4.0 * se

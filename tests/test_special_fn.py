import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from conftest import (
    SQRT2,
    circle_chord,
    circle_truncated_kernel,
    exact_thickpoint_prob,
    frechet_cdf,
    frechet_pdf,
    frechet_ppf,
    joint_moment_asymptotic,
    log_gamma,
    mc_field_at,
    psi,
    two_point_moment_asymptotic,
    weierstrass_log_barnes_g1p,
    weierstrass_log_psi,
)
from thickpoints import cue
from thickpoints.special_fn import (
    GammaConvention,
    _loggamma,
    cue_abs_moment_exact,
    fk_normalizer,
    log_barnes_g,
    log_cue_abs_moment_exact,
    log_psi,
    thickpoint_prob_asymptotic,
    to_theorem_scale,
)


# the orders and gammas of the normalizer budgets; gamma runs over 0.01..0.99
# of each convention's critical value
BUDGET_NS = (16, 1024, 10**6)
BUDGET_FRACTIONS = [k / 100 for k in range(1, 100)]


def mp_thickpoint_prob(n: int, g):
    """N^{-g^2/2} Psi(g) / (g sqrt(2 pi log N)) on the theorem scale, with
    Psi(g) = G(1 + g/sqrt 2)^2 / G(1 + sqrt 2 g) by mpmath.barnesg."""
    root2 = mpmath.sqrt(2)
    log_psi = 2 * mpmath.log(mpmath.barnesg(1 + g / root2)) - mpmath.log(mpmath.barnesg(1 + root2 * g))
    logn = mpmath.log(n)
    return mpmath.exp(-g * g / 2 * logn + log_psi - mpmath.log(g) - mpmath.log(2 * mpmath.pi * logn) / 2)

class TestConvention:
    def test_theorem_scale_passthrough(self):
        assert to_theorem_scale(0.7, GammaConvention.THEOREM) == 0.7

    def test_conjecture_scale_multiplies_by_sqrt2(self):
        assert to_theorem_scale(0.5, GammaConvention.CONJECTURE) == pytest.approx(0.5 * SQRT2)

    @pytest.mark.parametrize("gamma", [0.0, -0.1, SQRT2, 2.0])
    def test_theorem_range_is_open(self, gamma):
        with pytest.raises(ValueError):
            to_theorem_scale(gamma, GammaConvention.THEOREM)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.3])
    def test_conjecture_range_is_open(self, gamma):
        with pytest.raises(ValueError):
            to_theorem_scale(gamma, GammaConvention.CONJECTURE)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half(self):
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_at_five(self):
        assert log_gamma(5.0).real == pytest.approx(math.log(24.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_rejects_poles(self, z):
        with pytest.raises(ValueError):
            log_gamma(z)

    @pytest.mark.parametrize(
        "region", ["right half-plane", "strip by the imaginary axis", "positive reals"]
    )
    def test_against_mpmath(self, region):
        rng = np.random.default_rng(sum(map(ord, region)))
        size = 300
        if region == "right half-plane":
            z = rng.uniform(0.5, 40.0, size) + 1j * rng.uniform(-40.0, 40.0, size)
        elif region == "strip by the imaginary axis":
            z = rng.uniform(0.0, 0.5, size) + 1j * rng.uniform(-40.0, 40.0, size)
        else:
            z = 10.0 ** rng.uniform(-6, 4, size) + 0j
        with mpmath.workdps(30):
            reference = np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag))) for v in z])
        error = np.abs(_loggamma(z) - reference) / np.maximum(np.abs(reference), 1.0)
        assert error.max() <= 1e-14

    def test_poles_and_large_imaginary_parts(self):
        assert np.all(np.isnan(_loggamma(np.array([0.0, -1.0, -12.0]))))
        z = np.array([2.0 - 500.0j])
        with mpmath.workdps(30):
            reference = np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag))) for v in z])
        assert np.all(np.abs(_loggamma(z) - reference) <= 1e-14 * np.abs(reference))


class TestLogBarnesG:
    def test_at_one(self):
        assert log_barnes_g(1.0) == pytest.approx(0.0, abs=1e-13)

    def test_at_four_equals_log_two(self):
        assert log_barnes_g(4.0).real == pytest.approx(math.log(2.0), abs=1e-12)

    def test_asymptotic_consistent_with_recursion_path(self):
        # two routes to the same value: the log-Gamma integral taken straight
        # to 12.5 versus climbing the functional equation from 2.5
        via_recursion = log_barnes_g(2.5).real + math.fsum(
            log_gamma(2.5 + j).real for j in range(10)
        )
        assert log_barnes_g(12.5).real == pytest.approx(via_recursion, abs=1e-11)

    @pytest.mark.parametrize("z", [1.5, 2.5, 4.0, 7.25, 12.5, 30.0])
    def test_against_weierstrass_product(self, z):
        # the product oracle is within 1.2e-15 relative of 30-digit mpmath
        # at these points; measured at most 1.1e-14 relative
        want = weierstrass_log_barnes_g1p(z - 1.0)
        assert log_barnes_g(z).real == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_functional_equation_random_arguments(self):
        rng = np.random.default_rng(20240817)
        re = rng.uniform(0.5, 50.0, 200)
        im = rng.uniform(-10.0, 10.0, 200)
        for z in re + 1j * im:
            lhs = log_barnes_g(z + 1.0)
            rhs = log_gamma(z) + log_barnes_g(z)
            assert abs(lhs - rhs) <= 1e-11

    def test_error_budget_against_mpmath(self):
        # measured at most 2.1e-15, at z = 2.685
        zs = np.linspace(1.0, 3.0, 401)
        with mpmath.workdps(30):
            reference = [float(mpmath.log(mpmath.barnesg(mpmath.mpf(z)))) for z in zs.tolist()]
        errors = [abs(log_barnes_g(z).real - r) for z, r in zip(zs.tolist(), reference)]
        assert max(errors) <= 1e-14

    def test_rejects_left_half_plane_and_poles(self):
        with pytest.raises(ValueError):
            log_barnes_g(-0.5)
        with pytest.raises(ValueError):
            log_barnes_g(0.0)


class TestPsi:
    def test_at_zero(self):
        assert psi(0.0).real == pytest.approx(1.0, abs=1e-13)

    def test_at_sqrt2(self):
        # G(2)^2 / G(3) = 1
        assert psi(SQRT2).real == pytest.approx(1.0, abs=1e-12)

    def test_at_inverse_sqrt2_composition(self):
        expected = math.exp(2.0 * log_barnes_g(1.5).real - log_barnes_g(2.0).real)
        assert psi(1.0 / SQRT2).real == pytest.approx(expected, rel=1e-12)
        assert log_psi(1.0 / SQRT2).real == pytest.approx(
            weierstrass_log_psi(1.0 / SQRT2), abs=1e-11
        )

    def test_positive_on_implemented_range(self):
        for g in np.arange(0.0, 2.0 + 1e-9, 0.01):
            assert psi(float(g)).real > 0.0

    def test_error_budget_against_mpmath(self):
        # theorem-scale gamma over 0.01..0.99 of sqrt(2); measured at most 2.0e-15
        root2 = mpmath.sqrt(2)
        worst = 0.0
        with mpmath.workdps(30):
            for fraction in BUDGET_FRACTIONS:
                g = mpmath.mpf(fraction * SQRT2)
                reference = (2 * mpmath.log(mpmath.barnesg(1 + g / root2))
                             - mpmath.log(mpmath.barnesg(1 + root2 * g)))
                worst = max(worst, abs(log_psi(float(g)).real - reference))
        assert worst <= 1e-14


class TestCueMomentExact:
    def test_zero_exponent_is_one(self):
        for n in (1, 3, 100, 10_000):
            assert log_cue_abs_moment_exact(n, 0.0) == 0.0

    def test_n1_second_moment(self):
        # (1/2pi) int (2 - 2 cos phi) dphi = 2
        assert cue_abs_moment_exact(1, 2.0).real == pytest.approx(2.0, rel=1e-13)

    def test_n2_second_moment_against_quadrature(self):
        def integrand(p2, p1):
            f1 = abs(1.0 - np.exp(1j * p1)) ** 2
            f2 = abs(1.0 - np.exp(1j * p2)) ** 2
            dens = abs(np.exp(1j * p1) - np.exp(1j * p2)) ** 2 / (8.0 * math.pi**2)
            return f1 * f2 * dens

        oracle, err = dblquad(integrand, 0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, epsabs=1e-10)
        assert oracle == pytest.approx(3.0, abs=1e-7)
        assert cue_abs_moment_exact(2, 2.0).real == pytest.approx(oracle, rel=1e-8)

    def test_complex_exponent_finite(self):
        v = cue_abs_moment_exact(128, 1.0 + 0.5j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_survives_large_n_large_exponent(self):
        lv = log_cue_abs_moment_exact(10_000, 2.0)
        assert np.isfinite(lv.real)

    def test_ratio_convergence_is_monotone(self):
        for z in (0.25, 0.5, 1.0):
            devs = []
            for n in (64, 256, 1024, 4096):
                r = cue_abs_moment_exact(n, SQRT2 * z).real * n ** (-z * z / 2.0) / psi(z).real
                devs.append(abs(r - 1.0))
            assert devs[1] < devs[0] and devs[2] < devs[1] and devs[3] < devs[2]

    @pytest.mark.parametrize("zeta", [SQRT2 * 0.5, 2.0])
    @pytest.mark.parametrize("n", [64, 1024, 10_000])
    def test_against_mpmath_barnes_g(self, n, zeta):
        # the product telescopes to G(N+1+zeta) G(N+2) G(1+zeta/2)^2 /
        # (G(1+zeta) G(N+1+zeta/2)^2 N!).  Summing separate log-Gamma values,
        # each about 8e4 at N = 10^4, was off by 5.3e-8 there (zeta = 1/sqrt(2))
        with mpmath.workdps(40):
            z = mpmath.mpf(zeta)
            lg = lambda x: mpmath.log(mpmath.barnesg(x))
            reference = float(
                lg(n + 1 + z) - lg(1 + z) + lg(n + 2) + 2 * (lg(1 + z / 2) - lg(n + 1 + z / 2))
                - mpmath.loggamma(n + 1)
            )
        got = log_cue_abs_moment_exact(n, zeta)
        assert abs(got.real - reference) <= 1e-9
        assert got.imag == 0.0

    def test_complex_exponent_against_mpmath(self):
        for zeta in (1.0 + 0.5j, -0.5 + 2.0j, 0.3 - 1.0j):
            with mpmath.workdps(30):
                z = mpmath.mpc(zeta.real, zeta.imag)
                reference = complex(
                    mpmath.fsum(
                        mpmath.loggamma(1 + z + j) + mpmath.loggamma(2 + j) - 2 * mpmath.loggamma(1 + j + z / 2)
                        for j in range(200)
                    )
                    - mpmath.loggamma(201)
                )
            assert abs(log_cue_abs_moment_exact(200, zeta) - reference) <= 1e-12

    def test_normalizers_are_cached(self):
        for fn, args in (
            (log_cue_abs_moment_exact, (96, 0.75)),
            (thickpoint_prob_asymptotic, (96, 0.5)),
            (fk_normalizer, (96, 0.25)),
        ):
            fn.cache_clear()
            first = fn(*args)
            assert fn(*args) == first
            assert fn.cache_info().hits == 1 and fn.cache_info().misses == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_cue_abs_moment_exact(0, 1.0)
        with pytest.raises(ValueError):
            log_cue_abs_moment_exact(4, -1.0)


class TestThickpointProbAsymptotic:
    def test_composition_at_small_n(self):
        expected = 3.0 ** (-0.5) * math.exp(weierstrass_log_psi(1.0)) / math.sqrt(
            2.0 * math.pi * math.log(3.0)
        )
        got = thickpoint_prob_asymptotic(3, 1.0)
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("convention", list(GammaConvention))
    def test_error_budget_against_mpmath(self, convention):
        # measured at most 3.2e-15 relative under either convention
        top = SQRT2 if convention is GammaConvention.THEOREM else 1.0
        worst = 0.0
        with mpmath.workdps(30):
            for fraction in BUDGET_FRACTIONS:
                gamma = fraction * top
                g = to_theorem_scale(gamma, convention)
                for n in BUDGET_NS:
                    reference = mp_thickpoint_prob(n, mpmath.mpf(g))
                    worst = max(worst, abs(thickpoint_prob_asymptotic(n, g) / reference - 1))
        assert worst <= 2e-14

    def test_diverges_as_gamma_vanishes(self):
        vals = [thickpoint_prob_asymptotic(100, g) for g in (0.05, 0.02, 0.01)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.slow
    def test_monte_carlo_frequency_large_n(self):
        rng = np.random.default_rng(99)
        x0 = mc_field_at(4096, [0.0], 20_000, rng, chunk=2000)[:, 0]
        freq = float(np.mean(x0 >= 0.6 * math.log(4096)))
        pred = thickpoint_prob_asymptotic(4096, 0.6)
        # the sqrt(log N) asymptotic still carries a ~13% bias at N=4096
        assert freq == pytest.approx(pred, rel=0.15)


class TestExactThickpointProb:
    def test_leaves_the_moment_cache_alone(self):
        before = log_cue_abs_moment_exact.cache_info().currsize
        exact_thickpoint_prob(16, 0.6)
        assert log_cue_abs_moment_exact.cache_info().currsize == before

    def test_error_budget_against_mpmath(self):
        # Gil-Pelaez inversion of the exact product formula in mpmath; the
        # range [0, 8] gives the same 20 digits as [0, 1, 2, 4, 8, 16].
        # Measured 1.3e-14 relative.
        n, gamma = 16, 0.6
        with mpmath.workdps(30):
            x = mpmath.mpf(gamma) * mpmath.log(n)
            root2 = mpmath.sqrt(2)

            def integrand(t):
                s = 1j * root2 * t
                log_phi = mpmath.fsum(
                    mpmath.loggamma(j) + mpmath.loggamma(j + s) - 2 * mpmath.loggamma(j + s / 2)
                    for j in range(1, n + 1)
                )
                return mpmath.im(mpmath.exp(log_phi - 1j * t * x)) / t

            reference = mpmath.mpf(1) / 2 + mpmath.quad(integrand, [0, 8]) / mpmath.pi
        assert abs(exact_thickpoint_prob(n, gamma) / reference - 1) <= 1e-13


class TestFkNormalizer:
    def test_identity_with_thickpoint_prob(self):
        gamma = 0.5
        expected = thickpoint_prob_asymptotic(100, SQRT2 * gamma) / math.exp(
            log_gamma(1.0 - gamma * gamma).real
        )
        assert fk_normalizer(100, gamma) == pytest.approx(expected, rel=1e-12)

    def test_error_budget_against_mpmath(self):
        # N^{-gamma^2} (pi log N)^{-1/2} G(1+gamma)^2 / (2 gamma G(1+2 gamma))
        # / Gamma(1-gamma^2); measured at most 4.0e-15 relative
        worst = 0.0
        with mpmath.workdps(30):
            for gamma in BUDGET_FRACTIONS:
                g = mpmath.mpf(gamma)
                head = (2 * mpmath.log(mpmath.barnesg(1 + g)) - mpmath.log(mpmath.barnesg(1 + 2 * g))
                        - mpmath.log(2 * g) - mpmath.loggamma(1 - g * g))
                for n in BUDGET_NS:
                    logn = mpmath.log(n)
                    reference = mpmath.exp(head - g * g * logn - mpmath.log(mpmath.pi * logn) / 2)
                    worst = max(worst, abs(fk_normalizer(n, gamma) / reference - 1))
        assert worst <= 2e-14

    @pytest.mark.parametrize("gamma", [0.0, -0.2, 1.0, 1.4])
    def test_rejects_out_of_range_gamma(self, gamma):
        with pytest.raises(ValueError, match=r"conjecture-scale gamma must lie in \(0,1\)"):
            fk_normalizer(1024, gamma)

    def test_positive_and_small(self):
        v = fk_normalizer(1024, 0.3)
        assert 0.0 < v < 1.0


class TestFrechet:
    def test_cdf_at_one(self):
        for g in (0.3, 0.5, 0.9):
            assert frechet_cdf(1.0, g) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_pdf_normalization(self):
        total, err = quad(frechet_pdf, 0.0, math.inf, args=(0.5,), limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_gamma_function_value(self):
        mean, err = quad(lambda x: x * frechet_pdf(x, 0.5), 0.0, math.inf, limit=400)
        assert mean == pytest.approx(math.exp(log_gamma(0.75).real), abs=1e-6)

    def test_cdf_monotone_with_limits(self):
        xs = np.linspace(1e-3, 50.0, 500)
        vals = [frechet_cdf(float(x), 0.4) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert frechet_cdf(1e-12, 0.4) < 1e-10
        assert frechet_cdf(1e12, 0.4) > 1.0 - 1e-6

    def test_pdf_matches_cdf_derivative(self):
        eps = 1e-6
        for x in np.linspace(0.1, 10.0, 40):
            num = (frechet_cdf(x + eps, 0.5) - frechet_cdf(x - eps, 0.5)) / (2.0 * eps)
            assert num == pytest.approx(frechet_pdf(float(x), 0.5), abs=1e-6)

    def test_ppf_inverts_cdf(self):
        for u in (0.01, 0.3, 0.5, 0.99):
            assert frechet_cdf(frechet_ppf(u, 0.6), 0.6) == pytest.approx(u, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            frechet_pdf(1.0, 1.5)
        with pytest.raises(ValueError):
            frechet_ppf(0.0, 0.5)


class TestTwoPointMoment:
    def test_reduces_to_single_point_form(self):
        n, z = 128, 0.7
        got = two_point_moment_asymptotic(n, z, 0.0, 0.0, 1.0)
        expected = psi(z).real * n ** (z * z / 2.0)
        assert got.real == pytest.approx(expected, rel=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_plug_in(self):
        n, g = 256, 0.5
        got = two_point_moment_asymptotic(n, g, g, 0.0, math.pi).real
        expected = psi(g).real ** 2 * n ** (g * g) * 2.0 ** (-g * g)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_rejects_coincident_angles(self):
        with pytest.raises(ValueError):
            two_point_moment_asymptotic(64, 0.5, 0.5, 1.0, 1.0)

    @pytest.mark.slow
    def test_against_monte_carlo_pair_moment(self):
        rng = np.random.default_rng(1234)
        x = mc_field_at(64, [0.0, math.pi / 2], 100_000, rng)
        vals = np.exp(0.5 * x[:, 0] + 0.5 * x[:, 1])
        pred = two_point_moment_asymptotic(64, 0.5, 0.5, 0.0, math.pi / 2).real
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
        assert abs(mean - pred) <= 4.0 * se


class TestJointMoment:
    def test_no_truncated_terms_reduces_to_two_point(self):
        got = joint_moment_asymptotic(64, 0.5, 0.3, 0.0, 2.0, [], [], [])
        expected = two_point_moment_asymptotic(64, 0.5, 0.3, 0.0, 2.0)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_pure_truncated_term_is_gaussian_in_harmonic_sum(self):
        # zeta = 0 and a single smoothed value: variance is the truncated sum
        delta = 1.0 / 8.0
        hsum = sum(1.0 / k for k in range(1, 9))
        got = joint_moment_asymptotic(64, 0.0, 0.0, 0.0, 2.0, [0.3], [delta], [1.0])
        assert got.real == pytest.approx(math.exp(0.3**2 / 2.0 * hsum), rel=1e-9)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            joint_moment_asymptotic(64, 0.5, 0.0, 0.0, 2.0, [0.3], [0.5, 0.25], [1.0])

    def test_several_scales_against_fsum_kernels(self):
        # three smoothed values at three scales: every cross term at its own
        # scale and every pair at the coarser one, each kernel an fsum
        n, zeta1, zeta2, x1, x2 = 64, 0.5 + 0.2j, -0.3, 0.4, 2.9
        xi, delta, z = [0.3, -0.7, 0.5], [1.0 / 3.0, 1.0 / 40.0, 1.0 / 7.5], [1.0, -2.2, 1.3]
        kmaxes = [math.floor(1.0 / d) for d in delta]
        logval = (
            log_psi(zeta1) + log_psi(zeta2) + 0.5 * (zeta1**2 + zeta2**2) * math.log(n)
            - zeta1 * zeta2 * math.log(circle_chord(x1, x2))
        )
        for xj, zj, kj in zip(xi, z, kmaxes):
            logval += xj * (zeta1 * circle_truncated_kernel(x1, zj, kj)
                            + zeta2 * circle_truncated_kernel(x2, zj, kj))
        for xj, zj, kj in zip(xi, z, kmaxes):
            for xl, zl, kl in zip(xi, z, kmaxes):
                logval += 0.5 * xj * xl * circle_truncated_kernel(zj, zl, min(kj, kl))
        got = joint_moment_asymptotic(n, zeta1, zeta2, x1, x2, xi, delta, z)
        assert got == pytest.approx(complex(np.exp(logval)), rel=1e-12)

    @pytest.mark.slow
    def test_against_monte_carlo_joint_moment(self):
        rng = np.random.default_rng(7)
        reps = 5000
        z1, x1, x2 = 1.1, 0.0, 2.5
        k = np.arange(1, 9)
        vals = np.empty(reps)
        for i in range(reps):
            c = cue.sample_verblunsky(64, rng)
            x = float(cue.eval_field_at(c, np.array([x1]))[0])
            tr = cue.trace_powers(cue.szego_coefficients(c[None]), 8)[0]
            xdel = -SQRT2 * float(np.real(np.sum(tr / k * np.exp(-1j * k * z1))))
            vals[i] = math.exp(0.5 * x + 0.3 * xdel)
        pred = joint_moment_asymptotic(64, 0.5, 0.0, x1, x2, [0.3], [1.0 / 8.0], [z1]).real
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(reps))
        assert abs(mean - pred) <= max(4.0 * se, 0.05 * pred)


class TestCircleChord:
    def test_antipodal(self):
        assert circle_chord(0.0, math.pi) == pytest.approx(2.0, abs=1e-15)

    def test_symmetric(self):
        assert circle_chord(0.3, 1.9) == circle_chord(1.9, 0.3)

    def test_small_separation_no_cancellation(self):
        d = 1e-9
        assert circle_chord(1.0, 1.0 + d) == pytest.approx(d, rel=1e-6)

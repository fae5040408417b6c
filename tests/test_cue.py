import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from conftest import (
    SQRT2,
    cmv_matrix,
    det_field_oracle,
    det_log_field,
    exact_thickpoint_prob,
    ks_two_sample,
    ks_two_sample_critical_value,
    ld_phi_coefficients,
    mc_field_at,
    mp_field_on_grid,
    mp_fourier_sum,
    mp_trace_powers,
    one_transform_grid,
    one_transform_real_grid,
    phi_coefficients,
    product_law_field_at_one,
    sample_alphas_block,
    sample_haar_unitary_dense,
    trace_powers_cmv,
    truncated_field_fft,
    truncated_field_variance,
)
from thickpoints import cue, kernels
from thickpoints.cue import (
    TRACE_COST_GUARD,
    FieldSample,
    eval_field,
    eval_field_at,
    sample_verblunsky,
    trace_powers,
    truncated_field,
    truncated_fields,
)
from thickpoints.special_fn import cue_abs_moment_exact


class TestVerblunskyCoeffs:
    def test_rejects_interior_on_boundary(self):
        with pytest.raises(ValueError):
            cue._check_alphas(np.array([1.0 + 0.0j, 1.0 + 0.0j]))

    def test_rejects_non_unimodular_last(self):
        with pytest.raises(ValueError):
            cue._check_alphas(np.array([0.1 + 0.0j, 0.5 + 0.0j]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), data=st.data())
    def test_accepts_sampled_draws_and_rejects_bad_input(self, seed, n, data):
        alphas = sample_verblunsky(n, np.random.default_rng(seed))
        cue._check_alphas(alphas)
        phase = np.exp(2j * np.pi * data.draw(st.floats(0.0, 1.0)))
        off = data.draw(st.floats(2e-12, 0.5) | st.floats(-0.5, -2e-12))
        bad_last = alphas.copy()
        bad_last[-1] = (1.0 + off) * phase
        with pytest.raises(ValueError):
            cue._check_alphas(bad_last)
        if n > 1:
            bad_interior = alphas.copy()
            # a unimodular phase that is exact, so |alpha| >= 1 holds down to 1 itself
            exact_phase = data.draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
            bad_interior[data.draw(st.integers(0, n - 2))] = data.draw(st.floats(1.0, 2.0)) * exact_phase
            with pytest.raises(ValueError):
                cue._check_alphas(bad_interior)


class TestSampleVerblunsky:
    def test_single_coefficient_is_unimodular(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = sample_verblunsky(1, rng)
            assert abs(abs(c[0]) - 1.0) < 1e-12

    def test_moduli_match_beta_means(self):
        rng = np.random.default_rng(1)
        n, reps = 32, 20_000
        sq = np.empty((reps, n))
        for i in range(reps):
            sq[i] = np.abs(sample_verblunsky(n, rng)) ** 2
        for k in (0, 15, 30):
            mean = float(sq[:, k].mean())
            se = float(sq[:, k].std(ddof=1) / math.sqrt(reps))
            assert abs(mean - 1.0 / (n - k)) <= 4.0 * se

    def test_moduli_match_beta_distribution(self):
        rng = np.random.default_rng(2)
        n, reps = 16, 5000
        sq = np.empty((reps, n))
        for i in range(reps):
            sq[i] = np.abs(sample_verblunsky(n, rng)) ** 2
        for k in (0, 7, 14):
            res = kstest(sq[:, k], beta_dist(1, n - k - 1).cdf)
            assert res.pvalue > 1e-4

    def test_phases_cover_the_circle(self):
        rng = np.random.default_rng(3)
        phases = np.angle([sample_verblunsky(1, rng)[0] for _ in range(5000)])
        res = kstest((phases + np.pi) / (2.0 * np.pi), "uniform")
        assert res.pvalue > 1e-4


class TestEvalField:
    def test_single_root_at_minus_one(self):
        got = float(eval_field_at(np.array([-1.0 + 0.0j]), np.array([0.0]))[0])
        assert got == pytest.approx(SQRT2 * math.log(2.0), abs=1e-13)

    def test_matches_determinant_oracle_small_n(self):
        # both paths driven by the same spectrum: the dense unitary is the
        # CMV operator of the sampled coefficients
        rng = np.random.default_rng(4)
        theta = 2.0 * np.pi * np.arange(64) / 64
        for _ in range(100):
            n = int(rng.integers(1, 9))
            c = sample_verblunsky(n, rng)
            direct = eval_field(phi_coefficients(c), 64).values
            oracle = det_log_field(cmv_matrix(c), theta)
            assert np.max(np.abs(direct - oracle)) < 1e-9

    def test_fft_and_szego_paths_agree(self):
        rng = np.random.default_rng(5)
        for n in (2, 16, 100):
            c = sample_verblunsky(n, rng)
            m = 16 * n
            fs = eval_field(phi_coefficients(c), m)
            ref = eval_field_at(c, 2.0 * np.pi * np.arange(m) / m)
            assert np.max(np.abs(fs.values - ref)) < 1e-9

    def test_rescaling_cadence_does_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(6)
        c = sample_verblunsky(200, rng)
        theta = np.linspace(0.0, 2.0 * np.pi, 37, endpoint=False)
        b = eval_field_at(c, theta)
        monkeypatch.setattr(cue, "RESCALE_CADENCE", 16)
        a = eval_field_at(c, theta)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_zero_mean_at_origin(self):
        rng = np.random.default_rng(7)
        x0 = mc_field_at(16, [0.0], 100_000, rng)[:, 0]
        se = float(x0.std(ddof=1) / math.sqrt(x0.size))
        assert abs(float(x0.mean())) <= 4.0 * se

    def test_singular_grid_point_flagged(self):
        # the grid contains the eigenvalue at angle pi
        fs = eval_field(phi_coefficients(np.array([-1.0 + 0.0j])), 2)
        assert fs.has_singular_points
        assert np.isneginf(fs.values[1])

    def test_rejects_bad_grid(self):
        row = phi_coefficients(np.array([-1.0 + 0.0j]))
        for grid_size in (0, 1):  # 1 = n does not resolve the polynomial
            with pytest.raises(ValueError, match="grid_size"):
                eval_field(row, grid_size)

    def test_rotation_invariance_two_sample_ks(self):
        rng = np.random.default_rng(8)
        reps = 10_000
        a = mc_field_at(32, [0.0], reps, rng)[:, 0]
        b = mc_field_at(32, [2.1], reps, rng)[:, 0]
        d = ks_two_sample(a, b)
        assert d < ks_two_sample_critical_value(reps, reps, 0.01)

    @pytest.mark.slow
    def test_field_at_one_against_the_product_law(self):
        # X_N(0) from the Szego path against the Bourgade-Hughes-Nikeghbali-Yor
        # product law, which shares no code with it, and the thick-point
        # frequency of the product law against the exact probability
        rng = np.random.default_rng(23)
        n, gamma, reps = 256, 0.6, 20_000
        product = product_law_field_at_one(n, reps, rng)
        szego = mc_field_at(n, [0.0], reps, rng)[:, 0]
        assert ks_two_sample(product, szego) < ks_two_sample_critical_value(reps, reps, 0.01)
        p_exact = exact_thickpoint_prob(n, gamma)
        p_freq = float(np.mean(product >= gamma * math.log(n)))
        assert abs(p_freq - p_exact) <= 4.0 * math.sqrt(p_exact * (1.0 - p_exact) / reps)


def _tree_shape(n: int, leaf: int) -> tuple[int, int, int]:
    """(leaves, pad, carries) of the product tree at n: the leaf count, the
    alpha = 0 steps completing the last leaf, and the levels that carry an
    odd block up unchanged."""
    blocks = -(-n // leaf)
    leaves, carries = blocks, 0
    while blocks > 2:
        carries += blocks % 2
        blocks = (blocks + 1) // 2
    return leaves, -n % leaf, carries


LEAF = cue.SZEGO_LEAF
# fixed sizes, plus sizes derived from the leaf so that each tree shape stays
# covered after a retune: two-leaf roots with a partial last leaf (LEAF + 1)
# and without (2 LEAF), and five leaves, the last partial, whose odd block is
# carried up twice (5 LEAF - 3: five blocks, then three)
TREE_SIZES = sorted(
    {65, 101, 127, 128, 129, 300, 1000, 1024, 1300, 4096, LEAF + 1, 2 * LEAF, 5 * LEAF - 3}
)


class TestSynthesis:
    def test_tree_sizes_cover_every_shape(self):
        # n > SZEGO_LEAF gives at least two leaves, so the root merge always
        # sees two blocks
        assert all(n > LEAF for n in TREE_SIZES)
        shapes = [_tree_shape(n, LEAF) for n in TREE_SIZES]
        assert all(leaves >= 2 for leaves, _, _ in shapes)
        assert any(pad > 0 for _, pad, _ in shapes)
        assert any(carries >= 2 for _, _, carries in shapes)
        assert any(leaves == 2 for leaves, _, _ in shapes)

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_tree_matches_single_block_recursion(self, n):
        alphas = sample_verblunsky(n, np.random.default_rng(n))
        plain = cue._szego_steps(alphas[None, :], np.array([[1.0, 1.0]]))[0][:, 0, 0]
        tree = phi_coefficients(alphas)
        assert tree.shape == (n + 1,)
        assert np.max(np.abs(tree - plain)) <= 1e-13

    @pytest.mark.parametrize("n", TREE_SIZES)
    def test_tree_rows_match_each_spectrum_alone(self, n):
        # a trace-cov block synthesizes its spectra as one stack, and every
        # row must come out bit for bit as that spectrum does alone
        alphas = cue.sample_alphas(n, [np.random.default_rng(n + s) for s in range(3)])
        stacked = cue.szego_coefficients(alphas)
        assert stacked.shape == (3, n + 1)
        for row, spectrum in zip(stacked, alphas):
            assert np.array_equal(row, phi_coefficients(spectrum))

    def test_blocks_are_determined_by_row_zero(self):
        # the full 2x2 product of d steps is [[A, B], [B#, A#]], with P# the
        # reversed conjugate coefficients at degree d: checked for a batch of
        # leaves and for the merge of two leaves, against the recursion run
        # on both start columns over the concatenated steps
        def full_product(alphas):
            phi, star = cue._szego_steps(alphas, np.eye(2))
            # [b, r, c, f]: row r, column c of block b, coefficients on f
            return np.stack([phi, star]).transpose(2, 0, 3, 1)

        def reflect(p):
            return np.conj(p[..., ::-1])

        alphas = sample_verblunsky(4 * LEAF, np.random.default_rng(3)).reshape(4, LEAF)
        leaves = full_product(alphas)
        merged = full_product(alphas.reshape(2, 2 * LEAF))
        for m in (leaves, merged):
            a, b = m[:, 0, 0], m[:, 0, 1]
            np.testing.assert_allclose(m[:, 1, 0], reflect(b), rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(m[:, 1, 1], reflect(a), rtol=0.0, atol=1e-14)
        # _row0_product merges row 0 of each later leaf with the earlier leaf
        got = cue._row0_product(leaves[1::2, 0], leaves[0::2, 0])
        np.testing.assert_allclose(got, merged[:, 0], rtol=0.0, atol=1e-14)
        # zero-padded to length 2d, fft(P#)[k] = (-1)^k conj(fft(P)[k])
        rng = np.random.default_rng(4)
        p = rng.standard_normal(LEAF + 1) + 1j * rng.standard_normal(LEAF + 1)
        sign = (-1.0) ** np.arange(2 * LEAF)
        np.testing.assert_allclose(
            np.fft.fft(reflect(p), n=2 * LEAF),
            sign * np.conj(np.fft.fft(p, n=2 * LEAF)),
            rtol=0.0,
            atol=1e-13,
        )

    @pytest.mark.parametrize("n", [33, 48, 64, 101, 300, 4096])
    def test_tree_against_long_double_recursion(self, n):
        # 33, 48, 101 and 300 end in a partial leaf, 64 is two whole leaves,
        # and 300 carries odd blocks up
        alphas = sample_verblunsky(n, np.random.default_rng(n + 7))
        ref = ld_phi_coefficients(alphas)
        err = np.max(np.abs(phi_coefficients(alphas) - ref)) / np.max(np.abs(ref))
        assert float(err) <= 4e-15

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_field_against_mpmath(self, n):
        c = sample_verblunsky(n, np.random.default_rng(n + 1))
        m = 16 * n
        indices = [1, m // 7, m // 3, (5 * m) // 11]
        got = eval_field(phi_coefficients(c), m).values[indices]
        ref = mp_field_on_grid(c, m, indices)
        assert np.max(np.abs(got - ref)) <= 1e-11
        # the per-point recursion has the looser budget: it loses about an
        # order of magnitude to the FFT path near zeros
        per_point = eval_field_at(c, 2.0 * np.pi * np.array(indices) / m)
        assert np.max(np.abs(per_point - ref)) <= 1e-10

    @pytest.mark.parametrize("n, spectra", [(1024, 3), (4096, 2)])
    def test_field_near_eigenvalues_against_mpmath(self, n, spectra):
        # log|p| turns an absolute error in p into one of X divided by |p|, so
        # at the three grid points of smallest |p| of each spectrum the error
        # of X times |p| is held to 32 units of sqrt(2) eps ||c||_2, where
        # ||c||_2 is the grid's root mean square of |p| (Parseval).  Over 36
        # spectra at n = 1024 and 9 at n = 4096 the pruned transform measured
        # at most 11.2 units, the one transform of length 16 n 11.4
        rng = np.random.default_rng(n + 2)
        m = 16 * n
        assert kernels._coset_length(m, n, 1) == n
        for _ in range(spectra):
            alphas = sample_verblunsky(n, rng)
            c = phi_coefficients(alphas)
            x = eval_field(c, m).values
            indices = np.argsort(x)[:3]
            ref = mp_field_on_grid(alphas, m, indices.tolist())
            unit = SQRT2 * np.finfo(float).eps * np.linalg.norm(c)
            assert np.max(np.abs(x[indices] - ref) * np.exp(ref / SQRT2)) <= 32 * unit


class TestPerPointSzego:
    @settings(max_examples=60, deadline=None)
    @given(
        reps=st.integers(1, 5),
        n=st.integers(1, 200),
        theta=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_rows_match_single_replica(self, reps, n, theta, seed):
        alphas = cue.sample_alphas(n, [np.random.default_rng(seed)] * reps)
        z = np.exp(1j * np.array(theta))
        batched = SQRT2 * cue.szego_log_abs(alphas, z)
        assert batched.shape == (reps, len(theta))
        for r in range(reps):
            assert np.array_equal(batched[r], eval_field_at(alphas[r], theta))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_batched_sampler_matches_sample_verblunsky(self, n, seed):
        # the whole U block, then the whole phase block, as the one-stream
        # batched sampler of the tests draws them
        batched = sample_alphas_block(n, np.random.default_rng(seed), (1,))
        single = sample_verblunsky(n, np.random.default_rng(seed))
        assert batched.shape == (1, n)
        assert np.array_equal(batched[0], single)

    def test_per_stream_sampler_matches_sample_verblunsky_and_checks(self):
        seeds = (1, 2, 3)
        stacked = cue.sample_alphas(16, [np.random.default_rng(s) for s in seeds])
        assert stacked.shape == (3, 16)
        for row, seed in zip(stacked, seeds):
            assert np.array_equal(row, sample_verblunsky(16, np.random.default_rng(seed)))

        class ZeroStream:
            # U = 0 puts every interior coefficient on the unit circle
            def random(self, size):
                return np.zeros(size)

        with pytest.raises(ValueError, match="interior"):
            sample_verblunsky(4, ZeroStream())
        with pytest.raises(ValueError, match="interior"):
            cue.sample_alphas(4, [ZeroStream()])

    def test_overflowing_coefficients_make_eval_field_raise(self):
        # zeros crowded at z = 1 make the coefficients binomial-sized, so
        # the row overflows from n of about 1100; the per-point recursion
        # still evaluates the field on the same grid
        n = 1200
        alphas = np.full(n, 0.999 + 0.0j)
        alphas[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            row = phi_coefficients(alphas)
            assert not np.all(np.isfinite(row))
            with pytest.raises(ValueError, match="overflow"):
                eval_field(row, 2048)
            per_point = eval_field_at(alphas, 2.0 * np.pi * np.arange(2048) / 2048)
        assert np.isneginf(per_point[0])

    def test_overflowing_coefficients_make_trace_powers_raise(self):
        n = 1200
        alphas = np.full(n, 0.999 + 0.0j)
        alphas[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = phi_coefficients(alphas)
            with pytest.raises(ValueError, match="overflow"):
                trace_powers(row[None], 8)
            # one overflowing row fails a stacked call
            fine = phi_coefficients(sample_verblunsky(n, np.random.default_rng(2)))
            with pytest.raises(ValueError, match="overflow"):
                trace_powers(np.stack([fine, row]), 8)


class TestDenseOracle:
    def test_unitarity(self):
        rng = np.random.default_rng(9)
        for n in (1, 4, 8):
            u = sample_haar_unitary_dense(n, rng)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12

    def test_determinant_modulus_is_one(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            u = sample_haar_unitary_dense(5, rng)
            lam = np.linalg.eigvals(u)
            assert abs(np.prod(np.abs(lam)) - 1.0) < 1e-10

    def test_rejects_large_n(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            sample_haar_unitary_dense(9, rng)

    @pytest.mark.slow
    def test_moment_cross_check(self):
        rng = np.random.default_rng(12)
        reps = 30_000
        vals = np.empty(reps)
        for i in range(reps):
            vals[i] = math.exp(0.7 * det_field_oracle(4, rng, 1)[0])
        exact = cue_abs_moment_exact(4, 0.7 * SQRT2).real
        se = float(vals.std(ddof=1) / math.sqrt(reps))
        assert abs(float(vals.mean()) - exact) <= 4.0 * se


class TestCmvMatrix:
    def test_one_by_one_is_conjugate_alpha(self):
        phi = 0.83
        m = cmv_matrix(np.array([np.exp(1j * phi)]))
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(np.exp(-1j * phi), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_is_unitary(self, n):
        rng = np.random.default_rng(13)
        u = cmv_matrix(sample_verblunsky(n, rng))
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_characteristic_polynomial_matches_field(self, n):
        rng = np.random.default_rng(14)
        c = sample_verblunsky(n, rng)
        lam = np.linalg.eigvals(cmv_matrix(c))
        theta = np.array([0.4, 1.7, 3.0])
        via_eigs = SQRT2 * np.array(
            [float(np.sum(np.log(np.abs(np.exp(1j * t) - lam)))) for t in theta]
        )
        assert np.max(np.abs(via_eigs - eval_field_at(c, theta))) < 1e-9


class TestTracePowers:
    def test_single_phase(self):
        phi = 1.2
        tr = trace_powers(cue.szego_coefficients(np.array([[np.exp(1j * phi)]])), 5)[0]
        for k in range(1, 6):
            assert tr[k - 1] == pytest.approx(np.exp(-1j * k * phi), abs=1e-12)

    @pytest.mark.parametrize("n,kmax", [(2, 8), (4, 16), (16, 64), (64, 128)])
    def test_matches_cmv_reference(self, n, kmax):
        rng = np.random.default_rng(15)
        c = sample_verblunsky(n, rng)
        fast = trace_powers(cue.szego_coefficients(c[None]), kmax)[0]
        slow = trace_powers_cmv(c, kmax)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_newton_consistency_against_eigenvalues(self):
        rng = np.random.default_rng(16)
        c = sample_verblunsky(4, rng)
        lam = np.linalg.eigvals(cmv_matrix(c))
        tr = trace_powers(cue.szego_coefficients(c[None]), 12)[0]
        for k in range(1, 13):
            assert tr[k - 1] == pytest.approx(complex(np.sum(lam**k)), abs=1e-10)

    def test_empirical_covariance_small_n(self):
        rng = np.random.default_rng(17)
        n, reps = 16, 4000
        ks = (1, 4, 16, 32)
        sq = np.empty((reps, len(ks)))
        for i in range(reps):
            tr = trace_powers(cue.szego_coefficients(sample_verblunsky(n, rng)[None]), 32)[0]
            sq[i] = [abs(tr[k - 1]) ** 2 for k in ks]
        for j, k in enumerate(ks):
            mean = float(sq[:, j].mean())
            se = float(sq[:, j].std(ddof=1) / math.sqrt(reps))
            assert abs(mean - min(k, n)) <= 5.0 * se

    # The absolute error against a 60-digit Szego-plus-Newton recursion grows
    # about linearly in k, and with n through the coefficients.  Largest seen
    # over four seeds each (these and 1-3), for k <= 2n and up to kmax:
    # n = 16, 4.1e-14 and 1.2e-12 (kmax the 64n guard); n = 64, 1.3e-13 and
    # 5.9e-12 (the guard); n = 256, on the product tree, 2.3e-12 (kmax = 2n).
    # Each budget is 3.8x to 5x that.
    @pytest.mark.parametrize(
        "n,kmax,budget_2n,budget",
        [
            (16, 16 * TRACE_COST_GUARD, 2e-13, 5e-12),
            (64, 64 * TRACE_COST_GUARD, 5e-13, 3e-11),
            (256, 512, 1e-11, 1e-11),
        ],
    )
    def test_against_mpmath_newton(self, n, kmax, budget_2n, budget):
        c = sample_verblunsky(n, np.random.default_rng(n + 23))
        # one row runs the np.dot loop, a stacked call of two rows the batched
        # one; that rows of different draws do not mix is
        # test_stacked_rows_match_single_rows
        ref = mp_trace_powers(c, kmax)
        single = trace_powers(cue.szego_coefficients(c[None]), kmax)
        stacked = trace_powers(cue.szego_coefficients(np.stack([c] * 2)), kmax)
        for got in [*single, *stacked]:
            err = np.abs(got - ref)
            assert np.max(err[: 2 * n]) <= budget_2n
            assert np.max(err) <= budget

    # The pinned draw above sets the n = 64 budget for k <= 2n; the error
    # spreads over draws.  Over 256 draws (default_rng(1000..1007), 32 each)
    # the largest error for k <= 2n was 9.0e-13 and the median 1.1e-13; the
    # budget is 4x the largest.
    def test_against_mpmath_newton_over_draws(self):
        n = 64
        alphas = sample_alphas_block(n, np.random.default_rng(n + 25), (32,))
        traces = trace_powers(cue.szego_coefficients(alphas), 2 * n)
        for got, a in zip(traces, alphas):
            assert np.max(np.abs(got - mp_trace_powers(a, 2 * n))) <= 3.6e-12

    def test_cost_guard(self):
        rng = np.random.default_rng(18)
        c = sample_verblunsky(2, rng)
        with pytest.raises(ValueError):
            trace_powers(cue.szego_coefficients(c[None]), TRACE_COST_GUARD * 2 + 1)
        stacked = cue.szego_coefficients(sample_alphas_block(2, rng, (3,)))
        for kmax in (0, TRACE_COST_GUARD * 2 + 1):
            with pytest.raises(ValueError, match="kmax must lie"):
                trace_powers(stacked, kmax)

    # n = 16 runs one leaf's recursion, 64 and 256 the product tree; every
    # kmax passes n, so the loop also runs the steps with no -k a_k term
    @pytest.mark.parametrize("n, kmax", [(16, 40), (64, 200), (256, 300)])
    def test_stacked_rows_match_single_rows(self, n, kmax):
        alphas = sample_alphas_block(n, np.random.default_rng(n + 5), (5,))
        stacked = trace_powers(cue.szego_coefficients(alphas), kmax)
        assert stacked.shape == (5, kmax)
        for row, a in zip(stacked, alphas):
            single = trace_powers(cue.szego_coefficients(a[None]), kmax)
            assert np.array_equal(row, single[0])


class TestTruncatedField:
    def test_single_term(self):
        rng = np.random.default_rng(19)
        c = sample_verblunsky(8, rng)
        tr = trace_powers(cue.szego_coefficients(c[None]), 4)[0]
        row = truncated_field(tr, 1.0, 32)
        theta = 2.0 * np.pi * np.arange(32) / 32
        expected = -SQRT2 * np.real(tr[0] * np.exp(-1j * theta))
        assert np.max(np.abs(row - expected)) < 1e-12

    def test_rejects_insufficient_traces_or_grid(self):
        rng = np.random.default_rng(20)
        c = sample_verblunsky(8, rng)
        tr = trace_powers(cue.szego_coefficients(c[None]), 4)[0]
        with pytest.raises(ValueError):
            truncated_field(tr, 1.0 / 8.0, 64)
        with pytest.raises(ValueError):
            truncated_field(tr, 1.0 / 4.0, 4)

    @pytest.mark.parametrize(
        "n, grid_size, inverse_deltas",
        [
            # modes folded above grid_size / 2, onto the Nyquist mode included
            (8, 32, [1, 4, 15, 16, 17, 31]),
            (8, 33, [1, 16, 17, 32]),  # odd grid, no Nyquist mode
            (1024, 16 * 1024, [math.exp(k) for k in range(2, 6)]),
        ],
    )
    def test_batched_rows_match_single_delta_and_complex_fft(self, n, grid_size, inverse_deltas):
        deltas = [1.0 / d for d in inverse_deltas]
        rng = np.random.default_rng(grid_size)
        coeffs = cue.szego_coefficients(sample_verblunsky(n, rng)[None])
        tr = trace_powers(coeffs, int(max(inverse_deltas)))[0]
        rows = truncated_fields(tr, deltas, grid_size)
        assert rows.shape == (len(deltas), grid_size)
        for row, delta in zip(rows, deltas):
            assert np.array_equal(row, truncated_field(tr, delta, grid_size))
            kmax = int(math.floor(1.0 / delta))
            scale = np.sum(np.abs(tr[:kmax]) / np.arange(1, kmax + 1))
            assert np.max(np.abs(row - truncated_field_fft(tr, delta, grid_size))) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "n, grid_size, inverse_deltas, step",
        [
            # every 61st point of the barrier's grid at n = 1024
            (1024, 16 * 1024, [math.exp(k) for k in range(2, 6)], 61),
            (8, 32, [1, 4, 15, 16, 17, 31], 1),  # folded modes and the Nyquist mode
            (9, 45, [1, 22, 23, 44], 1),  # odd grid, folded modes
        ],
    )
    def test_rows_against_mpmath_direct_sum(self, n, grid_size, inverse_deltas, step):
        # budget 1e-15 of sum_k |Tr U^k| / k; measured at most 4.4e-16 of it
        rng = np.random.default_rng(n)
        coeffs = cue.szego_coefficients(sample_verblunsky(n, rng)[None])
        tr = trace_powers(coeffs, int(max(inverse_deltas)))[0]
        deltas = [1.0 / (math.floor(d) + 0.5) for d in inverse_deltas]
        indices = range(0, grid_size, step)
        rows = truncated_fields(tr, deltas, grid_size)
        for row, inverse_delta in zip(rows, inverse_deltas):
            kmax = math.floor(inverse_delta)
            modes = np.conj(tr[:kmax])
            ref = mp_fourier_sum(modes, lambda k: -mpmath.sqrt(2) / k, grid_size, indices)
            scale = np.sum(np.abs(tr[:kmax]) / np.arange(1, kmax + 1))
            assert np.max(np.abs(row[::step] - ref)) <= 1e-15 * scale

    def test_projection_of_full_field(self):
        # DFT of the full field restricted to modes k <= 8 must reproduce the
        # truncated field up to aliasing of the log-singular spectrum
        m = 8192
        for seed in (0, 3, 5):
            rng = np.random.default_rng(seed)
            c = sample_verblunsky(16, rng)
            fs = eval_field(phi_coefficients(c), m)
            fhat = np.fft.fft(fs.values) / m
            coeff = np.zeros(m, dtype=np.complex128)
            coeff[1:9] = fhat[1:9]
            coeff[-8:] = fhat[-8:]
            proj = np.real(np.fft.ifft(coeff) * m)
            tf = truncated_field(trace_powers(cue.szego_coefficients(c[None]), 8)[0], 1.0 / 8.0, m)
            assert np.max(np.abs(proj - tf)) < 5e-2

    def test_projection_at_coarse_grid_pinned_draw(self):
        m = 1024
        rng = np.random.default_rng(1)
        c = sample_verblunsky(16, rng)
        fs = eval_field(phi_coefficients(c), m)
        fhat = np.fft.fft(fs.values) / m
        coeff = np.zeros(m, dtype=np.complex128)
        coeff[1:9] = fhat[1:9]
        coeff[-8:] = fhat[-8:]
        proj = np.real(np.fft.ifft(coeff) * m)
        tf = truncated_field(trace_powers(cue.szego_coefficients(c[None]), 8)[0], 1.0 / 8.0, m)
        assert np.max(np.abs(proj - tf)) < 5e-2

    def test_variance_matches_truncated_harmonic_sum(self):
        rng = np.random.default_rng(21)
        n, reps, delta = 8, 20_000, 1.0 / 16.0
        vals = np.empty(reps)
        for i in range(reps):
            tr = trace_powers(cue.szego_coefficients(sample_verblunsky(n, rng)[None]), 16)[0]
            vals[i] = truncated_field(tr, delta, 32)[0]
        target = truncated_field_variance(n, delta)
        var = float(vals.var(ddof=1))
        se = var * math.sqrt(2.0 / (reps - 1))  # stderr of a variance estimate
        assert abs(var - target) <= 5.0 * se

    def test_variance_formula_values(self):
        assert truncated_field_variance(4, 1.0) == 1.0
        assert truncated_field_variance(100, 0.5) == pytest.approx(1.0 + 2.0 / 4.0)


# nu-mu's barrier truncations at n = 1024 keep 148 modes; the smaller n take
# a few modes each, down to one at n = 1
TRUNCATION_MODES = {1: 1, 2: 3, 33: 20, 300: 54, 1024: 148}


class TestCosetTransforms:
    """The pruned grid transforms against the one transform of the grid's
    length (tests/conftest.py): the field within 1e-15 of the largest value
    on every grid, the truncations within 1e-15 from MIN_COSETS cosets up
    and bit for bit below it and where the grid has no divisor to prune
    with."""

    @pytest.mark.parametrize("cosets", [4, 8, 16])
    @pytest.mark.parametrize("n", list(TRUNCATION_MODES))
    def test_field_grid_matches_one_transform(self, n, cosets):
        alphas = sample_verblunsky(n, np.random.default_rng(n + cosets))
        c = phi_coefficients(alphas)
        m = cosets * n
        assert kernels._coset_length(m, n, 1) == n
        ref = one_transform_grid(c, m)
        got = kernels.fourier_grid(c, m)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("cosets", [4, 8, 16])
    @pytest.mark.parametrize("n", list(TRUNCATION_MODES))
    def test_truncated_fields_match_one_transform(self, n, cosets, monkeypatch):
        kmax = TRUNCATION_MODES[n]
        length = 1 << (2 * kmax).bit_length()  # the least power of two >= 2 kmax + 1
        m = cosets * length
        pruned = cosets >= kernels.MIN_COSETS
        assert kernels._coset_length(m, 2 * kmax + 1, kernels.MIN_COSETS) == (
            length if pruned else None
        )
        alphas = sample_verblunsky(n, np.random.default_rng(n + cosets))
        tr = trace_powers(cue.szego_coefficients(alphas[None]), kmax)[0]
        deltas = [1.0 / (k + 0.5) for k in sorted({kmax, max(1, kmax // 3)})]
        got = truncated_fields(tr, deltas, m)
        monkeypatch.setattr(cue, "real_fourier_grid", one_transform_real_grid)
        ref = truncated_fields(tr, deltas, m)
        for row, ref_row in zip(got, ref):
            if pruned:
                assert np.max(np.abs(row - ref_row)) <= 1e-15 * np.max(np.abs(ref_row))
            else:
                assert np.array_equal(row, ref_row)

    def test_grids_with_no_divisor(self):
        # 529 = 23^2 has no divisor from 33 up but itself, so the field is one
        # transform of length 529; 1031 is prime, so the truncations keep
        # the one real transform, bit for bit
        alphas = sample_verblunsky(33, np.random.default_rng(529))
        c = phi_coefficients(alphas)
        assert kernels._coset_length(529, 33, 1) == 529
        ref = one_transform_grid(c, 529)
        assert np.max(np.abs(kernels.fourier_grid(c, 529) - ref)) <= 1e-15 * np.max(np.abs(ref))
        tr = trace_powers(c[None], 20)[0]
        modes = np.conj(tr) / np.arange(1, 21)
        assert kernels._coset_length(1031, 41, kernels.MIN_COSETS) is None
        assert np.array_equal(
            kernels.real_fourier_grid(modes, 1031), one_transform_real_grid(modes, 1031)
        )

    def test_grid_point_on_an_eigenvalue_is_singular_when_pruned(self):
        # alpha = (0, 0, 0, -1) gives Phi = z^4 + 1, whose roots e^{i pi (2k+1)/4}
        # are the grid points 8, 24, 40 and 56 of 64, all in coset 8 of 16
        c = phi_coefficients(np.array([0.0, 0.0, 0.0, -1.0 + 0.0j]))
        assert np.array_equal(c, [1.0, 0.0, 0.0, 0.0, 1.0])
        assert kernels._coset_length(64, 4, 1) == 4
        fs = eval_field(c, 64)
        assert np.flatnonzero(np.isneginf(fs.values)).tolist() == [8, 24, 40, 56]
        assert fs.has_singular_points


class TestFieldSample:
    def test_singular_points_read_from_values(self):
        assert not FieldSample(np.array([0.0, np.inf, -1e308])).has_singular_points
        assert FieldSample(np.array([0.0, -np.inf])).has_singular_points

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import (
    circle_log_kernel,
    circle_truncated_kernel,
    direct_truncated_kernel_grid,
    kappa,
    looped_refined_edges,
    mollified_kernel,
    mp_fourier_sum,
    one_transform_real_grid,
    sample_profile,
    scaled_bump,
    simpson_conv_density,
)
from thickpoints import kernels, montecarlo
from thickpoints.kernels import (
    BUMP_INTEGRAL,
    TRUNCATED_BLOCK,
    _conv_density,
    _refined_edges,
    _uniform_spline,
    assumption1_check,
    bump_density,
    circle_truncated_kernel_grid,
    doubly_mollified_kernel,
    fourier_grid,
    real_fourier_grid,
    to_grid_order,
)


def mp_rho():
    """The bump density in mpmath, at the working precision."""
    mass = mpmath.quad(lambda u: mpmath.exp(-1 / (1 - u * u)), [-1, 0, 1])
    return lambda u: mpmath.exp(-1 / (1 - u * u)) / mass if abs(u) < 1 else mpmath.mpf(0)


@functools.cache
def mp_kappa() -> float:
    """-int int log|u - v| rho(u) rho(v) du dv for the bump by mpmath, in the
    one-dimensional form -2 int_0^2 log(w) (rho * rho)(w) dw.  At 16 digits
    it agrees with a 20-digit run to 1e-16 (1.1739085958938038615)."""
    with mpmath.workdps(16):
        rho = mp_rho()

        # the inner integral is split at the two bumps' centres u = 0 and u = w
        def conv(w):
            edges = [w - 1, *(e for e in (0, w) if w - 1 < e < 1), 1]
            return mpmath.quad(lambda u: rho(u) * rho(u - w), edges)

        return float(-2 * mpmath.quad(lambda w: mpmath.log(w) * conv(w), [0, 1, 2]))


@functools.cache
def mp_truncated_kernel(deltas: tuple[float, ...], kmaxes: tuple[int, ...]) -> np.ndarray:
    """sum_{k <= kmax} cos(kx) / k at each separation x (the double as an
    exact binary number) and order, by mpmath at 30 digits; shape
    (len(kmaxes), len(deltas))."""
    out = np.empty((len(kmaxes), len(deltas)))
    with mpmath.workdps(30):
        for col, delta in enumerate(deltas):
            x = mpmath.mpf(delta)
            partial = mpmath.mpf(0)
            k = 0
            for row, kmax in enumerate(kmaxes):
                while k < kmax:
                    k += 1
                    partial += mpmath.cos(k * x) / k
                out[row, col] = float(partial)
    return out


def mp_mollified_kernel(x: float, z: float, delta: float) -> float:
    """int -log|u - z| rho_{delta,x}(u) du for the bump by mpmath in one
    dimension, split at the profile's centre and at z."""
    with mpmath.workdps(30):
        rho = mp_rho()
        x, z, delta = mpmath.mpf(x), mpmath.mpf(z), mpmath.mpf(delta)
        edges = sorted({x - delta, x, x + delta, *([z] if abs(z - x) < delta else [])})
        return float(mpmath.quad(lambda u: -mpmath.log(abs(u - z)) * rho((u - x) / delta) / delta,
                                 edges))


@functools.cache
def mp_doubly_mollified_kernel(c: float, delta: float, epsilon: float) -> float:
    """int int -log|c + s - t| rho_delta(s) rho_epsilon(t) ds dt for the bump
    by mpmath at 30 digits, c (the double as an exact binary number) at or
    near an end of the support, |c| > (delta + epsilon) tanh(7/2).

    s = delta tanh(sigma) and t = epsilon tanh(tau) make each bump factor
    exp(-cosh^2) sech^2, which decays doubly exponentially and is analytic
    in the strip |Im| < pi/4, and for such c the log has no singularity on
    the nodes; so the trapezoid rule at step 1/16 on [-7/2, 7/2] converges
    to 30 digits (step 1/32 on [-4, 4] agrees to 4e-31).  The bump's mass
    is summed by the same rule.
    """
    with mpmath.workdps(30):
        c, delta, epsilon = mpmath.mpf(c), mpmath.mpf(delta), mpmath.mpf(epsilon)
        assert abs(c) > (delta + epsilon) * mpmath.tanh(3.5)
        nodes = [mpmath.mpf(k) / 16 for k in range(-56, 57)]
        u = [mpmath.tanh(x) for x in nodes]
        weights = [mpmath.exp(-mpmath.cosh(x) ** 2) / mpmath.cosh(x) ** 2 for x in nodes]
        total = mpmath.fsum(-mpmath.log(abs(c + delta * us - epsilon * ut)) * ws * wt
                            for us, ws in zip(u, weights) for ut, wt in zip(u, weights))
        return float(total / mpmath.fsum(weights) ** 2)


class TestMollifierSpec:
    """The mollifier: the bump density.  The density is a test parameter, so
    the tests keep the ids ([rho0]) they had when a second profile existed."""

    @pytest.mark.parametrize("rho", [bump_density], ids=["rho0"])
    def test_density_integrates_to_one(self, rho):
        u = np.linspace(-1.0, 1.0, 200_001)
        total = float(np.trapezoid(rho(u), u))
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("rho", [bump_density], ids=["rho0"])
    def test_density_vanishes_outside_support(self, rho):
        assert np.all(rho(np.array([-1.5, -1.0, 1.0, 2.0])) == 0.0)

    def test_scaled_density_change_of_variables(self):
        u = np.linspace(0.2, 0.4, 1001)
        scaled = scaled_bump(u, 0.1, 0.3)
        assert float(np.trapezoid(scaled, u)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho", [bump_density], ids=["rho0"])
    def test_sampler_matches_density(self, rho):
        rng = np.random.default_rng(42)
        draws = sample_profile(rng, 200_000)
        assert np.all(np.abs(draws) <= 1.0)
        hist, edges = np.histogram(draws, bins=50, range=(-1, 1), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(hist - rho(centers))) < 0.05

    def test_bump_normalization_constant(self):
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda u: mpmath.exp(-1 / (1 - u * u)), [-1, 0, 1])
            assert abs(BUMP_INTEGRAL - exact) <= 1e-15 * exact


class TestCircleLogKernel:
    def test_antipodal(self):
        assert circle_log_kernel(math.pi, 0.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_unit_chord(self):
        assert circle_log_kernel(math.pi / 3.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_coincidence_is_infinite(self):
        assert circle_log_kernel(1.0, 1.0) == math.inf

    def test_symmetric(self):
        assert circle_log_kernel(0.3, 1.9) == circle_log_kernel(1.9, 0.3)

    def test_small_separation_matches_partial_fourier_sum(self):
        k = np.arange(1, 1_000_001, dtype=np.float64)
        partial = float(np.sum(np.cos(k * 0.01) / k))
        assert circle_log_kernel(0.01, 0.0) == pytest.approx(partial, abs=2e-3)


class TestCircleTruncatedKernel:
    def test_diagonal_is_harmonic_number(self):
        kmaxes = [1, 5, 100]
        got = circle_truncated_kernel_grid(np.array([0.0]), kmaxes)[:, 0]
        for value, kmax in zip(got, kmaxes):
            h = sum(1.0 / k for k in range(1, kmax + 1))
            assert value == pytest.approx(h, abs=1e-13)

    def test_single_mode_is_cosine(self):
        got = circle_truncated_kernel_grid(np.array([1.1 - 0.4]), [1])[0, 0]
        assert got == pytest.approx(math.cos(0.7), abs=1e-14)

    def test_symmetric(self):
        # even in the separation bit for bit, so the kernel is symmetric in
        # its two angles
        seps = np.array([0.3 - 1.9, 2.5, 1e-3, 3.1])
        got = circle_truncated_kernel_grid(np.concatenate([seps, -seps]), [37, 200])
        np.testing.assert_array_equal(got[:, :4], got[:, 4:])

    def test_grid_variant_matches_scalar(self):
        deltas = np.array([0.1, 1.0, 2.7])
        grid = circle_truncated_kernel_grid(deltas, [4, 64])
        for row, kmax in zip(grid, [4, 64]):
            for got, d in zip(row, deltas):
                assert got == pytest.approx(circle_truncated_kernel(float(d), 0.0, kmax), abs=1e-12)

    def test_grid_variant_matches_fsum_at_top_order(self):
        deltas = np.linspace(1e-4, math.pi, 20)
        grid = circle_truncated_kernel_grid(deltas, [4096])[0]
        for got, d in zip(grid, deltas):
            assert abs(got - circle_truncated_kernel(float(d), 0.0, 4096)) <= 1e-12

    def test_against_mpmath_sum(self):
        # the phases from 12 exponentials per separation: measured 8.9e-16,
        # as with 32 exponentials per separation, and 1.6e-15 with one
        # complex exponential per table row and block
        deltas = np.linspace(1e-4, math.pi, 20)
        kmaxes = [4**j for j in range(1, 7)]  # 4 .. 4096
        reference = mp_truncated_kernel(tuple(deltas.tolist()), tuple(kmaxes))
        got = circle_truncated_kernel_grid(deltas, kmaxes)
        assert float(np.max(np.abs(got - reference))) <= 2e-15

    def test_against_direct_exponential_table(self):
        # every block offset mod 64 and 512, separations of both signs, zero
        # and past pi, over more than two slices; the direct table rounds
        # k x before its exponential, so it differs by up to 4.5e-14 at
        # these orders, with factored and unfactored phases alike
        seps = np.random.default_rng(3).uniform(-4.0, 4.0, 2 * kernels.TRUNCATED_SLICE + 5)
        seps[:4] = [0.0, -0.0, math.pi, 2.0 * math.pi]
        kmaxes = [1, 7, 64, 65, 100, 513, 1000, 4096]
        got = circle_truncated_kernel_grid(seps, kmaxes)
        reference = direct_truncated_kernel_grid(seps, kmaxes)
        assert float(np.max(np.abs(got - reference))) <= 1e-13

    @pytest.mark.slow
    def test_kernel_check_orders_against_mpmath_sum(self):
        # the kernel-check's own orders 4 .. 4096 at its first 60
        # separations; measured 8.9e-16
        seps = montecarlo._kernel_check_separations()[:60]
        kmaxes = [2**j for j in range(2, 13)]
        reference = mp_truncated_kernel(tuple(seps.tolist()), tuple(kmaxes))
        got = circle_truncated_kernel_grid(seps, kmaxes)
        assert float(np.max(np.abs(got - reference))) <= 2e-15

    def test_phase_tables_against_mpmath(self):
        # every table row e^{ijx} is a product of at most six exponentials
        # and every block phase e^{i k0 x} at orders up to 4096 of at most
        # twelve (thirteen at 8191).  With each exponential within an ulp,
        # sqrt(2) u, and each product of unit-modulus numbers within
        # sqrt(5) u, the first-order bounds are 2.2e-15 and 4.7e-15
        # (5.1e-15 at 8191); measured 3.1e-16 and 4.6e-16
        seps = np.concatenate([
            [0.0, -0.0, 1e-4, -1e-4, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi],
            np.random.default_rng(11).uniform(-7.0, 7.0, 12),
        ])
        # every 64-mode block start up to 4096, every a and b with the
        # table row of the most factors, and starts past 4096
        starts = np.array(sorted({
            *range(1, 4097, TRUNCATED_BLOCK),
            *(512 * a + 64 * b + 63 for a in range(8) for b in range(8)),
            4097, 5000, 8191, 9985,
        }))
        table, phase = kernels._phase_tables(seps, starts)
        with mpmath.workdps(30):
            xs = [mpmath.mpf(x) for x in seps.tolist()]
            table_ref = np.array([[complex(mpmath.expj(j * x)) for x in xs] for j in range(64)])
            phase_ref = np.array([[complex(mpmath.expj(int(k) * x)) for x in xs] for k in starts])
        assert table.shape == (TRUNCATED_BLOCK, seps.size)
        assert float(np.max(np.abs(table - table_ref))) <= 2.2e-15
        assert float(np.max(np.abs(phase - phase_ref))) <= 5.1e-15
        # the order-0 factors are exactly 1
        assert np.all(table[0] == 1.0)

    def test_orders_past_4096_against_direct_exponential_table(self):
        # past order 4096 the 512-step factor v[a] needs more than three
        # bits (a = 19 at 9985); measured 1.7e-14.  Few separations, since
        # the direct table holds every order at each
        seps = np.random.default_rng(4).uniform(-4.0, 4.0, 100)
        seps[:4] = [0.0, -0.0, math.pi, 2.0 * math.pi]
        kmaxes = [4096, 4097, 5000, 8192, 10_000]
        got = circle_truncated_kernel_grid(seps, kmaxes)
        reference = direct_truncated_kernel_grid(seps, kmaxes)
        assert float(np.max(np.abs(got - reference))) <= 1e-13

    def test_grid_variant_rejects_order_below_one(self):
        with pytest.raises(ValueError):
            circle_truncated_kernel_grid(np.array([0.5]), [0, 4])

    @pytest.mark.parametrize("kmaxes", [[], [4.0], [4, 8.0]], ids=["empty", "float", "mixed"])
    def test_grid_variant_rejects_orders_that_are_not_integers(self, kmaxes):
        with pytest.raises(ValueError, match=r"non-empty list of integers, got \["):
            circle_truncated_kernel_grid(np.array([0.5]), kmaxes)

    def test_bounded_deviation_from_log_kernel(self):
        rng = np.random.default_rng(5)
        seps = rng.uniform(1e-4, math.pi, 10_000)
        kmaxes = [4 ** (j + 1) for j in range(6)]  # 4 .. 4096
        rows = circle_truncated_kernel_grid(seps, kmaxes)
        chord = 2.0 * np.abs(np.sin(seps / 2.0))
        for row, kmax in zip(rows, kmaxes):
            dev = np.abs(row + np.log(np.maximum(chord, 1.0 / kmax)))
            assert float(dev.max()) <= 2.0

    def test_slices_join_bit_for_bit(self):
        # a separation count that is not a multiple of the slice length, cut
        # into pieces that straddle the slice boundaries
        n = 2 * kernels.TRUNCATED_SLICE + 37
        seps = np.random.default_rng(8).uniform(1e-4, math.pi, n)
        kmaxes = [3, 64, 100, 1000]
        whole = circle_truncated_kernel_grid(seps, kmaxes)
        cuts = [0, 5, 300, kernels.TRUNCATED_SLICE + 100, n]
        pieces = [circle_truncated_kernel_grid(seps[a:b], kmaxes) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(pieces, axis=1).tobytes() == whole.tobytes()

    def test_lone_last_separation_joins_bit_for_bit(self):
        # the slices are near-equal, so no slice of a call on many
        # separations is a one-column matrix-vector product
        n = 2 * kernels.TRUNCATED_SLICE + 1
        seps = np.random.default_rng(9).uniform(1e-4, math.pi, n)
        kmaxes = [4**j for j in range(1, 7)]
        whole = circle_truncated_kernel_grid(seps, kmaxes)
        pieces = [circle_truncated_kernel_grid(part, kmaxes) for part in (seps[:3], seps[3:])]
        assert np.concatenate(pieces, axis=1).tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "count", [0, 1, 2, kernels.TRUNCATED_SLICE + 1, 2 * kernels.TRUNCATED_SLICE + 1]
    )
    def test_slice_counts_join_bit_for_bit(self, count):
        # pieces of two or more separations, across the slice boundaries; a
        # call on at most two separations is its own only piece
        seps = np.random.default_rng(count).uniform(1e-4, math.pi, count)
        kmaxes = [1, 7, 64, 65, 513, 4096]
        whole = circle_truncated_kernel_grid(seps, kmaxes)
        assert whole.shape == (len(kmaxes), count)
        inner = {2, kernels.TRUNCATED_SLICE, count - 2}
        cuts = [0, *sorted(c for c in inner if 2 <= c <= count - 2), count]
        pieces = [circle_truncated_kernel_grid(seps[a:b], kmaxes) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate(pieces, axis=1).tobytes() == whole.tobytes()

    def test_work_memory_is_bounded(self):
        # measured 2.35 MB; 2.62 MB with a complex exponential per table row
        # and block, and 31.5 MB with all separations in one piece
        seps = np.random.default_rng(5).uniform(1e-4, math.pi, 10_000)
        kmaxes = [4 ** (j + 1) for j in range(6)]
        tracemalloc.start()
        try:
            circle_truncated_kernel_grid(seps, kmaxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_pointwise_convergence_to_log_kernel(self):
        sep = math.pi / 5.0
        exact = circle_log_kernel(sep, 0.0)
        errs = [abs(circle_truncated_kernel(sep, 0.0, 2**j) - exact) for j in range(2, 12)]
        for lo, hi in zip(errs[2:], errs[:-2]):
            assert lo < hi  # halving trend, allowing Dirichlet-kernel wiggle
        assert errs[-1] < 1e-3


class TestMollifiedKernel:
    def test_far_field_matches_log_kernel(self):
        for delta in (1.0 / 16.0, 1.0 / 32.0):
            got = mollified_kernel(0.6, 0.3, delta)
            assert abs(got - (-math.log(0.3))) <= (delta / 0.3) ** 2

    def test_against_riemann_sum_oracle(self):
        delta = 1.0 / 16.0
        got = mollified_kernel(0.5, 0.5, delta)
        u = (np.arange(2_000_000) + 0.5) / 2_000_000 * (2 * delta) - delta + 0.5
        brute = float(np.mean(-np.log(np.abs(u - 0.5)) * scaled_bump(u, delta, 0.5)) * 2 * delta)
        assert got == pytest.approx(brute, abs=1e-5)

    def test_diagonal_bounded_by_log_scale(self):
        for delta in (1.0 / 8.0, 1.0 / 64.0):
            got = mollified_kernel(0.5, 0.5, delta)
            assert got <= math.log(1.0 / delta) + 2.0

    def test_rejects_support_outside_domain(self):
        with pytest.raises(ValueError):
            mollified_kernel(0.05, 0.5, 0.1, domain=(0.0, 1.0))

    # the kernel under test is a parameter whose id names its mollifier
    @pytest.mark.parametrize("kernel", [mollified_kernel], ids=["bump"])
    @pytest.mark.parametrize(
        "x, z, delta",
        [
            (0.5, 0.5, 1.0 / 16.0),  # z at the centre
            (0.5, 0.5 + 0.37 / 16.0, 1.0 / 16.0),  # inside the support
            (0.5, 0.5 - 0.6 / 8.0, 1.0 / 8.0),
            (0.5, 0.5 + 1.0 / 16.0, 1.0 / 16.0),  # at its edge
            (0.5, 0.2, 1.0 / 16.0),  # far away
        ],
        ids=["centre", "inside", "inside-left", "edge", "far"],
    )
    def test_against_mpmath(self, kernel, x, z, delta):
        # measured at most 1.8e-15
        reference = mp_mollified_kernel(x, z, delta)
        assert abs(kernel(x, z, delta) - reference) <= 1e-12


class TestConvDensity:
    @pytest.mark.parametrize(
        "delta, epsilon", [(1.0 / 16.0, 1.0 / 32.0), (1.0 / 16.0, 1e-4), (1.0 / 8.0, 1.0 / 256.0)]
    )
    def test_matches_simpson_oracle(self, delta, epsilon):
        oracle, half = simpson_conv_density(delta, epsilon)
        density, got_half = _conv_density(delta, epsilon)
        assert got_half == half
        w = np.linspace(-half, half, 10_001)
        assert float(np.max(np.abs(density(w) - oracle(w)))) <= 1e-12

    def test_ratio_below_refinement_cap_matches_oracle(self):
        # epsilon/delta = 8e-6 leaves rho_r about 17 lattice points
        oracle, half = simpson_conv_density(1.0 / 8.0, 1e-6)
        density, _ = _conv_density(1.0 / 8.0, 1e-6)
        w = np.linspace(-half, half, 10_001)
        assert float(np.max(np.abs(density(w) - oracle(w)))) <= 1e-11

    def test_uniform_spline_interpolates_and_vanishes_outside(self):
        nodes = np.linspace(-1.0, 1.0, 257)
        values = bump_density(nodes)
        spline = _uniform_spline(-1.0, 2.0 / 256, values)
        assert np.max(np.abs(spline(nodes[:-1]) - values[:-1])) <= 1e-15
        mids = nodes[:-1] + 1.0 / 256
        assert np.max(np.abs(spline(mids) - bump_density(mids))) <= 1e-6
        assert np.all(spline(np.array([-3.0, -1.0 - 1e-9, 1.0, 2.5])) == 0.0)

    def test_one_unit_density_per_ratio(self):
        kernels._unit_conv_density.cache_clear()
        coarse, _ = _conv_density(1.0 / 8.0, 1.0 / 32.0)
        fine, _ = _conv_density(1.0 / 64.0, 1.0 / 256.0)
        assert kernels._unit_conv_density.cache_info().currsize == 1
        u = np.linspace(-1.25, 1.25, 101)
        # q_{delta,eps}(w) = delta^-1 S_{eps/delta}(w/delta)
        assert np.allclose(coarse(u / 8.0) / 8.0, fine(u / 64.0) / 64.0, rtol=1e-14, atol=0.0)


class TestRefinedEdges:
    @pytest.mark.parametrize("half", [1.0, 0.25, 0.125 + 0.00390625, 2.0**-8 + 2.0**-9, 0.3])
    def test_matches_looped_oracle(self, half):
        specials = [
            -half, half,  # at either end
            0.0, -0.0,
            -1.5 * half, half + 1.0, 7.0,  # outside [lo, hi]
            1e-9, -1e-9, 1e-12, -3e-15, 5e-324,  # |c| <= 1e-9
            0.5 * half, -0.3 * half, half * (1.0 - 2.0**-40),
            *np.random.default_rng(11).uniform(-half, half, 8),
        ]
        # knots as doubly_mollified_kernel places them, at +-(delta - epsilon):
        # none, both at zero (epsilon = delta), and at a third of half
        # (epsilon = delta / 2)
        for knots in [(), (-0.0, 0.0), (-half / 3.0, half / 3.0)]:
            rows = _refined_edges(-half, half, np.array(specials), knots)
            assert rows.shape[0] == len(specials)
            for special, row in zip(specials, rows):
                want = looped_refined_edges(-half, half, float(special), knots)
                # each row is sorted, starts at lo, ends at hi and may repeat edges
                assert row[0] == -half and row[-1] == half and np.all(row[1:] >= row[:-1])
                got = row[np.r_[True, row[1:] != row[:-1]]]
                assert got.size == want.size, (special, knots)
                np.testing.assert_array_equal(got, want)

    def test_kernel_check_loads_no_masked_arrays(self, tmp_path):
        # np.unique loads numpy.ma, about 1.7 MB of RSS on numpy 2.4
        script = (
            "import sys\n"
            "from thickpoints import cli\n"
            "assert cli.main(['kernel-check', '-o', 'kc']) == cli.EXIT_OK\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
        env = dict(os.environ, PYTHONPATH=src, THICKPOINT_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestDoublyMollifiedKernel:
    def test_arrays_match_float_calls_bit_for_bit(self):
        x = np.array([0.5, 0.5, 0.3, 0.55, 0.4, 0.2])
        z = np.array([0.5, 0.52, 0.55, 0.3, 0.4 + 1e-10, 0.8])
        for delta, eps in ((1.0 / 8.0, 1.0 / 8.0), (1.0 / 16.0, 1.0 / 64.0), (0.2, 1e-4)):
            got = doubly_mollified_kernel(x, z, delta, eps, (0.0, 1.0))
            want = [doubly_mollified_kernel(float(a), float(b), delta, eps) for a, b in zip(x, z)]
            assert isinstance(want[0], float)
            assert got.tolist() == want

    def test_arrays_check_every_support(self):
        with pytest.raises(ValueError, match="escapes the working domain"):
            doubly_mollified_kernel(np.array([0.5, 0.95]), np.array([0.5, 0.5]), 0.1, 0.1, (0.0, 1.0))
        with pytest.raises(ValueError, match="escapes the working domain"):
            doubly_mollified_kernel(np.array([0.5, 0.5]), np.array([0.5, 0.02]), 0.1, 0.05, (0.0, 1.0))

    def test_point_mass_limit_recovers_single_mollification(self):
        got = doubly_mollified_kernel(0.5, 0.3, 1.0 / 16.0, 1e-4)
        assert got == pytest.approx(mollified_kernel(0.5, 0.3, 1.0 / 16.0), abs=1e-6)

    def test_symmetric_in_points(self):
        a = doubly_mollified_kernel(0.4, 0.55, 1.0 / 16.0, 1.0 / 16.0)
        b = doubly_mollified_kernel(0.55, 0.4, 1.0 / 16.0, 1.0 / 16.0)
        assert a == pytest.approx(b, abs=1e-10)

    def test_against_riemann_sum_oracle(self):
        got = doubly_mollified_kernel(0.4, 0.45, 1.0 / 16.0, 1.0 / 32.0)
        s = np.linspace(-1.0 / 16.0, 1.0 / 16.0, 2000)  # endpoints off-singularity
        t = np.linspace(-1.0 / 32.0, 1.0 / 32.0, 1999)
        rs = scaled_bump(s, 1.0 / 16.0, 0.0)
        rt = scaled_bump(t, 1.0 / 32.0, 0.0)
        grid = -np.log(np.abs((0.4 + s[:, None]) - (0.45 + t[None, :])))
        brute = float(np.trapezoid(np.trapezoid(grid * rs[:, None] * rt[None, :], t, axis=1), s))
        # the trapezoid oracle is singularity-limited near overlapping supports
        assert got == pytest.approx(brute, abs=5e-4)

    def test_against_riemann_sum_oracle_disjoint_supports(self):
        got = doubly_mollified_kernel(0.2, 0.7, 1.0 / 16.0, 1.0 / 32.0)
        s = np.linspace(-1.0 / 16.0, 1.0 / 16.0, 2000)
        t = np.linspace(-1.0 / 32.0, 1.0 / 32.0, 1999)
        rs = scaled_bump(s, 1.0 / 16.0, 0.0)
        rt = scaled_bump(t, 1.0 / 32.0, 0.0)
        grid = -np.log(np.abs((0.2 + s[:, None]) - (0.7 + t[None, :])))
        brute = float(np.trapezoid(np.trapezoid(grid * rs[:, None] * rt[None, :], t, axis=1), s))
        assert got == pytest.approx(brute, abs=1e-7)

    def test_diagonal_identity_with_kappa(self):
        # C_{eps,eps}(x,x) = log(1/eps) + kappa exactly
        k = kappa()
        for eps in (1.0 / 8.0, 1.0 / 64.0, 1.0 / 512.0):
            got = doubly_mollified_kernel(0.5, 0.5, eps, eps)
            assert got == pytest.approx(math.log(1.0 / eps) + k, abs=1e-8)

    # the lattice convolution is exact to rounding (measured 3e-14)
    @pytest.mark.parametrize("kernel", [doubly_mollified_kernel], ids=["bump"])
    def test_diagonal_against_mpmath(self, kernel):
        # C_{delta,delta}(x,x) = log(1/delta) + kappa by scale invariance
        reference = mp_kappa()
        for delta in (1.0, 0.5, 0.125):
            got = kernel(0.3, 0.3, delta, delta)
            assert abs(got - math.log(1.0 / delta) - reference) <= 1e-12

    # the log singularity at an end of the density's support, where the
    # panels stop refining, and a hair outside and inside it.  At ratio 1 the
    # end ladders are finest relative to the bumps; at ratio 1/2 the knots
    # +-(delta - epsilon) lie inside the support, and a panel across them
    # was 1.3e-9 off here.  Measured at most 1.3e-15.
    @pytest.mark.parametrize("delta, epsilon", [(1.0 / 8.0, 1.0 / 8.0), (1.0 / 16.0, 1.0 / 32.0)],
                             ids=["ratio-1", "ratio-1/2"])
    @pytest.mark.parametrize("scale", [1.0, -1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-40],
                             ids=["end", "other-end", "outside", "inside"])
    def test_singularity_at_support_end_against_mpmath(self, delta, epsilon, scale):
        c = scale * (delta + epsilon)
        # the kernel is even in c
        reference = mp_doubly_mollified_kernel(abs(c), delta, epsilon)
        assert abs(doubly_mollified_kernel(c, 0.0, delta, epsilon) - reference) <= 1e-12

    def test_cross_scale_error_is_controlled(self):
        # |C_{delta,eps} - C_delta| <= C (eps/delta) log(1/delta) with C <= 10
        for delta in (1.0 / 8.0, 1.0 / 32.0):
            for eps in (delta / 4.0, delta / 16.0):
                for z, x in ((0.3, 0.5), (0.45, 0.5), (0.5, 0.52)):
                    diff = abs(
                        doubly_mollified_kernel(z, x, delta, eps)
                        - mollified_kernel(z, x, delta)
                    )
                    assert diff <= 10.0 * (eps / delta) * math.log(1.0 / delta)


class TestKappa:
    @pytest.mark.parametrize("oracle", [kappa], ids=["bump"])
    def test_against_mpmath(self, oracle):
        assert abs(oracle() - mp_kappa()) <= 1e-12

    def test_independent_of_position_when_h_absent(self):
        diagonal = [doubly_mollified_kernel(x, x, 1.0, 1.0) for x in (0.2, 0.9)]
        assert diagonal == pytest.approx([kappa(), kappa()], abs=1e-12)


class TestAssumption1Check:
    def test_bounded_on_working_grid(self, monkeypatch):
        calls = []
        kernel = kernels.doubly_mollified_kernel

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(kernels, "doubly_mollified_kernel", counted)
        deltas = [2.0**-j for j in range(3, 9)]
        worst = assumption1_check(
            np.linspace(0.15, 0.85, 5), deltas, deltas, (0.0, 1.0)
        )
        assert math.isfinite(worst)
        assert worst <= 3.0
        # one call for each of the 21 scale pairs with epsilon <= delta, on
        # the 15 distinct separations x - z among the 25 grid pairs
        assert len(calls) == 21
        assert all(len(x) == len(z) == 15 for x, z, *_ in calls)

    def test_worst_matches_all_pairs_bit_for_bit(self):
        grid = np.linspace(0.15, 0.85, 5)
        deltas = [2.0**-j for j in range(3, 9)]
        worst = 0.0
        for delta in deltas:
            for eps in deltas:
                if eps > delta:
                    continue
                for x in grid:
                    for z in grid:
                        val = doubly_mollified_kernel(float(x), float(z), delta, eps, (0.0, 1.0))
                        worst = max(worst, abs(val + math.log(max(abs(x - z), delta))))
        assert assumption1_check(grid, deltas, deltas, (0.0, 1.0)) == worst

    def test_memory_with_cold_splines(self):
        # the unit densities are built inside the call; measured 3.39 MB,
        # and 3.41 MB with one quadrature per separation
        kernels._unit_conv_density.cache_clear()
        deltas = [2.0**-j for j in range(3, 9)]
        tracemalloc.start()
        try:
            assumption1_check(np.linspace(0.15, 0.85, 5), deltas, deltas, (0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20

    def test_memory_with_warm_splines(self):
        # measured 1.34 MB, and 1.95 MB with the ends refined to 1e-13 of
        # the width and no knots
        deltas = [2.0**-j for j in range(3, 9)]
        grid = np.linspace(0.15, 0.85, 5)
        assumption1_check(grid, deltas, deltas, (0.0, 1.0))
        tracemalloc.start()
        try:
            assumption1_check(grid, deltas, deltas, (0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_panel_count(self, monkeypatch):
        # the panels at the kernel-check config: 30 498 with the ends
        # refined to 1e-13 of the width, 9 078 at 2^-10 with no knots
        counts = []
        edges = kernels._refined_edges

        def counted(*args):
            rows = edges(*args)
            counts.append(int(np.count_nonzero(rows[:, 1:] > rows[:, :-1])))
            return rows

        monkeypatch.setattr(kernels, "_refined_edges", counted)
        deltas = [2.0**-j for j in range(3, 9)]
        assumption1_check(np.linspace(0.15, 0.85, 5), deltas, deltas, (0.0, 1.0))
        assert len(counts) == 21
        assert sum(counts) == 16_274

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty grid"):
            assumption1_check(np.array([]), [0.1], [0.1], (0.0, 1.0))

    @pytest.mark.parametrize("grid", [[0.05, 0.3, 0.5], [0.5, 0.7, 0.95]], ids=["first", "last"])
    @pytest.mark.parametrize(
        "epsilon",
        # scale pairs have epsilon <= delta, so an escaping epsilon support
        # comes with an escaping delta support
        [0.01, 0.1],
        ids=["delta", "epsilon"],
    )
    def test_rejects_support_outside_domain(self, grid, epsilon):
        with pytest.raises(ValueError, match="escapes the working domain"):
            assumption1_check(grid, [0.1], [epsilon], (0.0, 1.0))

    def test_far_pair_has_small_deviation(self):
        val = doubly_mollified_kernel(0.25, 0.75, 1.0 / 8.0, 1.0 / 8.0, (0.0, 1.0))
        assert abs(val + math.log(0.5)) < 0.1


def test_gauss_legendre_table_is_leggauss():
    # the literal 16-point table is numpy's, bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert [x.hex() for x in kernels.GL_NODES.tolist()] == [x.hex() for x in nodes.tolist()]
    assert [w.hex() for w in kernels.GL_WEIGHTS.tolist()] == [w.hex() for w in weights.tolist()]


@pytest.mark.parametrize("grid_size, length", [(64, 8), (96, 12), (100, 10), (16384, 512)])
def test_coset_twiddles_against_mpmath(grid_size, length):
    # each part of every entry within one unit in the last place of
    # e^{2 pi i p / M}, and the quarter turns exact, so that a grid point on
    # a root sums to an exact zero
    table = kernels._coset_twiddles(grid_size, length, length + 1)
    assert table.shape == (grid_size // length, length + 1)
    assert not table.flags.writeable
    phases = np.outer(np.arange(grid_size // length), np.arange(length + 1)) % grid_size
    with mpmath.workdps(30):
        ref = {p: complex(mpmath.expjpi(mpmath.mpf(2 * p) / grid_size)) for p in np.unique(phases).tolist()}
    want = np.vectorize(ref.get, otypes=[complex])(phases)
    diff = table - want
    assert max(np.max(np.abs(diff.real)), np.max(np.abs(diff.imag))) <= 2.0**-52
    quarter = 4 * phases % grid_size == 0
    assert np.array_equal(table[quarter], want[quarter])
    assert quarter.sum() > 1


@pytest.mark.parametrize(
    "grid_size, least, length",
    [
        (16384, 297, 512),
        (16384, 1024, 1024),
        (8192, 1025, 2048),
        (4800, 109, 120),
        (1031, 3, 1031),
    ],
)
def test_coset_length_takes_the_shortest_divisor(grid_size, least, length):
    # the nu-mu barrier at n = 1024 (148 modes), the field at n = 1024,
    # gaussian-gmc at kmax = 512 (4 cosets), the barrier at n = 300 (54
    # modes) and a prime grid, one transform of its whole length
    assert kernels._coset_length(grid_size, least) == length


@pytest.mark.parametrize(
    "grid_size, kmax",
    [(41, 20), (40, 20), (1031, 20), (32, 31), (8192, 512), (31, 20)],
    ids=["one-coset", "nyquist-fold", "prime", "most-modes", "gaussian-gmc", "prime-past-the-fold"],
)
def test_real_fourier_grid_on_both_sides_of_the_fold(grid_size, kmax):
    # the real coset layout while 2K + 1 <= M, the complex sum's layout of
    # K + 1 coefficients beyond; budget 1e-15 of sum_k |modes_k| against
    # mpmath and against the one real transform that folds the modes past
    # M/2, as for the truncated fields, measured at most 2.3e-16 of it
    rng = np.random.default_rng(grid_size + kmax)
    modes = rng.standard_normal((2, kmax)) + 1j * rng.standard_normal((2, kmax))
    least = 2 * kmax + 1 if 2 * kmax + 1 <= grid_size else kmax
    length = kernels._coset_length(grid_size, least)
    got = real_fourier_grid(modes, grid_size)
    assert got.shape == (2, grid_size // length, length)
    indices = range(0, grid_size, 67 if grid_size > 2000 else 1)
    folded = one_transform_real_grid(modes, grid_size)
    for row, row_modes, folded_row in zip(to_grid_order(got), modes, folded):
        budget = 1e-15 * np.sum(np.abs(row_modes))
        ref = mp_fourier_sum(row_modes, lambda k: 1, grid_size, indices)
        assert np.max(np.abs(row[indices] - ref)) <= budget
        assert np.max(np.abs(row - folded_row)) <= budget


def test_grid_sums_refuse_too_many_modes():
    modes = np.ones(8, dtype=complex)
    with pytest.raises(ValueError, match="8 modes .* got 8"):
        real_fourier_grid(modes, 8)
    with pytest.raises(ValueError, match="8 modes .* got 7"):
        real_fourier_grid(modes, 7)
    with pytest.raises(ValueError, match="8 coefficients .* got 6"):
        fourier_grid(modes, 6)


def test_fourier_grid_takes_one_coefficient_past_the_grid():
    # K = M + 1: the top coefficient folds onto the constant one; measured
    # 2.7e-16 of sum_m |c_m| off the direct sum
    grid_size = 12
    rng = np.random.default_rng(12)
    c = rng.standard_normal(grid_size + 1) + 1j * rng.standard_normal(grid_size + 1)
    phase = np.outer(np.arange(grid_size), np.arange(grid_size + 1)) % grid_size
    direct = np.exp(2j * np.pi * phase / grid_size) @ c
    got = to_grid_order(fourier_grid(c, grid_size))
    assert np.max(np.abs(got - direct)) <= 1e-15 * np.sum(np.abs(c))

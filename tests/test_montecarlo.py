import functools
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from conftest import (
    exact_thickpoint_prob,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    ks_two_sample_critical_value,
    nu_mu_barrier_oracle,
    replica_stream,
)
from thickpoints import cue, kernels, montecarlo
from thickpoints.montecarlo import (
    Experiment,
    ExperimentConfig,
    derive_seed,
    run_experiment,
    run_replica,
    summarize,
    worker_count,
)
from thickpoints.special_fn import (
    GammaConvention,
    cue_abs_moment_exact,
    fk_normalizer,
    thickpoint_prob_asymptotic,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_across_indices_and_seeds(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(0, 0) != derive_seed(1, 0)

    def test_fits_in_64_bits(self):
        for i in range(100):
            s = derive_seed((1 << 64) - 1, i)
            assert 0 <= s < (1 << 64)

    def test_stream_reproducible(self):
        a = replica_stream(5, 3).standard_normal(4)
        b = replica_stream(5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_substream_independence(self):
        # adjacent replica streams must be empirically uncorrelated
        reps = 10_000
        x = np.empty(reps)
        y = np.empty(reps)
        for i in range(reps):
            x[i] = replica_stream(0, i).standard_normal(1)[0]
            y[i] = replica_stream(0, i + 1).standard_normal(1)[0]
        corr = float(np.mean(x * y))
        assert abs(corr) <= 4.0 / math.sqrt(reps)


class TestReplicaStreams:
    def test_vectorised_states_match_fresh_generators(self):
        # 10^5 derived seeds, hashed as one uint64 array as a worker's run is
        seeds = derive_seed(0, np.arange(100_000, dtype=np.uint64))
        words = np.stack(montecarlo._seed_sequence_words(seeds), axis=-1)
        for lo in range(0, seeds.size, 1000):
            streams = montecarlo._streams(words[lo : lo + 1000])
            for seed, stream in zip(seeds[lo : lo + 1000].tolist(), streams):
                assert stream.bit_generator.state == np.random.PCG64(seed).state, seed

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_states_at_entropy_word_edges(self, seed):
        # below 2^32 a seed is one 32-bit entropy word, from 2^32 two
        fresh = np.random.PCG64(seed).state
        words = montecarlo._seed_sequence_words(np.array([seed, seed], dtype=np.uint64))
        for stream in montecarlo._streams(np.stack(words, axis=-1)):
            assert stream.bit_generator.state == fresh

    def test_seed_words_refuse_other_requests(self):
        words = montecarlo._SeedWords([1, 2, 3, 4])
        assert words.generate_state(4, np.uint64).tolist() == [1, 2, 3, 4]
        for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError):
                words.generate_state(n_words, dtype)
        with pytest.raises(ValueError):
            montecarlo._SeedWords([1, 2, 3])

    def test_derive_seed_of_an_index_array(self):
        for master in (0, 1, 2**32, 2**64 - 1):
            got = derive_seed(master, np.arange(1000, dtype=np.uint64)).tolist()
            assert got == [derive_seed(master, i) for i in range(1000)]

    def test_block_streams_draw_as_fresh_ones_when_interleaved(self):
        seeds = [derive_seed(3, i) for i in (7, 8, 9)]
        words = np.stack(montecarlo._seed_sequence_words(np.array(seeds, dtype=np.uint64)), -1)
        # a block's generators are all collected before any of them draws
        streams = list(montecarlo._streams(words.tolist()))
        fresh = [replica_stream(3, i) for i in (7, 8, 9)]
        for _ in range(3):
            for stream, ref in zip(streams, fresh):
                # three 32-bit draws leave a buffered half of a 64-bit draw behind
                got = stream.integers(0, 10, size=3, dtype=np.uint32)
                assert np.array_equal(got, ref.integers(0, 10, size=3, dtype=np.uint32))
                assert np.array_equal(stream.standard_normal(5), ref.standard_normal(5))


class TestConfigValidation:
    def test_valid_config_passes(self):
        ExperimentConfig(Experiment.MOMENT_CHECK, n=8, replicas=10).validate()

    def test_error_lists_every_bad_field(self):
        cfg = ExperimentConfig(
            Experiment.MOMENT_CHECK, n=0, grid_factor=1, replicas=0, eta=2.0
        )
        with pytest.raises(ValueError) as err:
            cfg.validate()
        msg = str(err.value)
        for word in ("n must", "grid_factor", "replicas", "eta"):
            assert word in msg

    def test_gamma_range_depends_on_convention(self):
        ok = ExperimentConfig(
            Experiment.FK_TEST, gamma=1.2, convention=GammaConvention.THEOREM
        )
        ok.validate()
        bad = ExperimentConfig(
            Experiment.FK_TEST, gamma=1.2, convention=GammaConvention.CONJECTURE
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_barrier_depth_default(self):
        cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, n=1024, eta=0.2)
        assert cfg.barrier_depth == int(0.8 * math.log(1024))
        assert replace(cfg, L=3).barrier_depth == 3

    def test_barrier_depth_must_fit_grid_and_traces(self):
        cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, n=8, grid_factor=4, ell=1)
        # floor(e^3) = 20 modes fold onto a grid of 32 points
        replace(cfg, L=3).validate()
        for bad, word in ((replace(cfg, L=4), "grid_factor*n = 32"),  # floor(e^4) = 54
                          (replace(cfg, n=5, L=3), "grid_factor*n = 20"),  # 20 modes, 20 points
                          (replace(cfg, n=4, grid_factor=128, L=6), "64*n = 256"),  # 403
                          (replace(cfg, L=1000), "grid_factor*n")):
            with pytest.raises(ValueError, match=r"barrier depth") as err:
                bad.validate()
            assert word in str(err.value)
        with pytest.raises(ValueError, match=r"eta must lie in \(0,1\) \(got nan\)"):
            replace(cfg, eta=math.nan).validate()
        # an empty barrier range (ell > L) keeps no modes, so any depth passes
        replace(cfg, ell=6, L=5).validate()
        replace(cfg, L=1000, ell=1001).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_g_shift_must_be_finite(self, value):
        cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, n=16, g_shift=value)
        with pytest.raises(ValueError, match="g_shift must be finite"):
            cfg.validate()

    @pytest.mark.parametrize(
        "experiment, fields, size",
        [
            (Experiment.MOMENT_CHECK, dict(n=64), 64),
            (Experiment.MOMENT_CHECK, dict(n=20000), 3),
            (Experiment.TRACE_COVARIANCE, dict(n=64, kmax=128), 64),
            (Experiment.TRACE_COVARIANCE, dict(n=4096), 4),
            (Experiment.GAUSSIAN_GMC, dict(kmax=512), 15),
            (Experiment.GAUSSIAN_GMC, dict(kmax=128), 63),
            (Experiment.GAUSSIAN_GMC, dict(kmax=8192), 1),
            (Experiment.NU_MU_DISCREPANCY, dict(n=1024, ell=2), 1),
            (Experiment.FK_TEST, dict(n=16), 1),
            (Experiment.KERNEL_CHECKS, {}, 1),
        ],
    )
    def test_block_sizes(self, experiment, fields, size):
        # the block's widest array sets the peak RSS of a blocked run
        assert montecarlo._block_size(ExperimentConfig(experiment, **fields)) == size

    def test_effective_kmax_defaults(self):
        assert ExperimentConfig(Experiment.TRACE_COVARIANCE, n=8).effective_kmax == 16
        assert ExperimentConfig(Experiment.GAUSSIAN_GMC, n=8).effective_kmax == 8
        assert ExperimentConfig(Experiment.GAUSSIAN_GMC, kmax=5).effective_kmax == 5
        # no other experiment reads it, so a deep barrier must not overflow it
        assert ExperimentConfig(Experiment.NU_MU_DISCREPANCY, L=1000).effective_kmax is None


class TestRunExperiment:
    def test_replica_count_and_sorted_indices(self):
        cfg = ExperimentConfig(Experiment.MOMENT_CHECK, n=4, replicas=17, master_seed=1)
        records, summary = run_experiment(cfg)
        assert records == [run_replica(cfg, i) for i in range(17)]
        assert set(summary) == {"exp_moment", "field_at_0"}

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = ExperimentConfig(Experiment.MOMENT_CHECK, n=8, replicas=12, master_seed=3)
        monkeypatch.setenv("THICKPOINT_THREADS", "1")
        one, _ = run_experiment(cfg)
        monkeypatch.setenv("THICKPOINT_THREADS", "2")
        two, _ = run_experiment(cfg)
        assert one == two

    def test_moment_check_matches_exact_moment(self):
        cfg = ExperimentConfig(
            Experiment.MOMENT_CHECK, n=2, gamma=0.4, replicas=20_000, master_seed=7
        )
        _, summary = run_experiment(cfg)
        exact = float(cue_abs_moment_exact(2, 0.4 * math.sqrt(2)).real)
        dev = abs(summary["exp_moment"]["mean"] - exact)
        assert dev <= 4.0 * summary["exp_moment"]["stderr"]

    @pytest.mark.slow
    def test_fk_mass_mean_is_the_exact_probability_over_the_normalizer(self, monkeypatch):
        # every grid point has the law of X_N(0) by rotation invariance, so
        # E[fk_mass] = P(X_N >= gamma log N) / fk_normalizer at any grid size
        n, gamma = 256, 0.4
        cfg = ExperimentConfig(
            Experiment.FK_TEST, n=n, gamma=gamma, convention=GammaConvention.CONJECTURE,
            replicas=1000,
        )
        monkeypatch.setenv("THICKPOINT_THREADS", "1")
        _, summary = run_experiment(cfg)
        exact = exact_thickpoint_prob(n, gamma * math.sqrt(2)) / fk_normalizer(n, gamma)
        dev = abs(summary["fk_mass"]["mean"] - exact)
        assert dev <= 4.0 * summary["fk_mass"]["stderr"]

    @pytest.mark.slow
    def test_nu_mu_means_are_exact(self, monkeypatch):
        # E[mu] = 1, as its normalizer is the exact moment, and E[nu_shifted]
        # = P(X_N >= gamma log N + c) / P_asym(gamma) at any grid size, where
        # gamma log N + c = (gamma + c / log N) log N
        n, gamma, shift = 256, 0.5, 0.3
        cfg = ExperimentConfig(
            Experiment.NU_MU_DISCREPANCY, n=n, gamma=gamma, g_shift=shift, replicas=1000
        )
        monkeypatch.setenv("THICKPOINT_THREADS", "1")
        _, summary = run_experiment(cfg)
        exact = {
            "mu": 1.0,
            "nu_shifted": exact_thickpoint_prob(n, gamma + shift / math.log(n))
            / thickpoint_prob_asymptotic(n, gamma),
        }
        for name, want in exact.items():
            dev = abs(summary[name]["mean"] - want)
            assert dev <= 4.0 * summary[name]["stderr"], name

    def test_kernel_check_runs_once_per_process(self, monkeypatch):
        calls = []
        check = montecarlo.assumption1_check

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "assumption1_check", counted)
        monkeypatch.setenv("THICKPOINT_THREADS", "1")
        montecarlo._kernel_check_values.cache_clear()
        cfg = ExperimentConfig(Experiment.KERNEL_CHECKS, replicas=3)
        records, _ = run_experiment(cfg)
        assert len(calls) == 1
        assert records == [run_replica(cfg, i) for i in range(3)]
        assert records[0] == records[1] == records[2]
        assert set(records[0]) == {"truncated_kernel_max_dev", "assumption1_max_dev"}

    def test_kernel_check_runs_once_before_the_workers_fork(self, tmp_path, monkeypatch):
        log = tmp_path / "calls"
        check = montecarlo.assumption1_check

        def counted(*args, **kwargs):
            # pool workers are forked, so they append to the same file
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return check(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "assumption1_check", counted)
        monkeypatch.setenv("THICKPOINT_THREADS", "2")
        montecarlo._kernel_check_values.cache_clear()
        records, _ = run_experiment(ExperimentConfig(Experiment.KERNEL_CHECKS, replicas=2))
        assert log.read_text().split() == [str(os.getpid())]
        assert records[0] == records[1]

    def test_kernel_check_separations(self):
        seps = montecarlo._kernel_check_separations()
        assert seps.shape == (10_000,)
        assert seps.min() >= 1e-4 and seps.max() < math.pi
        # their unit uniforms, from the SplitMix64 avalanche, are uniform
        uniforms = (seps - 1e-4) / (math.pi - 1e-4)
        assert ks_statistic(uniforms, lambda u: u) < ks_critical_value(10_000, 0.01)

    def test_worker_count_env_parsing(self, monkeypatch):
        monkeypatch.setenv("THICKPOINT_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("THICKPOINT_THREADS", "0")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.delenv("THICKPOINT_THREADS")
        assert worker_count() >= 1


class TestSummarize:
    def test_constant_records(self):
        s = summarize([{"a": 2.0}] * 5)
        assert s == {"a": {"mean": 2.0, "stderr": 0.0}}

    def test_two_records(self):
        s = summarize([{"a": 1.0}, {"a": 3.0}])
        assert s["a"]["mean"] == 2.0
        # sd = sqrt(2), stderr = sd / sqrt(2) = 1
        assert s["a"]["stderr"] == pytest.approx(1.0, abs=1e-14)

    def test_matches_streaming_oracle(self):
        # Welford one-pass mean/variance as an independent reference
        rng = np.random.default_rng(0)
        vals = rng.random(997)
        s = summarize([{"a": float(v)} for v in vals])
        mean, m2 = 0.0, 0.0
        for k, v in enumerate(vals, start=1):
            d = v - mean
            mean += d / k
            m2 += d * (v - mean)
        stderr = math.sqrt(m2 / (len(vals) - 1)) / math.sqrt(len(vals))
        assert s["a"]["mean"] == pytest.approx(mean, abs=1e-12)
        assert s["a"]["stderr"] == pytest.approx(stderr, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestKsStatistic:
    def test_single_median_sample(self):
        # one draw at the median of U[0,1]: D = 0.5
        assert ks_statistic([0.5], lambda x: x) == pytest.approx(0.5)

    def test_perfect_grid_sample(self):
        # x_i = (i - 0.5)/n against U[0,1]: D = 0.5/n
        n = 10
        xs = (np.arange(1, n + 1) - 0.5) / n
        assert ks_statistic(xs, lambda x: x) == pytest.approx(0.5 / n)

    def test_self_sampling_below_critical(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(10_000)
        assert ks_statistic(xs, norm.cdf) < ks_critical_value(10_000, 0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic([], lambda x: x)


class TestKsTwoSample:
    def test_identical_samples_give_zero(self):
        xs = np.arange(5.0)
        assert ks_two_sample(xs, xs) == 0.0

    def test_disjoint_samples_give_one(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_same_distribution_below_critical(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(5000)
        b = rng.standard_normal(5000)
        assert ks_two_sample(a, b) < ks_two_sample_critical_value(5000, 5000, 0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestCriticalValues:
    def test_one_sample_scaling(self):
        assert ks_critical_value(400, 0.01) == pytest.approx(
            math.sqrt(-0.5 * math.log(0.005)) / 20.0
        )

    def test_two_sample_reduces_to_one_sample_limit(self):
        # as m -> inf the two-sample value approaches the one-sample value
        big = ks_two_sample_critical_value(400, 10**9, 0.01)
        assert big == pytest.approx(ks_critical_value(400, 0.01), rel=1e-3)


class TestPerReplicaColumns:
    def test_trace_covariance_columns(self):
        cfg = ExperimentConfig(Experiment.TRACE_COVARIANCE, n=8, kmax=16, replicas=1)
        row = run_replica(cfg, 0)
        assert set(row) == {
            "abs_trace_sq_k1",
            "abs_trace_sq_k8",
            "abs_trace_sq_k16",
        }

    def test_nu_mu_barrier_columns(self):
        cfg = ExperimentConfig(
            Experiment.NU_MU_DISCREPANCY,
            n=64,
            replicas=1,
            ell=2,
            eta=0.2,
            g_shift=0.5,
        )
        row = run_replica(cfg, 0)
        depth = cfg.barrier_depth
        expected = {"mu", "nu", "discrepancy", "nu_shifted", "nu_barrier_violation"}
        expected |= {f"nu_barrier_violation_l{k}" for k in range(2, depth + 1)}
        assert set(row) == expected
        assert row["nu_barrier_violation"] == row["nu_barrier_violation_l2"]

    def test_nu_mu_barrier_synthesizes_once(self, monkeypatch):
        calls = {"synthesis": 0, "traces": 0}
        synthesize, traces = cue.szego_coefficients, cue.trace_powers

        def counted_synthesis(alphas):
            calls["synthesis"] += 1
            return synthesize(alphas)

        def counted_traces(*args):
            calls["traces"] += 1
            return traces(*args)

        monkeypatch.setattr(cue, "szego_coefficients", counted_synthesis)
        monkeypatch.setattr(cue, "trace_powers", counted_traces)
        cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, n=256, replicas=1, ell=2, eta=0.2)
        run_replica(cfg, 0)
        assert calls == {"synthesis": 1, "traces": 1}

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n=1024, ell=2, replicas=16),
            dict(n=256, ell=1, g_shift=-0.7, replicas=8),
            dict(n=64, ell=4, L=3, replicas=2),  # empty range: ell > L
        ],
    )
    def test_barrier_columns_equal_per_start_mask_oracle(self, fields, monkeypatch):
        cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, eta=0.2, master_seed=5, **fields)
        monkeypatch.setenv("THICKPOINT_THREADS", "1")
        records, _ = run_experiment(cfg)
        for index, row in enumerate(records):
            expected = nu_mu_barrier_oracle(cfg, index)
            got = {k: v for k, v in row.items() if k.startswith("nu_barrier_violation_l")}
            assert got == expected
            assert row["nu_barrier_violation"] == expected[f"nu_barrier_violation_l{cfg.ell}"]

    @pytest.mark.parametrize(
        "fields, cosets",
        [
            (dict(n=8, grid_factor=4, ell=1, L=3), 1),  # one complex transform of 32 points
            (dict(n=1024, ell=2), 32),
            (dict(n=1000, ell=2), 50),  # M = 16 000 and P = 320, no power of two
        ],
    )
    def test_barrier_columns_in_the_coset_layout(self, fields, cosets, monkeypatch):
        cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, eta=0.2, master_seed=7, **fields)
        grid = cfg.grid_factor * cfg.n
        modes = math.floor(math.exp(cfg.barrier_depth))
        layout = kernels.real_fourier_grid(np.zeros(modes), grid).shape
        assert layout == (cosets, grid // cosets)
        # grid point j = Q r + q sits at [q, r]; to_grid_order undoes the view
        # barrier_violations takes of a grid-order array
        cells = cosets * np.arange(layout[1]) + np.arange(cosets)[:, None]
        rows = kernels.to_grid_order(np.stack([cells, -cells]))
        assert np.array_equal(rows, [np.arange(grid), -np.arange(grid)])
        assert np.array_equal(np.arange(grid).reshape(layout[::-1]).T, cells)

        # every spectrum gets an eigenvalue on a grid point in the last coset:
        # Phi_n(z) = z Phi_{n-1}(z) - conj(a) Phi*_{n-1}(z), and on the circle
        # Phi*_{n-1}(z) = z^{n-1} conj(Phi_{n-1}(z)), so this last a is a root
        point = 6 * cosets - 1
        z = np.exp(2j * np.pi * point / grid)
        draw = cue.sample_verblunsky

        def with_root_on_the_grid(n, stream):
            alphas = draw(n, stream)
            phi = np.polyval(cue.szego_coefficients(alphas[None, :-1])[0, ::-1], z)
            alphas[-1] = z ** (n - 2) * np.conj(phi) / phi
            return alphas

        monkeypatch.setattr(cue, "sample_verblunsky", with_root_on_the_grid)
        for index in range(4):
            _, field = montecarlo.sample_field(cfg, replica_stream(cfg.master_seed, index))
            assert np.argmin(field) == point and field[point] < -30.0
            row = run_replica(cfg, index)
            expected = nu_mu_barrier_oracle(cfg, index)
            assert {k: v for k, v in row.items() if k.startswith("nu_barrier_violation_l")} == expected
            assert any(expected.values())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_twiddle_tables_are_built_once_per_config(self, workers, tmp_path, monkeypatch):
        # nu-mu's field table and truncations' table, and fk-test's field
        # table alone (it reads no ell), each built in this process (before
        # the fork at two workers), then cache hits only
        build = kernels._coset_twiddles.__wrapped__
        monkeypatch.setenv("THICKPOINT_THREADS", workers)
        for experiment, tables in ((Experiment.NU_MU_DISCREPANCY, 2), (Experiment.FK_TEST, 1)):
            log = tmp_path / f"builds-{experiment.value}"

            @functools.cache
            def logged(*args):
                # pool workers are forked, so they append to the same file
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return build(*args)

            monkeypatch.setattr(kernels, "_coset_twiddles", logged)
            cfg = ExperimentConfig(experiment, n=64, ell=1, replicas=3)
            run_experiment(cfg)
            assert log.read_text().split() == [str(os.getpid())] * tables, experiment
            if workers == "1":
                info = logged.cache_info()
                assert info.hits + info.misses == tables * cfg.replicas

    def test_nu_mu_empty_barrier_range_is_zero(self):
        cfg = ExperimentConfig(
            Experiment.NU_MU_DISCREPANCY, n=64, replicas=1, ell=9, eta=0.2
        )
        assert run_replica(cfg, 0)["nu_barrier_violation"] == 0.0

    def test_fk_mass_convention_equivalence(self):
        # the same threshold expressed in either scale gives the same mass
        theorem = ExperimentConfig(
            Experiment.FK_TEST, n=32, gamma=0.3 * math.sqrt(2), replicas=1
        )
        conjecture = ExperimentConfig(
            Experiment.FK_TEST,
            n=32,
            gamma=0.3,
            convention=GammaConvention.CONJECTURE,
            replicas=1,
        )
        a = run_replica(theorem, 0)["fk_mass"]
        b = run_replica(conjecture, 0)["fk_mass"]
        assert a == pytest.approx(b, rel=1e-12)

    def test_gmc_normalizer_once_per_config(self, monkeypatch):
        calls = []
        harmonic = montecarlo.harmonic_number

        def counted(k):
            calls.append(k)
            return harmonic(k)

        monkeypatch.setattr(montecarlo, "harmonic_number", counted)
        monkeypatch.setenv("THICKPOINT_THREADS", "1")
        montecarlo._gmc_normalizer.cache_clear()
        run_experiment(ExperimentConfig(Experiment.GAUSSIAN_GMC, kmax=16, replicas=3))
        assert calls == [16]

    def test_gmc_mass_positive(self):
        cfg = ExperimentConfig(Experiment.GAUSSIAN_GMC, kmax=16, replicas=3)
        records, _ = run_experiment(cfg)
        assert all(row["gmc_mass"] > 0.0 for row in records)

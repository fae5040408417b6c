"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion NN [...]: PASS/FAIL` line (visible with
-s or on failure; the -v test name line carries the same verdict) and then
asserts.  The heavy trend criteria drive everything through run_experiment so
they exercise the same code paths as the CLI.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    SQRT2,
    cmv_matrix,
    det_field_oracle,
    det_log_field,
    frechet_cdf,
    frechet_pdf,
    frechet_ppf,
    kappa,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    ks_two_sample_critical_value,
    mc_field_at,
    phi_coefficients,
    psi,
    sample_profile,
)
from thickpoints.cue import eval_field, sample_verblunsky
from thickpoints.kernels import circle_truncated_kernel_grid, doubly_mollified_kernel
from thickpoints.montecarlo import (
    Experiment,
    ExperimentConfig,
    run_experiment,
)
from thickpoints.special_fn import GammaConvention, cue_abs_moment_exact

pytestmark = pytest.mark.acceptance


def report(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_exact_moment_identity():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    reps = 100_000
    worst_sigmas = 0.0
    for n in (1, 2, 4, 8, 16):
        x0 = mc_field_at(n, [0.0], reps, rng)[:, 0]
        for zeta in (0.4, 0.8):
            vals = np.exp(zeta * x0)
            exact = float(cue_abs_moment_exact(n, SQRT2 * zeta).real)
            se = float(vals.std(ddof=1) / math.sqrt(reps))
            worst_sigmas = max(worst_sigmas, abs(float(vals.mean()) - exact) / se)
    elapsed = time.monotonic() - started
    ok = worst_sigmas <= 4.0 and elapsed < 120.0
    assert report(
        1, "exact moment identity", ok,
        f"worst deviation {worst_sigmas:.2f} stderr (limit 4), {elapsed:.0f}s",
    )


def test_criterion_02_moment_ratio_convergence():
    started = time.monotonic()
    ns = (64, 256, 1024, 4096)

    def dev(n, zeta):
        ratio = cue_abs_moment_exact(n, SQRT2 * zeta) * n ** (-zeta * zeta / 2.0) / psi(zeta)
        return abs(ratio - 1.0)

    worst = max(dev(4096, z) for z in (0.5, 1.0, 1.0 + 0.5j))
    monotone = all(
        dev(a, z) > dev(b, z) for z in (0.5, 1.0) for a, b in zip(ns, ns[1:])
    )
    elapsed = time.monotonic() - started
    ok = worst <= 0.02 and monotone and elapsed < 1.0
    assert report(
        2, "moment ratio convergence", ok,
        f"max |ratio-1| {worst:.4f} (limit 0.02), strictly decreasing: {monotone}, {elapsed:.2f}s",
    )


def test_criterion_03_determinant_oracle_equivalence():
    rng = np.random.default_rng(103)
    theta = 2.0 * np.pi * np.arange(64) / 64
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        coeffs = sample_verblunsky(n, rng)
        direct = eval_field(phi_coefficients(coeffs), 64).values
        oracle = det_log_field(cmv_matrix(coeffs), theta)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))
    reps = 10_000
    fast = mc_field_at(4, [0.0], reps, rng)[:, 0]
    slow = np.array([det_field_oracle(4, rng, 1)[0] for _ in range(reps)])
    d = ks_two_sample(fast, slow)
    crit = ks_two_sample_critical_value(reps, reps, 0.01)
    ok = worst < 1e-9 and d < crit
    assert report(
        3, "determinant oracle equivalence", ok,
        f"shared-spectrum max dev {worst:.2e} (limit 1e-9), KS {d:.4f} < {crit:.4f}",
    )


def test_criterion_04_trace_covariance():
    started = time.monotonic()
    cfg = ExperimentConfig(
        Experiment.TRACE_COVARIANCE, n=64, kmax=128, replicas=10_000, master_seed=104
    )
    _, summary = run_experiment(cfg)
    worst_sigmas = 0.0
    for k in (1, 8, 64, 128):
        name = f"abs_trace_sq_k{k}"
        target = float(min(k, 64))
        worst_sigmas = max(
            worst_sigmas, abs(summary[name]["mean"] - target) / summary[name]["stderr"]
        )
    elapsed = time.monotonic() - started
    ok = worst_sigmas <= 5.0 and elapsed < 300.0
    assert report(
        4, "trace covariance", ok,
        f"worst deviation {worst_sigmas:.2f} stderr (limit 5), {elapsed:.0f}s",
    )


def test_criterion_05_truncated_kernel_bound():
    started = time.monotonic()
    rng = np.random.default_rng(105)
    seps = rng.uniform(1e-4, math.pi, 10_000)
    js = list(range(2, 13))
    rows = circle_truncated_kernel_grid(seps, [2**j for j in js])
    chord = 2.0 * np.abs(np.sin(seps / 2.0))
    worst = max(
        float(np.max(np.abs(row + np.log(np.maximum(chord, 2.0**-j)))))
        for j, row in zip(js, rows)
    )
    elapsed = time.monotonic() - started
    ok = worst <= 2.0 and elapsed < 10.0
    assert report(
        5, "truncated kernel bound", ok,
        f"sup deviation {worst:.3f} (limit 2), {elapsed:.1f}s",
    )


def test_criterion_06_mollified_kernel_rates():
    started = time.monotonic()
    kappa0 = kappa()
    xs = np.linspace(0.2, 0.8, 5)
    epsilons = [2.0**-j for j in range(4, 10)]
    errs = []
    for eps in epsilons:
        devs = [
            abs(
                doubly_mollified_kernel(x, x, eps, eps)
                - math.log(1.0 / eps)
                - kappa0
            )
            for x in xs
        ]
        errs.append(max(devs))
    noise_floor = 1e-6
    if max(errs) < noise_floor:
        # the diagonal identity holds to quadrature precision at every
        # epsilon, which is stronger than any power-law decay rate
        rate_ok = True
        rate_note = f"err(eps) <= {max(errs):.1e} at all scales (noise floor)"
    else:
        slope = float(np.polyfit(np.log(epsilons), np.log(errs), 1)[0])
        rate_ok = slope >= 0.8
        rate_note = f"log-log slope {slope:.2f} (limit 0.8)"
    rng = np.random.default_rng(106)
    draws = 10_000_000
    vals = -np.log(np.abs(sample_profile(rng, draws) - sample_profile(rng, draws)))
    se = float(vals.std(ddof=1) / math.sqrt(draws))
    kappa_sigmas = abs(float(vals.mean()) - kappa0) / se
    elapsed = time.monotonic() - started
    ok = rate_ok and kappa_sigmas <= 3.0 and elapsed < 60.0
    assert report(
        6, "mollified kernel rates", ok,
        f"{rate_note}; kappa MC deviation {kappa_sigmas:.2f} stderr (limit 3), {elapsed:.0f}s",
    )


def test_criterion_07_thick_point_mass_law_trend():
    gamma = 0.3
    distances = []
    for n in (256, 1024, 4096):
        cfg = ExperimentConfig(
            Experiment.FK_TEST,
            n=n,
            gamma=gamma,
            convention=GammaConvention.CONJECTURE,
            grid_factor=16,
            replicas=2000,
            master_seed=107,
        )
        records, _ = run_experiment(cfg)
        masses = [r["fk_mass"] for r in records]
        distances.append(ks_statistic(masses, lambda x: frechet_cdf(x, gamma)))
    ok = distances[0] > distances[1] > distances[2]
    assert report(
        7, "thick-point mass law trend", ok,
        "KS to limit law " + " > ".join(f"{d:.4f}" for d in distances),
    )


def test_criterion_08_measure_discrepancy_trend():
    means = []
    shift_ratio = None
    c = 0.5
    for n in (128, 512, 2048):
        cfg = ExperimentConfig(
            Experiment.NU_MU_DISCREPANCY,
            n=n,
            gamma=0.5,
            replicas=500,
            master_seed=108,
            g_shift=c if n == 2048 else 0.0,
        )
        _, summary = run_experiment(cfg)
        means.append(summary["discrepancy"]["mean"])
        if n == 2048:
            shift_ratio = summary["nu_shifted"]["mean"] / summary["nu"]["mean"]
    trend_ok = means[0] > means[1] > means[2]
    target = math.exp(-0.5 * c)
    shift_ok = abs(shift_ratio / target - 1.0) <= 0.10
    ok = trend_ok and shift_ok
    assert report(
        8, "measure discrepancy trend", ok,
        "mean discrepancy " + " > ".join(f"{m:.4f}" for m in means)
        + f"; shift ratio {shift_ratio:.4f} vs {target:.4f}",
    )


def test_criterion_09_barrier_decay_trend():
    base = dict(n=1024, gamma=0.5, eta=0.2, replicas=2000, master_seed=109)
    cfg = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, ell=2, **base)
    _, summary = run_experiment(cfg)
    m2 = summary["nu_barrier_violation_l2"]["mean"]
    m4 = summary["nu_barrier_violation_l4"]["mean"]
    cfg6 = ExperimentConfig(Experiment.NU_MU_DISCREPANCY, ell=6, **base)
    _, summary6 = run_experiment(cfg6)
    m6 = summary6["nu_barrier_violation"]["mean"]
    ok = m2 >= m4 >= m6
    assert report(
        9, "barrier decay trend", ok,
        f"mean complement mass {m2:.4f} >= {m4:.4f} >= {m6:.4f}",
    )


def test_criterion_10_gaussian_chaos_mass():
    worst_sigmas = 0.0
    for gamma in (0.5, 1.0):
        for kmax in (64, 512):
            cfg = ExperimentConfig(
                Experiment.GAUSSIAN_GMC,
                gamma=gamma,
                kmax=kmax,
                replicas=10_000,
                master_seed=110,
            )
            _, summary = run_experiment(cfg)
            worst_sigmas = max(
                worst_sigmas,
                abs(summary["gmc_mass"]["mean"] - 1.0) / summary["gmc_mass"]["stderr"],
            )
    samples = {}
    for kmax in (512, 2048):
        cfg = ExperimentConfig(
            Experiment.GAUSSIAN_GMC,
            gamma=1.0,
            kmax=kmax,
            replicas=2000,
            master_seed=1100 + kmax,
        )
        records, _ = run_experiment(cfg)
        samples[kmax] = [r["gmc_mass"] for r in records]
    d = ks_two_sample(samples[512], samples[2048])
    ok = worst_sigmas <= 4.0 and d < 0.1
    assert report(
        10, "gaussian chaos mass", ok,
        f"worst mean deviation {worst_sigmas:.2f} stderr (limit 4), "
        f"stability KS {d:.4f} (limit 0.1)",
    )


def test_criterion_11_frechet_law_internals():
    gamma = 0.5
    total, _ = quad(lambda x: frechet_pdf(x, gamma), 0.0, np.inf, limit=200)
    mean, _ = quad(lambda x: x * frechet_pdf(x, gamma), 0.0, np.inf, limit=200)
    target_mean = math.gamma(1.0 - gamma * gamma)
    rng = np.random.default_rng(111)
    reps = 10_000
    draws = np.array([frechet_ppf(u, gamma) for u in rng.uniform(0, 1, reps)])
    d = ks_statistic(draws, lambda x: frechet_cdf(x, gamma))
    crit = ks_critical_value(reps, 0.01)
    ok = abs(total - 1.0) <= 1e-8 and abs(mean - target_mean) <= 1e-6 and d < crit
    assert report(
        11, "frechet law internals", ok,
        f"pdf integral err {abs(total - 1.0):.1e}, mean err {abs(mean - target_mean):.1e}, "
        f"KS {d:.4f} < {crit:.4f}",
    )


def test_criterion_12_reproducibility(tmp_path, monkeypatch):
    from thickpoints.cli import main

    conf = tmp_path / "run.conf"
    conf.write_text("n = 16\nreplicas = 20\nmaster_seed = 77\ngamma = 0.6\n")
    blobs = []
    for threads, name in (("1", "a"), ("4", "b"), ("1", "c")):
        monkeypatch.setenv("THICKPOINT_THREADS", threads)
        base = tmp_path / name
        assert main(["verify-moments", str(conf), "-o", str(base)]) == 0
        blobs.append(open(f"{base}.csv", "rb").read())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(
        12, "reproducibility", ok,
        f"CSV byte-identical across reruns and worker counts: {ok}",
    )

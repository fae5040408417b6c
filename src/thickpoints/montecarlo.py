"""Experiment driver: deterministic seeded replication and the
summary estimators.

Each replica owns an RNG stream derived from (master_seed, replica_index) by a
SplitMix64-style avalanche, so results are independent of worker count and
reproducible across platforms.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import cue, measures
from .gaussian import gaussian_exp_normalizer, harmonic_number, sample_circle_field
from .kernels import assumption1_check, circle_truncated_kernel_grid
from .special_fn import GammaConvention, to_theorem_scale

MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT2 = 0x94D049BB133111EB


def derive_seed(master_seed: int, replica_index: int) -> int:
    """SplitMix64 avalanche of (master_seed, replica_index).

    The constants are fixed so that any implementation can reproduce the same
    substreams bit for bit.
    """
    z = (master_seed + _SPLITMIX_GAMMA * (replica_index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MULT2) & MASK64
    return z ^ (z >> 31)


def replica_stream(master_seed: int, replica_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, replica_index)))


class Experiment(enum.Enum):
    MOMENT_CHECK = "moment-check"
    TRACE_COVARIANCE = "trace-covariance"
    FK_TEST = "fk-test"
    NU_MU_DISCREPANCY = "nu-mu"
    GAUSSIAN_GMC = "gaussian-gmc"
    KERNEL_CHECKS = "kernel-checks"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: Experiment
    n: int = 64
    grid_factor: int = 16
    gamma: float = 0.5
    convention: GammaConvention = GammaConvention.THEOREM
    eta: float = 0.2
    ell: int | None = None
    L: int | None = None
    kmax: int | None = None
    replicas: int = 1
    master_seed: int = 0
    g_shift: float = 0.0
    output_path: str | None = None

    def validate(self) -> None:
        problems = []
        if self.n < 1:
            problems.append(f"n must be >= 1 (got {self.n})")
        if self.grid_factor < 4:
            problems.append(f"grid_factor must be >= 4 (got {self.grid_factor})")
        if self.replicas < 1:
            problems.append(f"replicas must be >= 1 (got {self.replicas})")
        if not 0 <= self.master_seed <= MASK64:
            problems.append("master_seed must be an unsigned 64-bit integer")
        if self.experiment is not Experiment.KERNEL_CHECKS:
            try:
                to_theorem_scale(self.gamma, self.convention)
            except ValueError as exc:
                problems.append(str(exc))
        if not 0.0 < self.eta < 1.0:
            problems.append(f"eta must lie in (0,1) (got {self.eta})")
        if not math.isfinite(self.g_shift):
            problems.append(f"g_shift must be finite (got {self.g_shift})")
        if self.ell is not None and self.ell < 1:
            problems.append(f"ell must be >= 1 (got {self.ell})")
        if self.kmax is not None and self.kmax < 1:
            problems.append(f"kmax must be >= 1 (got {self.kmax})")
        guard = cue.TRACE_COST_GUARD * self.n
        traced = self.experiment is Experiment.TRACE_COVARIANCE
        if traced and self.kmax is not None and self.kmax > guard:
            problems.append(f"kmax must be <= {cue.TRACE_COST_GUARD}*n = {guard} (got {self.kmax})")
        if self.experiment in (Experiment.FK_TEST, Experiment.NU_MU_DISCREPANCY) and self.n < 2:
            problems.append(f"n must be >= 2 for {self.experiment.value} (got {self.n})")
        # the barrier depth is checked against n, eta and grid_factor once they are valid
        barrier = self.experiment is Experiment.NU_MU_DISCREPANCY and self.ell is not None
        if barrier and not problems and self.ell <= self.barrier_depth:
            problems.extend(self._barrier_depth_problems())
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))

    def _barrier_depth_problems(self) -> list[str]:
        """The finest barrier level L keeps the modes k <= floor(e^L): the grid
        must resolve them and trace_powers must allow that many traces."""
        depth = self.barrier_depth
        grid = self.grid_factor * self.n
        guard = cue.TRACE_COST_GUARD * self.n
        # e^L overflows a double past L = 709
        modes = math.floor(math.exp(depth)) if depth <= 700 else math.inf
        shown = f"floor(e^L) = {modes}" if modes < 1e15 else "floor(e^L)"
        problems = []
        if modes >= grid:
            problems.append(f"barrier depth L={depth} keeps {shown} modes, "
                            f"so grid_factor*n = {grid} must exceed it")
        if modes > guard:
            problems.append(f"barrier depth L={depth} needs {shown} traces, "
                            f"more than {cue.TRACE_COST_GUARD}*n = {guard}")
        return problems

    @property
    def gamma_theorem(self) -> float:
        return to_theorem_scale(self.gamma, self.convention)

    @property
    def barrier_depth(self) -> int:
        if self.L is not None:
            return self.L
        return measures.BarrierSpec.auto_depth(self.n, self.eta)

    @property
    def effective_kmax(self) -> int | None:
        """kmax, defaulting to 2n for trace-cov and n for gaussian-gmc, the
        experiments that read it."""
        if self.kmax is not None:
            return self.kmax
        if self.experiment is Experiment.TRACE_COVARIANCE:
            return 2 * self.n
        if self.experiment is Experiment.GAUSSIAN_GMC:
            return self.n
        return None


@dataclass(frozen=True)
class ReplicaRecord:
    replica_index: int
    derived_seed: int
    scalars: dict[str, float] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class Summary:
    mean: dict[str, float]
    stderr: dict[str, float]


# ---------------------------------------------------------------------------
# per-replica work
# ---------------------------------------------------------------------------


def _replica_moment_check(config: ExperimentConfig, stream) -> dict[str, float]:
    coeffs = cue.sample_verblunsky(config.n, stream)
    x0 = float(cue.eval_field_at(coeffs, np.array([0.0]))[0])
    return {"exp_moment": math.exp(config.gamma_theorem * x0), "field_at_0": x0}


def _trace_ks(config: ExperimentConfig) -> list[int]:
    kmax = config.effective_kmax
    return sorted({k for k in (1, 8, config.n, 2 * config.n) if k <= kmax})


def _replica_trace_covariance(config: ExperimentConfig, stream) -> dict[str, float]:
    coeffs = cue.sample_verblunsky(config.n, stream)
    traces = cue.trace_powers(coeffs, config.effective_kmax)
    return {f"abs_trace_sq_k{k}": float(np.abs(traces[k - 1]) ** 2) for k in _trace_ks(config)}


def _replica_fk_test(config: ExperimentConfig, stream) -> dict[str, float]:
    coeffs = cue.sample_verblunsky(config.n, stream)
    sample = cue.eval_field(coeffs, config.grid_factor * config.n)
    gamma_conj = config.gamma_theorem / cue.SQRT2
    return {"fk_mass": measures.fk_normalized_mass(sample, gamma_conj, config.n)}


def _replica_nu_mu(config: ExperimentConfig, stream) -> dict[str, float]:
    coeffs = cue.sample_verblunsky(config.n, stream)
    sample = cue.eval_field(coeffs, config.grid_factor * config.n)
    g = config.gamma_theorem
    spec = measures.ThickPointSpec(g)
    mu, nu, discrepancy = measures.l1_discrepancy(sample, spec, config.n)
    out = {"mu": mu, "nu": nu, "discrepancy": discrepancy}
    if config.g_shift != 0.0:
        shifted = replace(spec, g=config.g_shift)
        out["nu_shifted"] = measures.thick_measure_integral(sample, shifted, config.n)
    if config.ell is not None:
        barrier = measures.BarrierSpec(g, config.eta, config.ell, config.barrier_depth)
        levels = barrier.levels
        # one violation column per start level ell' <= L; with no levels there
        # are no constraints, so the complement is empty
        violations = [0.0]
        if levels:
            # validate keeps floor(e^L) within the trace guard and below the grid size
            traces = cue.trace_powers(coeffs, int(math.floor(math.exp(levels[-1]))))
            truncated = cue.truncated_fields(
                traces, [barrier.scale(k) for k in levels], sample.grid_size
            )
            violations = measures.barrier_violations(sample, spec, config.n, barrier, truncated)
        out["nu_barrier_violation"] = violations[0]
        for start, violation in zip(levels or [config.ell], violations):
            out[f"nu_barrier_violation_l{start}"] = violation
    return out


@functools.cache
def _gmc_normalizer(kmax: int, gamma: float) -> float:
    """E e^{gamma X} for the circle field truncated at kmax; the same for every
    replica of a config, so each process computes it once."""
    return gaussian_exp_normalizer(harmonic_number(kmax), gamma)


def _replica_gaussian_gmc(config: ExperimentConfig, stream) -> dict[str, float]:
    kmax = config.effective_kmax
    field = sample_circle_field(kmax, config.grid_factor * kmax, stream)
    norm = _gmc_normalizer(kmax, config.gamma_theorem)
    mass = float(np.mean(np.exp(config.gamma_theorem * field)) / norm)
    return {"gmc_mass": mass}


@functools.cache
def _kernel_check_values() -> dict[str, float]:
    """The kernel-check scalars.  They depend on neither the config nor the
    replica stream, so each process computes them once."""
    rng = np.random.Generator(np.random.PCG64(12345))
    seps = rng.uniform(1e-4, math.pi, 10_000)
    js = list(range(2, 13))
    kmaxes = [2**j for j in js]
    grid_vals = circle_truncated_kernel_grid(seps, kmaxes)
    worst = 0.0
    for j, row in zip(js, grid_vals):
        chord = 2.0 * np.abs(np.sin(seps / 2.0))
        dev = np.abs(row + np.log(np.maximum(chord, 2.0**-j)))
        worst = max(worst, float(dev.max()))
    deltas = [2.0**-j for j in range(3, 9)]
    return {
        "truncated_kernel_max_dev": worst,
        "assumption1_max_dev": assumption1_check(
            np.linspace(0.15, 0.85, 5), deltas, deltas, (0.0, 1.0)
        ),
    }


def _replica_kernel_checks(config: ExperimentConfig, stream) -> dict[str, float]:
    return dict(_kernel_check_values())


_REPLICA_FNS = {
    Experiment.MOMENT_CHECK: _replica_moment_check,
    Experiment.TRACE_COVARIANCE: _replica_trace_covariance,
    Experiment.FK_TEST: _replica_fk_test,
    Experiment.NU_MU_DISCREPANCY: _replica_nu_mu,
    Experiment.GAUSSIAN_GMC: _replica_gaussian_gmc,
    Experiment.KERNEL_CHECKS: _replica_kernel_checks,
}


def run_replica(config: ExperimentConfig, replica_index: int) -> ReplicaRecord:
    seed = derive_seed(config.master_seed, replica_index)
    stream = np.random.Generator(np.random.PCG64(seed))
    scalars = _REPLICA_FNS[config.experiment](config, stream)
    return ReplicaRecord(replica_index, seed, scalars)


def worker_count() -> int:
    """THICKPOINT_THREADS if set, else the core count capped at 8."""
    raw = os.environ.get("THICKPOINT_THREADS", "")
    if not raw.strip():
        return min(os.cpu_count() or 1, 8)
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"THICKPOINT_THREADS must be a positive integer, got {raw!r}")
    return count


def _run_chunk(args) -> list[ReplicaRecord]:
    config, indices = args
    return [run_replica(config, i) for i in indices]


# Bytes of one block allocated and freed before the replicas run; see
# run_experiment.  Below glibc's 32 MB cap on its adaptive mmap threshold.
HEAP_KEEP_BYTES = 8 << 20


def run_experiment(config: ExperimentConfig) -> tuple[list[ReplicaRecord], Summary]:
    """Execute all replicas; output is a pure function of the config,
    independent of worker count.  Each worker runs one contiguous run of
    replica indices, and the runs are joined in index order.

    A replica allocates and frees arrays of a few hundred kB.  By default
    glibc serves such blocks by mmap, or trims them off the heap when they
    are freed, so every replica faults its memory in afresh: 15-20% of a
    nu-mu replica at n=1024.  Freeing one untouched HEAP_KEEP_BYTES block
    first raises glibc's mmap and trim thresholds above it, so the heap is
    kept from one replica to the next, in forked workers too.  Other
    allocators are unaffected.
    """
    config.validate()
    np.empty(HEAP_KEEP_BYTES, dtype=np.uint8)
    workers = min(worker_count(), config.replicas)
    indices = list(range(config.replicas))
    if workers <= 1:
        records = [run_replica(config, i) for i in indices]
    else:
        # worker i takes the contiguous run of indices bounds[i]:bounds[i+1]
        bounds = [config.replicas * i // workers for i in range(workers + 1)]
        chunks = [(config, indices[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [rec for part in pool.map(_run_chunk, chunks) for rec in part]
    return records, summarize(records)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summarize(records: list[ReplicaRecord]) -> Summary:
    """Mean and stderr (= sample sd / sqrt(R)) for every scalar."""
    if not records:
        raise ValueError("cannot summarize zero records")
    mean, stderr = {}, {}
    for name in records[0].scalars:
        vals = np.array([r.scalars[name] for r in records], dtype=float)
        mean[name] = float(vals.mean())
        stderr[name] = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
    return Summary(mean, stderr)

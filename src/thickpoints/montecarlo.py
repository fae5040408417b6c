"""Experiment driver: deterministic seeded replication and the
summary estimators.

Each replica that draws owns an RNG stream derived from (master_seed,
replica_index) by a SplitMix64-style avalanche, so results are independent of
worker count and reproducible across platforms.  The stream is
np.random.Generator(np.random.PCG64(derived_seed)) (replica_stream).
kernel-check draws nothing: its separations come from the same avalanche, not
from a generator, and run_replica returns its cached row without making a
stream, so a kernel-check process never loads numpy.random.

Replicas run in blocks of contiguous indices.  A worker's run of indices
derives its seeds and hashes them as numpy's SeedSequence does in one
vectorised pass (_seed_sequence_words); each replica's PCG64 is seeded from
its own four words, so its draws are those of its own fresh stream.
verify-moments, trace-cov and gaussian-gmc evaluate a block with one batched
call per stage, and each row comes out bit for bit as it does alone; the other
experiments run one replica per run_replica call.  A replica's result is its
row of named scalars; rows are returned in index order, so a row's position
is its replica index.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cue, measures
from .gaussian import gaussian_exp_normalizer, harmonic_number, sample_circle_field
from .kernels import (
    assumption1_check,
    circle_truncated_kernel_grid,
    fourier_grid,
    real_fourier_grid,
)
from .special_fn import GammaConvention, to_theorem_scale

# A replica allocates and frees arrays of a few hundred kB.  By default glibc
# serves such blocks by mmap, or trims them off the heap when they are freed,
# so every replica faults its memory in afresh: 15-20% of a nu-mu replica at
# n=1024.  Freeing one untouched HEAP_KEEP_BYTES block when this module is
# imported raises glibc's mmap and trim thresholds above it, so the heap is
# kept from one replica to the next, in forked workers too, and for library
# callers of the kernels and samplers as well as for run_experiment.  Other
# allocators are unaffected.  Below glibc's 32 MB cap on its adaptive mmap
# threshold.
HEAP_KEEP_BYTES = 8 << 20
np.empty(HEAP_KEEP_BYTES, dtype=np.uint8)

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MULT1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MULT2 = 0x94D049BB133111EB
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def derive_seed(master_seed: int, replica_index):
    """SplitMix64 avalanche of (master_seed, replica_index).

    The constants are fixed so that any implementation can reproduce the same
    substreams bit for bit.  replica_index may be an int or a uint64 array of
    indices; every product is masked, so both give the same seeds.
    """
    z = (master_seed + _SPLITMIX_GAMMA * (replica_index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * _SPLITMIX_MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MULT2) & MASK64
    return z ^ (z >> 31)


def _seed_sequence_words(seeds) -> list:
    """The four uint64 words of SeedSequence(seed).generate_state(4, uint64)
    for each seed of a uint64 array, as four arrays.

    A seed's entropy is its 32-bit words, low first, at most two; the pool of
    four words hashes zeros past them, so every seed mixes as (low, high, 0,
    0).  Every product is masked to 32 bits, which keeps a uint64 array's
    arithmetic exact and equal to that of Python ints.
    """
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _HASH_MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (seeds & MASK32, seeds >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _HASH_INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> 16)
    # little-endian pairs of 32-bit words
    return [words[2 * j] | words[2 * j + 1] << 32 for j in range(4)]


def replica_stream(master_seed: int, replica_index: int) -> np.random.Generator:
    """The generator on one replica's stream."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, replica_index)))


class _SeedWords:
    """numpy's ISeedSequence interface over the four SeedSequence words of
    one seed: PCG64 seeded from it starts where PCG64(seed) starts.  PCG64
    reads the words' buffer directly, so generate_state gives exactly four
    C-contiguous uint64 words and refuses any other request."""

    def __init__(self, words):
        self.words = np.ascontiguousarray(words, dtype=np.uint64).reshape(4)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.words


@functools.cache
def _register_seed_words() -> None:
    """Register _SeedWords as an ISeedSequence on first use, so that
    importing this module loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)


def _streams(words) -> list[np.random.Generator]:
    """A fresh generator on each replica's stream, given the four
    SeedSequence words of each replica's seed as the rows of words."""
    _register_seed_words()
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


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
        """L, defaulting to the mesoscopic cap floor((1 - eta) log N)."""
        if self.L is not None:
            return self.L
        return int(math.floor((1.0 - self.eta) * math.log(self.n)))

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


# ---------------------------------------------------------------------------
# replica blocks: each function takes the block's streams, one per replica,
# and returns one scalar row per stream
# ---------------------------------------------------------------------------


def _block_moment_check(config: ExperimentConfig, streams) -> list[dict[str, float]]:
    alphas = cue.sample_alphas(config.n, streams)
    field_at_0 = cue.eval_field_at(alphas, np.zeros(1))[:, 0]
    g = config.gamma_theorem
    return [{"exp_moment": math.exp(g * x0), "field_at_0": x0} for x0 in field_at_0.tolist()]


def _trace_ks(config: ExperimentConfig) -> list[int]:
    kmax = config.effective_kmax
    return sorted({k for k in (1, 8, config.n, 2 * config.n) if k <= kmax})


def _block_trace_covariance(config: ExperimentConfig, streams) -> list[dict[str, float]]:
    alphas = cue.sample_alphas(config.n, streams)
    traces = cue.trace_powers(cue.szego_coefficients(alphas), config.effective_kmax)
    ks = _trace_ks(config)
    # squared as scalars: squaring the array of moduli differs by an ulp on
    # about 0.07% of values
    return [{f"abs_trace_sq_k{k}": float(np.abs(row[k - 1]) ** 2) for k in ks} for row in traces]


def _each(replica_fn):
    """The block function that runs replica_fn(config, stream) per stream."""
    return lambda config, streams: [replica_fn(config, stream) for stream in streams]


def sample_field(config: ExperimentConfig, stream) -> tuple[np.ndarray, np.ndarray]:
    """One CUE spectrum drawn from the stream: its Szego coefficient row,
    shape (1, n + 1), and its field values on the config's grid of
    grid_factor * n points, shape (grid_factor * n,)."""
    coefficients = cue.szego_coefficients(cue.sample_verblunsky(config.n, stream)[None])
    return coefficients, cue.eval_field(coefficients[0], config.grid_factor * config.n).values


def _replica_fk_test(config: ExperimentConfig, stream) -> dict[str, float]:
    _, field = sample_field(config, stream)
    return {"fk_mass": measures.fk_normalized_mass(field, config.gamma_theorem, config.n)}


def _replica_nu_mu(config: ExperimentConfig, stream) -> dict[str, float]:
    coefficients, field = sample_field(config, stream)
    g = config.gamma_theorem
    mu, nu, discrepancy = measures.l1_discrepancy(field, g, config.n)
    out = {"mu": mu, "nu": nu, "discrepancy": discrepancy}
    if config.g_shift != 0.0:
        out["nu_shifted"] = measures.thick_measure_integral(field, g, config.n, config.g_shift)
    if config.ell is not None:
        # the barrier X_{N, e^{-k}} <= (g + eta) k for k in [ell, L]
        levels = list(range(config.ell, config.barrier_depth + 1))
        # one violation column per start level ell' <= L; with no levels there
        # are no constraints, so the complement is empty
        violations = [0.0]
        if levels:
            # validate keeps floor(e^L) within the trace guard and below the grid size
            kmax = int(math.floor(math.exp(levels[-1])))
            traces = cue.trace_powers(coefficients, kmax)[0]
            truncated = cue.truncated_field(traces, [math.exp(-k) for k in levels], field.size)
            violations = measures.barrier_violations(
                field, g, config.n, config.eta, levels, truncated
            )
        out["nu_barrier_violation"] = violations[0]
        for start, violation in zip(levels or [config.ell], violations):
            out[f"nu_barrier_violation_l{start}"] = violation
    return out


def _grid_tables(config: ExperimentConfig) -> None:
    """Build the twiddle tables of a field replica's grid transforms, the same
    for every replica of the config, by transforming zeros of their sizes:
    the field's n + 1 coefficients and, with a barrier, its floor(e^L)
    modes."""
    grid = config.grid_factor * config.n
    fourier_grid(np.zeros(config.n + 1), grid)
    barrier = config.experiment is Experiment.NU_MU_DISCREPANCY and config.ell is not None
    if barrier and config.ell <= config.barrier_depth:
        real_fourier_grid(np.zeros(int(math.floor(math.exp(config.barrier_depth)))), grid)


@functools.cache
def _gmc_normalizer(kmax: int, gamma: float) -> float:
    """E e^{gamma X} for the circle field truncated at kmax; the same for every
    replica of a config, so each process computes it once."""
    return gaussian_exp_normalizer(harmonic_number(kmax), gamma)


def _block_gaussian_gmc(config: ExperimentConfig, streams) -> list[dict[str, float]]:
    kmax = config.effective_kmax
    g = config.gamma_theorem
    field = sample_circle_field(kmax, config.grid_factor * kmax, streams)
    norm = _gmc_normalizer(kmax, g)
    field *= g
    np.exp(field, out=field)
    return [{"gmc_mass": float(mass / norm)} for mass in field.mean(axis=(-2, -1))]


def _kernel_check_separations() -> np.ndarray:
    """The 10 000 kernel-check separations, 1e-4 + (pi - 1e-4) u_i in
    [1e-4, pi).  u_i is the top 53 bits of derive_seed(12345, i) over 2^53,
    a uniform on [0, 1) drawn from no generator, which any platform
    reproduces bit for bit."""
    seeds = derive_seed(12345, np.arange(10_000, dtype=np.uint64))
    return 1e-4 + (math.pi - 1e-4) * ((seeds >> 11) * 2.0**-53)


@functools.cache
def _kernel_check_values() -> dict[str, float]:
    """The kernel-check scalars.  They depend on neither the config nor the
    replica index, so a run computes them once, before any worker forks."""
    seps = _kernel_check_separations()
    js = np.arange(2, 13)
    grid_vals = circle_truncated_kernel_grid(seps, [2**j for j in js.tolist()])
    chord = 2.0 * np.abs(np.sin(seps / 2.0))
    # the deviation from the log kernel, floored at 2^-j for order 2^j
    worst = float(np.abs(grid_vals + np.log(np.maximum(chord, 2.0 ** -js[:, None]))).max())
    deltas = [2.0**-j for j in range(3, 9)]
    return {
        "truncated_kernel_max_dev": worst,
        "assumption1_max_dev": assumption1_check(
            np.linspace(0.15, 0.85, 5), deltas, deltas, (0.0, 1.0)
        ),
    }


_BLOCK_FNS = {
    Experiment.MOMENT_CHECK: _block_moment_check,
    Experiment.TRACE_COVARIANCE: _block_trace_covariance,
    Experiment.FK_TEST: _each(_replica_fk_test),
    Experiment.NU_MU_DISCREPANCY: _each(_replica_nu_mu),
    Experiment.GAUSSIAN_GMC: _block_gaussian_gmc,
}

# Block limits: at most BLOCK_REPLICAS replicas, and at most BLOCK_BYTES in
# the block's widest array.  On a 2-core Xeon VM, running the benchmark's
# small-replicas steps at one worker, these kept the process at 43.1 MB peak
# RSS.  With no replica cap (blocks of 512 trace-cov and 1024 verify-moments
# replicas) it reached 47.5 MB, and with 2 MB (31 gaussian-gmc replicas at
# kmax = 512) 46.8 MB; with 256 kB (3 replicas) a gaussian-gmc replica took
# 278 us against 166 us.
BLOCK_REPLICAS = 64
BLOCK_BYTES = 1 << 20


def _block_size(config: ExperimentConfig) -> int:
    """Replicas per block.  The widest array of a block holds, per replica,
    the uniforms (2n doubles) for verify-moments, the grid transform's half
    spectra (about M/2 complex values) for gaussian-gmc, and for trace-cov
    the traces or the product tree's top-level spectra: the root's two
    polynomials of degree d < n at length 2d, under 4n complex values.
    nu-mu, fk-test and kernel-check run one replica per run_replica call."""
    n, kmax = config.n, config.effective_kmax
    if config.experiment is Experiment.MOMENT_CHECK:
        widest = 16 * n
    elif config.experiment is Experiment.TRACE_COVARIANCE:
        widest = 16 * max(4 * n, kmax)
    elif config.experiment is Experiment.GAUSSIAN_GMC:
        widest = 16 * (config.grid_factor * kmax // 2 + 1)
    else:
        return 1
    return max(1, min(BLOCK_REPLICAS, BLOCK_BYTES // widest))


def run_replica(config: ExperimentConfig, replica_index: int) -> dict[str, float]:
    """The scalar row of one replica: its experiment's block of one index.
    kernel-check draws nothing, so its row is returned with no stream made."""
    if config.experiment is Experiment.KERNEL_CHECKS:
        return dict(_kernel_check_values())
    stream = replica_stream(config.master_seed, replica_index)
    return _BLOCK_FNS[config.experiment](config, [stream])[0]


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


def _run_chunk(args) -> list[dict[str, float]]:
    """The rows of a contiguous run of replica indices, in index order:
    blocks of _block_size(config) indices, or one run_replica call each."""
    config, indices = args
    size = _block_size(config)
    if size == 1:
        return [run_replica(config, i) for i in indices]
    # the seeds of every block are derived and hashed in one vectorised pass
    seeds = derive_seed(config.master_seed, np.array(indices, dtype=np.uint64))
    words = np.stack(_seed_sequence_words(seeds), axis=-1)
    rows = []
    for lo in range(0, len(words), size):
        rows += _BLOCK_FNS[config.experiment](config, _streams(words[lo:lo + size]))
    return rows


def run_experiment(
    config: ExperimentConfig,
) -> tuple[list[dict[str, float]], dict[str, dict[str, float]]]:
    """Execute all replicas and return their rows, in index order, with
    their summary.  The output is a pure function of the config,
    independent of worker count and block size.  Each worker runs one
    contiguous run of replica indices, and the runs are joined in index
    order.
    """
    config.validate()
    workers = min(worker_count(), config.replicas)
    indices = list(range(config.replicas))
    if workers <= 1:
        rows = _run_chunk((config, indices))
    else:
        # worker i takes the contiguous run of indices bounds[i]:bounds[i+1]
        bounds = [config.replicas * i // workers for i in range(workers + 1)]
        chunks = [(config, indices[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        # filled before the fork, so the workers inherit the cached scalars
        # and tables
        if config.experiment is Experiment.KERNEL_CHECKS:
            _kernel_check_values()
        elif config.experiment in (Experiment.FK_TEST, Experiment.NU_MU_DISCREPANCY):
            _grid_tables(config)
        # imported here, so that a one-worker run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for part in pool.map(_run_chunk, chunks) for row in part]
    return rows, summarize(rows)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def summarize(rows: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    """{name: {"mean": m, "stderr": s}} for every scalar, where stderr is the
    sample sd / sqrt(R)."""
    if not rows:
        raise ValueError("cannot summarize zero rows")
    estimates = {}
    for name in rows[0]:
        vals = np.array([row[name] for row in rows], dtype=float)
        stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
        estimates[name] = {"mean": float(vals.mean()), "stderr": stderr}
    return estimates

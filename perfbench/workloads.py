"""The benchmark's workloads and the checks made on their outputs.

Each workload is a list of CLI steps run back to back in one fresh
interpreter.  Replica counts are sized so that one child takes a few seconds
on a 2-core machine; see README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    # False for a check of an output file's format: a failure counts as a
    # failed operation but leaves the reported values correct
    values: bool = True


@dataclass(frozen=True)
class Step:
    subcommand: str
    settings: tuple[str, ...]
    replicas: int | None  # None keeps the CLI default of one replica
    columns: tuple[str, ...]
    check: Callable[["Step", dict[str, list[float]]], list[Check]]

    @property
    def replica_count(self) -> int:
        return 1 if self.replicas is None else self.replicas

    def argv(self, seed: int, base: str) -> list[str]:
        settings = [f"master_seed={seed}", *self.settings]
        if self.replicas is not None:
            settings.append(f"replicas={self.replicas}")
        return [self.subcommand, *(arg for s in settings for arg in ("--set", s)), "-o", base]

    def setting(self, key: str) -> str:
        return next(s.split("=", 1)[1] for s in self.settings if s.startswith(f"{key}="))


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    steps: tuple[Step, ...]


STDERR_LIMIT = 4.0
# criterion 05 bounds the truncated-kernel deviation by 2; the CLI test of
# kernel-check bounds the Assumption 1 deviation by 3
KERNEL_LIMITS = {"truncated_kernel_max_dev": 2.0, "assumption1_max_dev": 3.0}


def within_stderr(name: str, values: list[float], target: float) -> Check:
    mean = statistics.fmean(values)
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    sigmas = (mean - target) / stderr
    return Check(name, abs(sigmas) <= STDERR_LIMIT,
                 f"mean {mean:.6g} vs {target:.6g}: {sigmas:+.2f} stderr (limit {STDERR_LIMIT:g})")


def cue_abs_moment(n: int, zeta: float) -> float:
    """E|det(1 - U_N)|^zeta for CUE by the Keating-Snaith product
    prod_{j=1}^{N} Gamma(j) Gamma(j + zeta) / Gamma(j + zeta/2)^2,
    evaluated here with math.lgamma, independently of the package."""
    return math.exp(math.fsum(
        math.lgamma(j) + math.lgamma(j + zeta) - 2.0 * math.lgamma(j + zeta / 2.0)
        for j in range(1, n + 1)
    ))


def _no_check(step, columns):
    return []


def _trace_cov_check(step, columns):
    n = int(step.setting("n"))
    return [within_stderr(f"trace-cov.{name}", values, min(int(name.rsplit("k", 1)[1]), n))
            for name, values in columns.items()]


def _gmc_check(step, columns):
    return [within_stderr("gaussian-gmc.gmc_mass", columns["gmc_mass"], 1.0)]


def _moments_check(step, columns):
    # theorem scale: e^{gamma X} = |p_N|^{sqrt(2) gamma}
    zeta = math.sqrt(2.0) * float(step.setting("gamma"))
    target = cue_abs_moment(int(step.setting("n")), zeta)
    return [within_stderr("verify-moments.exp_moment", columns["exp_moment"], target)]


def _kernel_check(step, columns):
    return [Check(f"kernel-check.{name}", max(columns[name]) <= limit,
                  f"{max(columns[name]):.6g} (limit {limit:g})")
            for name, limit in KERNEL_LIMITS.items()]


NUMU_COLUMNS = ("mu", "nu", "discrepancy", "nu_barrier_violation",
                *(f"nu_barrier_violation_l{k}" for k in range(2, 6)))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fk-large", 1, (
            Step("fk-test", ("n=4096", "grid_factor=16", "gamma=0.3", "convention=conjecture"),
                 24, ("fk_mass",), _no_check),
        )),
        Workload("numu-barrier", 1, (
            Step("nu-mu", ("n=1024", "gamma=0.5", "eta=0.2", "ell=2"), 64, NUMU_COLUMNS, _no_check),
        )),
        # replica ratio 1 : 8 : 4, so that cheap replicas and large CSVs dominate
        Workload("small-replicas", 2, (
            Step("trace-cov", ("n=64", "kmax=128"), 1000,
                 tuple(f"abs_trace_sq_k{k}" for k in (1, 8, 64, 128)), _trace_cov_check),
            Step("gaussian-gmc", ("kmax=512", "gamma=1.0"), 8000, ("gmc_mass",), _gmc_check),
            Step("verify-moments", ("n=64", "gamma=0.6"), 4000,
                 ("exp_moment", "field_at_0"), _moments_check),
        )),
        Workload("kernel-check", 1, (
            Step("kernel-check", (), None, tuple(KERNEL_LIMITS), _kernel_check),
        )),
    )
}


def _reject_constant(token: str):
    raise ValueError(f"bare {token} is not JSON")


def check_outputs(step: Step, base: str) -> list[Check]:
    """Checks of one step's ``<base>.csv`` and ``<base>.json``."""
    with open(f"{base}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    expected = ["replica_index", "derived_seed", *step.columns]
    header_ok = bool(rows) and rows[0] == expected and all(len(row) == len(expected) for row in rows) \
        and [row[0] for row in rows[1:]] == [str(i) for i in range(step.replica_count)]
    checks = [Check(f"{step.subcommand}.csv_header", header_ok,
                    f"{len(rows) - 1} rows, header {rows[0] if rows else None}")]
    try:
        with open(f"{base}.json") as fh:
            json.load(fh, parse_constant=_reject_constant)
        checks.append(Check(f"{step.subcommand}.strict_json", True, "parses", values=False))
    except ValueError as exc:
        checks.append(Check(f"{step.subcommand}.strict_json", False, str(exc), values=False))
    if not header_ok:
        return checks + [Check(f"{step.subcommand}.values", False, "CSV unreadable")]
    try:
        columns = {name: [float(row[i + 2]) for row in rows[1:]] for i, name in enumerate(step.columns)}
    except ValueError as exc:
        return checks + [Check(f"{step.subcommand}.values", False, str(exc))]
    bad = [name for name, values in columns.items() if not all(map(math.isfinite, values))]
    checks.append(Check(f"{step.subcommand}.finite", not bad, f"non-finite columns {bad}" if bad else "all finite"))
    if not bad:
        checks.extend(step.check(step, columns))
    return checks

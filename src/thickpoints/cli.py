"""Command-line front end: flat key=value configs, experiment dispatch and
CSV/JSON emission.

One config describes one experiment.  Outputs are a CSV of per-replica rows
(byte-identical across reruns of the same config) plus a JSON summary.
"""

from __future__ import annotations

import argparse
import csv
import enum
import json
import math
import os
import sys
import time
import typing
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .montecarlo import (
    Experiment,
    ExperimentConfig,
    derive_seed,
    replica_stream,
    run_experiment,
    sample_field,
    worker_count,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_RUNTIME_ERROR = 4

# subcommand -> (experiment whose config it reads, help text); sample draws
# fields with the moment-check config instead of running replicas
_SUBCOMMANDS = {
    "sample": (Experiment.MOMENT_CHECK, "draw field samples and write them as CSV"),
    "verify-moments": (
        Experiment.MOMENT_CHECK, "Monte Carlo check of the exact finite-N moment formula"
    ),
    "trace-cov": (
        Experiment.TRACE_COVARIANCE, "empirical covariance of power traces against min(k, N)"
    ),
    "fk-test": (Experiment.FK_TEST, "normalized thick-point mass against the limiting law"),
    "nu-mu": (
        Experiment.NU_MU_DISCREPANCY,
        "thick-point vs exponential measure discrepancy (and barrier)",
    ),
    "gaussian-gmc": (Experiment.GAUSSIAN_GMC, "normalized Gaussian chaos mass and stability"),
    "kernel-check": (Experiment.KERNEL_CHECKS, "deterministic kernel bound checks"),
}

_KEY_HELP = {
    "n": "matrix dimension N (int, default 64)",
    "grid_factor": "grid oversampling factor, M = grid_factor*N (int >= 4, default 16)",
    "gamma": "field exponent / thick-point level (float, default 0.5)",
    "convention": "gamma scale: 'theorem' (range (0,sqrt 2)) or 'conjecture' (range (0,1)); default theorem",
    "eta": "barrier slack and mesoscopic-depth parameter (float in (0,1), default 0.2)",
    "ell": "shallowest barrier level; enables the barrier diagnostic (int, default off)",
    "L": "deepest barrier level (int, default auto = floor((1-eta) log N))",
    "kmax": "number of power traces / Fourier modes (int, default experiment-specific)",
    "replicas": "number of Monte Carlo replicas (int >= 1, default 1)",
    "master_seed": "64-bit master seed; replica streams are derived from it (default 0)",
    "g_shift": "constant shift of the thick-point threshold (float, default 0)",
    "output_path": "basename for <base>.csv and <base>.json outputs",
}

# config key -> the type its value parses as: the field's type, X for a
# field typed X | None
_PARSERS = {
    key: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for key, hint in typing.get_type_hints(ExperimentConfig).items()
    if key != "experiment"
}


class ConfigError(ValueError):
    pass


def _parse_value(key: str, raw: str, where: str):
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kind = _PARSERS[key]
    if issubclass(kind, enum.Enum):
        # an enum parses by its lower-cased value
        try:
            return kind(raw.strip().lower())
        except ValueError:
            members = " or ".join(repr(member.value) for member in kind)
            raise ConfigError(f"{where}: {key} must be {members}, got {raw!r}")
    try:
        return kind(raw.strip())
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {key} value {raw!r}")


def parse_config(text: str, experiment: Experiment) -> ExperimentConfig:
    """Parse `key = value` lines (# comments) into a config.  It is not
    validated here: apply_overrides validates the final config."""
    fields: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        fields[key] = _parse_value(key, raw, f"line {lineno} key {key!r}")
    return ExperimentConfig(experiment=experiment, **fields)


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply `key=value` overrides in order, then validate the result."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must have the form key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        config = replace(config, **{key: _parse_value(key, raw, f"override {key!r}")})
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config


def _fmt(value: float) -> str:
    return repr(float(value))


def _json_number(value: float) -> float | None:
    """Strict JSON has no NaN or infinity; an undefined value is written as null."""
    return value if math.isfinite(value) else None


def emit(rows: list[dict[str, float]], summary: dict[str, dict[str, float]],
         config: ExperimentConfig, base_path: str, wallclock: float) -> tuple[str, str]:
    """Write <base>.csv (one line per row, the row's position its replica
    index) and <base>.json (the summary); returns the paths."""
    csv_path = f"{base_path}.csv"
    json_path = f"{base_path}.json"
    names = list(rows[0]) if rows else []
    seeds = derive_seed(config.master_seed, np.arange(len(rows), dtype=np.uint64)).tolist()
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica_index", "derived_seed", *names])
        for i, (seed, row) in enumerate(zip(seeds, rows)):
            writer.writerow([i, seed, *(_fmt(row[k]) for k in names)])
    echo = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "output_path"}
    config_echo = {k: v.value if isinstance(v, enum.Enum) else v for k, v in echo.items()}
    payload = {
        "config_echo": config_echo,
        "estimates": {
            name: {stat: _json_number(value) for stat, value in estimate.items()}
            for name, estimate in summary.items()
        },
        "wallclock_seconds": wallclock,
        "version": __version__,
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return csv_path, json_path


def _emit_sample(config: ExperimentConfig, base_path: str) -> str:
    """Field samples in long format: one row per (replica, grid point)."""
    csv_path = f"{base_path}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica_index", "derived_seed", "theta", "value"])
        for i in range(config.replicas):
            seed = derive_seed(config.master_seed, i)
            _, field = sample_field(config, replica_stream(config.master_seed, i))
            thetas = 2.0 * np.pi * np.arange(field.size) / field.size
            for theta, value in zip(thetas, field):
                writer.writerow([i, seed, _fmt(theta), _fmt(value)])
    return csv_path


def _load_config(args, experiment: Experiment) -> ExperimentConfig:
    # no config file reads as an empty one: every key at its default
    text = ""
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    config = apply_overrides(parse_config(text, experiment), args.set or [])  # validates it
    if args.output:
        config = replace(config, output_path=args.output)
    return config


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", nargs="?", help="path to a key=value config file")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key after the file is parsed",
    )
    sub.add_argument("-o", "--output", help="output basename (overrides output_path)")
    keys = "\n".join(f"  {key:<12} {desc}" for key, desc in _KEY_HELP.items())
    sub.epilog = "config keys:\n" + keys
    sub.formatter_class = argparse.RawDescriptionHelpFormatter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thickpoints",
        description="Monte Carlo lab for thick points of CUE characteristic "
        "polynomials and Gaussian log-correlated fields",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, desc) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=desc, description=desc)
        _add_common(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        experiment, _ = _SUBCOMMANDS[args.subcommand]
        config = _load_config(args, experiment)
        try:
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc))
        if args.subcommand == "sample":
            path = _emit_sample(config, config.output_path or "sample")
            print(f"wrote {path}")
            return EXIT_OK
        base = config.output_path or experiment.value
        directory = os.path.dirname(base) or "."
        if not os.path.isdir(directory):
            # refused here, before any replica runs
            raise FileNotFoundError(f"output directory {directory!r} does not exist")
        rows, summary = run_experiment(config)
        print(f"completed {config.replicas} replicas of {experiment.value}")
        csv_path, json_path = emit(rows, summary, config, base, time.monotonic() - started)
        print(f"wrote {csv_path} and {json_path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: category=config {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: category=io {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except (ValueError, MemoryError) as exc:
        # the config was validated before any replica ran; numpy refuses an
        # array too large for memory while they run, in the parent or a worker
        print(f"error: category=runtime {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())

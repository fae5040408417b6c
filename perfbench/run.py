"""thickpoints benchmark: end-to-end CLI timings and a traced per-layer pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload numu-barrier --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` spawns fresh interpreters running the workload's CLI steps for
``--seconds`` seconds (at least two, so reruns can be compared) and reports
the medians of the end-to-end metrics, with each child's times scaled to the
run's fastest replica pace (see ``pace_factors``).  ``--trace 1`` runs pairs
of an untraced and a traced child at one worker and reports the medians of
the per-layer metrics.  ``--workload all`` does both for every workload, then the
tracer self-check.  The last line of standard output is one JSON object;
every run also writes its samples, checks, CSV digests and machine facts to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import layer_metrics
from workloads import WORKLOADS, Check, Workload, check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
MIN_TIMED_CHILDREN = 2  # reruns at one seed must give byte-identical CSVs
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a child still running this long after its run began is killed
# share of run_replica time the tracer must attribute, from profiles of the
# seed commit; each is (workload, layer spans, lowest share, highest share)
SELF_CHECK_SHARES = (
    ("fk-large", ("cue.eval_field",), 0.85, 1.0),
    ("numu-barrier", ("cue.eval_field", "cue.trace_powers"), 0.84 * 0.8, 0.84 * 1.2),
    ("kernel-check", ("kernels.circle_truncated_kernel_grid", "kernels.assumption1_check"), 0.95, 1.0),
)


class BenchError(RuntimeError):
    pass


def machine_info(seed: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    def cache_size(level: int) -> str | None:
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
            try:
                with open(f"{base}/{index}/level") as fh:
                    if int(fh.read()) != level:
                        continue
                with open(f"{base}/{index}/size") as fh:
                    return fh.read().strip()
            except OSError:
                continue
        return None

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": cache_size(2),
        "l3": cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": "absent, so _szego_numba never runs" if importlib.util.find_spec("numba") is None else "present",
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        "seed": seed,
        "workers": {name: w.workers for name, w in WORKLOADS.items()},
        "replicas": {name: {s.subcommand: s.replica_count for s in w.steps} for name, w in WORKLOADS.items()},
    }


def spawn(workload: Workload, seed: int, workers: int, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one fresh child, killed at monotonic time ``deadline``; returns
    its stamps relative to the spawn, and the checks, digests and spans of
    its outputs."""
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(OUT, "work"))
    try:
        bases = [os.path.join(work, step.subcommand) for step in workload.steps]
        steps = [step.argv(seed, base) for step, base in zip(workload.steps, bases)]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", THICKPOINT_THREADS=str(workers))
        argv = [sys.executable, CHILD, work, str(int(trace)), str(int(setup_only)), json.dumps(steps)]
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload.name} child killed after {time.monotonic() - spawned:.0f} s")
        finally:
            # pool workers of the child share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise BenchError(f"{workload.name} child exited with {proc.returncode}:\n{err}")
        with open(os.path.join(work, "timings.json")) as fh:
            stamps = json.load(fh)
        if not stamps["module"].startswith(os.path.join(ROOT, "src") + os.sep):
            raise BenchError(f"child imported thickpoints from {stamps['module']}, not from this checkout")
        result = {"setup_s": stamps["setup"] - spawned, "wall_s": stamps["end"] - spawned}
        if setup_only:
            return result
        result.update(
            replicas_per_s=stamps["replicas"] / stamps["run_s"] if stamps["run_s"] > 0 else 0.0,
            peak_rss_mb=stamps["peak_rss_kb"] / 1024.0,
            replica_s=stamps["replica_s"], attempted=0, failed=0, checks=[], sha256={},
        )
        for step, base, code in zip(workload.steps, bases, stamps["codes"] + [None] * len(bases)):
            result["attempted"] += step.replica_count
            if code != 0:
                result["failed"] += step.replica_count
                result["checks"].append(Check(f"{step.subcommand}.exit", False, f"exit code {code}"))
                continue
            result["checks"].extend(check_outputs(step, base))
            with open(f"{base}.csv", "rb") as fh:
                result["sha256"][step.subcommand] = hashlib.sha256(fh.read()).hexdigest()
        if trace:
            with open(os.path.join(work, "spans.json")) as fh:
                result["layers"] = layer_metrics(json.load(fh))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _reproducibility(children: list[dict], label: str) -> list[Check]:
    checks = []
    for child in children[1:]:
        for step, digest in child["sha256"].items():
            first = children[0]["sha256"].get(step)
            checks.append(Check(f"{step}.reproducible", digest == first, f"{label}: {digest[:16]} vs {str(first)[:16]}"))
    return checks


def _tally(children: list[dict], extra: list[Check]) -> dict:
    checks = [c for child in children for c in child["checks"]] + extra
    attempted = sum(child["attempted"] for child in children) + len(checks)
    failed = sum(child["failed"] for child in children) + sum(not c.ok for c in checks)
    correct = all(c.ok for c in checks if c.values) and not any(child["failed"] for child in children)
    return {"correct": correct, "attempted": attempted, "failed": failed, "checks": checks}


def _keep_going(started: float, spent: list[float], seconds: float, minimum: int) -> bool:
    """True while fewer than ``minimum`` children ran, or another child of
    the mean duration so far would end within ``seconds``."""
    if len(spent) < minimum:
        return True
    return time.monotonic() - started + statistics.fmean(spent) <= seconds


def run_timed(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced children at the workload's worker count for ``seconds``."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    children, spent = [], []
    while _keep_going(started, spent, seconds, MIN_TIMED_CHILDREN):
        t0 = time.monotonic()
        children.append(spawn(workload, seed, workload.workers, deadline))
        spent.append(time.monotonic() - t0)
    setups = [child["setup_s"] for child in children]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, seed, workload.workers, deadline, setup_only=True)["setup_s"])
    tally = _tally(children, _reproducibility(children, "timed reruns"))
    for child, factor in zip(children, pace_factors(children)):
        child["pace"] = factor
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(child["wall_s"] * child["pace"] for child in children),
        "replicas_per_s": statistics.median(child["replicas_per_s"] / child["pace"] for child in children),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }
    as_run = {name: statistics.median(child[name] for child in children) for name in ("wall_s", "replicas_per_s")}
    return {**tally, "metrics": metrics, "as_run": as_run,
            "samples": {"children": len(children), "setup": len(setups)},
            "sha256": children[0]["sha256"], "raw": [_strip(c) for c in children], "setups": setups}


def pace_factors(children: list[dict]) -> list[float]:
    """How fast each child ran its replicas, against the fastest the run saw.

    On a shared 2-vCPU cloud VM the host's speed swings by up to 1.75x over
    seconds to minutes, while a replica takes milliseconds, so most runs
    hold replicas that met the host at its fastest.  A step's replicas all
    do the same work, so a child's factor is the median, over its replicas,
    of the step's fastest duration in the run divided by that replica's
    duration.  Multiplying the child's times by it gives them at the run's
    fastest pace.  The median keeps a one-off cost, such as a cache filled
    by the first replica, in the times.
    """
    fastest = {}
    for child in children:
        for step, durations in enumerate(child["replica_s"]):
            if durations:
                fastest[step] = min(fastest.get(step, durations[0]), *durations)
    factors = []
    for child in children:
        ratios = [fastest[step] / d for step, durations in enumerate(child["replica_s"]) for d in durations]
        factors.append(statistics.median(ratios) if ratios else 1.0)
    return factors


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Pairs of an untraced and a traced child at one worker; a workload
    timed at more workers adds one untraced child at that count, whose CSVs
    must match the 1-worker ones byte for byte."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    pairs, spent = [], []
    while _keep_going(started, spent, seconds, 1):
        t0 = time.monotonic()
        pairs.append((spawn(workload, seed, 1, deadline), spawn(workload, seed, 1, deadline, trace=True)))
        spent.append(time.monotonic() - t0)
    children = [child for pair in pairs for child in pair]
    if workload.workers != 1:
        children.append(spawn(workload, seed, workload.workers, deadline))
    tally = _tally(children, _reproducibility(children, "1-worker, traced and timed-worker runs"))
    per_pair = []
    for plain, traced in pairs:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        per_pair.append(layers)
    names = set().union(*per_pair)
    metrics = {name: statistics.median(layers.get(name, 0.0) for layers in per_pair) for name in sorted(names)}
    return {**tally, "metrics": metrics, "samples": {"pairs": len(pairs)},
            "sha256": children[0]["sha256"], "raw": [_strip(c) for c in children]}


def self_check(seed: int) -> list[Check]:
    """The tracer must attribute the run_replica time shares known from
    independent profiles of the seed commit, and count one trace_powers call
    per eval_field call in numu-barrier."""
    layers = {}
    for name in dict.fromkeys(w for w, *_ in SELF_CHECK_SHARES):
        deadline = time.monotonic() + RUN_LIMIT_S
        layers[name] = spawn(WORKLOADS[name], seed, 1, deadline, trace=True)["layers"]
    checks = []
    for name, spans, low, high in SELF_CHECK_SHARES:
        share = sum(layers[name].get(f"{s}.incl_s", 0.0) for s in spans) / layers[name]["montecarlo.run_replica.incl_s"]
        checks.append(Check(f"selfcheck.{name}.share", low <= share <= high,
                            f"{' + '.join(spans)} = {share:.1%} of run_replica (allowed {low:.1%} to {high:.1%})"))
    numu = layers["numu-barrier"]
    calls = (numu.get("cue.trace_powers.calls", 0), numu.get("cue.eval_field.calls", 0))
    checks.append(Check("selfcheck.numu-barrier.calls", calls[0] == calls[1],
                        f"trace_powers {calls[0]:g} calls, eval_field {calls[1]:g} calls"))
    return checks


def _strip(child: dict) -> dict:
    return {k: v for k, v in child.items() if k not in ("checks", "layers", "replica_s")}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _select(metrics: dict, wanted: list[dict]) -> dict:
    return {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}


def _print_checks(checks: list[Check]) -> None:
    passed = sum(c.ok for c in checks)
    print(f"  checks: {passed} of {len(checks)} passed")
    for c in checks:
        if not c.ok:
            print(f"  FAILED {c.name}: {c.detail}" + ("" if c.values else " (format; counted in failed)"))


def report(name: str, seed: int, trace: bool, result: dict, wanted: list[dict], info: dict) -> dict:
    selected = _select(result["metrics"], wanted)
    mode = "traced pass" if trace else "timed"
    print(f"{name} seed {seed} {mode}: {result['samples']}")
    for metric, entry in selected.items():
        print(f"  {metric:<48} {entry['value']:.6g} {entry['unit']}")
    for metric, value in result.get("as_run", {}).items():
        print(f"  {metric + ' as run, not scaled to the pace':<48} {value:.6g}")
    fraction = result["failed"] / result["attempted"]
    print(f"  {'failed_fraction':<48} {fraction:.6g} fraction ({result['failed']} of {result['attempted']} operations)")
    for step, digest in result["sha256"].items():
        print(f"  csv sha256 {step}: {digest}")
    _print_checks(result["checks"])
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = {**{k: v for k, v in result.items() if k != "checks"}, "workload": name, "seed": seed,
              "trace": int(trace), "machine": info, "metrics": selected, "failed_fraction": fraction,
              "checks": [c.__dict__ for c in result["checks"]]}
    with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return selected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "thickpoints", "cli.py")):
        print("error: run from the root of a thickpoints checkout (no src/thickpoints here)", file=sys.stderr)
        return 2
    spec = _spec()
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    info = machine_info(args.seed)
    print("machine: " + json.dumps(info))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            for trace in modes:
                run = run_traced if trace else run_timed
                result = run(WORKLOADS[name], args.seed, args.seconds)
                selected = report(name, args.seed, trace, result,
                                  spec["per_layer" if trace else "end_to_end"], info)
                correct &= result["correct"]
                attempted += result["attempted"]
                failed += result["failed"]
                prefix = f"{name}." if args.workload == "all" else ""
                metrics.update({prefix + k: v for k, v in selected.items()})
        if args.workload == "all":
            checks = self_check(args.seed)
            print(f"tracer self-check seed {args.seed}:")
            for c in checks:
                print(f"  {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
            correct &= all(c.ok for c in checks)
            attempted += len(checks)
            failed += sum(not c.ok for c in checks)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark child: a fresh interpreter that runs CLI steps as a user does.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.  It
records ``time.monotonic`` stamps (the system-wide ``CLOCK_MONOTONIC``, so
the parent can subtract its own spawn stamp):

- ``setup``: the first call of ``run_experiment``, which ``cli.main`` makes
  right after it has imported the package and validated the config;
- ``end``: after the last step's CSV and JSON are written.

An untraced child also records how long each ``montecarlo.run_replica`` call
took, per step, in pool workers too: the workers are forked, so they inherit
the wrapper, and each chunk they run writes its durations to a file.

With SETUP_ONLY=1 it stops at ``setup``.  With TRACE=1 it installs the span
tracer before the first step and writes the spans next to the timings.

    python3 perfbench/child.py OUT_DIR TRACE SETUP_ONLY STEPS_JSON
"""

import glob
import json
import os
import resource
import sys
import time


class _SetupDone(BaseException):
    """Raised out of cli.main in --setup-only mode; cli catches Exception
    subclasses only, so it cannot swallow this."""


def time_replicas(out_dir: str, durations: list[float]) -> None:
    """Append the duration of every replica the current step runs to
    ``durations``; a pool worker writes the durations of its chunk to
    ``chunk-<pid>-<n>.json`` in ``out_dir`` instead."""
    import functools

    from thickpoints import montecarlo

    run_replica, run_chunk = montecarlo.run_replica, montecarlo._run_chunk
    home = os.getpid()

    @functools.wraps(run_replica)
    def timed_run_replica(*args, **kwargs):
        started = time.perf_counter()
        record = run_replica(*args, **kwargs)
        durations.append(time.perf_counter() - started)
        return record

    @functools.wraps(run_chunk)
    def timed_run_chunk(args):
        durations.clear()
        records = run_chunk(args)
        if os.getpid() != home:
            path = os.path.join(out_dir, f"chunk-{os.getpid()}-{time.monotonic_ns()}.json")
            with open(path + ".tmp", "w") as fh:
                json.dump(durations, fh)
            os.replace(path + ".tmp", path)
        return records

    montecarlo.run_replica, montecarlo._run_chunk = timed_run_replica, timed_run_chunk


def main() -> int:
    out_dir, trace, setup_only, steps = sys.argv[1], sys.argv[2] == "1", sys.argv[3] == "1", json.loads(sys.argv[4])
    import thickpoints.cli as cli

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    stamps = {"setup": None, "run_s": 0.0, "replicas": 0, "codes": [], "module": cli.__file__}
    run_experiment = cli.run_experiment

    def timed_run_experiment(config):
        started = time.monotonic()
        if stamps["setup"] is None:
            stamps["setup"] = started
        if setup_only:
            raise _SetupDone
        records, summary = run_experiment(config)
        stamps["run_s"] += time.monotonic() - started
        stamps["replicas"] += len(records)
        return records, summary

    cli.run_experiment = timed_run_experiment
    durations: list[float] = []
    if not trace and not setup_only:
        time_replicas(out_dir, durations)
    stamps["replica_s"] = []
    for argv in steps:
        durations.clear()
        try:
            stamps["codes"].append(cli.main(argv))
        except _SetupDone:
            break
        for path in sorted(glob.glob(os.path.join(out_dir, "chunk-*.json"))):
            with open(path) as fh:
                durations.extend(json.load(fh))
            os.remove(path)
        stamps["replica_s"].append(list(durations))
    stamps["end"] = time.monotonic()
    stamps["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.json"))
    with open(os.path.join(out_dir, "timings.json"), "w") as fh:
        json.dump(stamps, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the benchmark's traced pass.

Nothing inside ``src/`` is instrumented.  ``install`` replaces public
functions of the ``thickpoints`` modules with timing wrappers, patching each
name where its caller looks it up: ``montecarlo`` reaches ``cue`` and
``measures`` through module attributes, but binds the ``gaussian``, ``kernels``
and ``special_fn`` functions it uses by name, and ``cli`` binds
``run_experiment``.  Spans are kept in memory and written out once, when the
traced child ends; ``layer_metrics`` turns them into per-layer figures in the
parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

CUE_FUNCTIONS = ("sample_verblunsky", "eval_field", "eval_field_at", "trace_powers", "truncated_field")
MEASURES_FUNCTIONS = (
    "l1_discrepancy",
    "thick_measure_integral",
    "exp_measure_integral",
    "barrier_mask",
    "fk_normalized_mass",
)
# gaussian functions whose argument tuples are recorded, to show repeated
# constant work
GAUSSIAN_ARG_FUNCTIONS = ("harmonic_number", "gaussian_exp_normalizer")

# a span is [id, parent id or None, root id, name, start, end, extras or None];
# spans that share a root belong to one top-level call, such as one replica
ID, PARENT, ROOT, NAME, START, END, EXTRA = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _args_key(args, kwargs, result):
    return {"args": repr((args, sorted(kwargs.items())))}


_EXTRAS = {
    "cue.eval_field": lambda a, k, r: {
        "points": _arg(a, k, 1, "grid_size"),
        "singular_calls": int(r.has_singular_points),
    },
    "cue.eval_field_at": lambda a, k, r: {"points": len(r)},
    "cue.trace_powers": lambda a, k, r: {"traces": _arg(a, k, 1, "kmax")},
    "cli.emit": lambda a, k, r: {"bytes": sum(os.path.getsize(path) for path in r)},
}


class Tracer:
    """Records nested spans of the wrapped calls in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            root = spans[parent][ROOT] if parent is not None else sid
            span = [sid, parent, root, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _bound_functions(owner, source):
    """Names in ``owner`` bound to functions defined in module ``source``."""
    for attr, value in sorted(vars(owner).items()):
        if callable(value) and not isinstance(value, type) and getattr(value, "__module__", None) == source.__name__:
            yield attr


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the ``thickpoints`` package in place."""
    from thickpoints import cli, cue, gaussian, kernels, measures, montecarlo, special_fn

    for attr in CUE_FUNCTIONS:
        tracer.wrap(cue, attr, f"cue.{attr}", _EXTRAS.get(f"cue.{attr}"))
    for attr in MEASURES_FUNCTIONS:
        tracer.wrap(measures, attr, f"measures.{attr}")
    # special_fn is counted only where measures and montecarlo call it
    for owner in (measures, montecarlo):
        for attr in _bound_functions(owner, special_fn):
            tracer.wrap(owner, attr, f"special_fn.{attr}", _args_key)
    for attr in _bound_functions(montecarlo, gaussian):
        tracer.wrap(montecarlo, attr, f"gaussian.{attr}",
                    _args_key if attr in GAUSSIAN_ARG_FUNCTIONS else None)
    for attr in _bound_functions(montecarlo, kernels):
        tracer.wrap(montecarlo, attr, f"kernels.{attr}")
    # assumption1_check reaches it through the kernels module globals
    tracer.wrap(kernels, "doubly_mollified_kernel", "kernels.doubly_mollified_kernel")
    tracer.wrap(montecarlo, "run_replica", "montecarlo.run_replica")
    tracer.wrap(montecarlo, "summarize", "montecarlo.summarize")
    tracer.wrap(cli, "run_experiment", "montecarlo.run_experiment")
    tracer.wrap(cli, "emit", "cli.emit", _EXTRAS["cli.emit"])


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals: ``<span>.self_s``, ``.incl_s``, ``.calls``, summed
    extras and ``.distinct_args_ratio``, plus the ``special_fn`` group.

    Self time is a span's duration minus the durations of its child spans.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    distinct: dict[str, set] = defaultdict(set)
    for span in spans:
        duration = span[END] - span[START]
        names = [span[NAME]]
        if span[NAME].startswith("special_fn."):
            names.append("special_fn")
        for name in names:
            totals[f"{name}.self_s"] += duration - child_time[span[ID]]
            totals[f"{name}.incl_s"] += duration
            totals[f"{name}.calls"] += 1
            for key, value in (span[EXTRA] or {}).items():
                if key == "args":
                    distinct[name].add((span[NAME], value))
                else:
                    totals[f"{name}.{key}"] += value
    for name, seen in distinct.items():
        totals[f"{name}.distinct_args_ratio"] = len(seen) / totals[f"{name}.calls"]
    return dict(totals)

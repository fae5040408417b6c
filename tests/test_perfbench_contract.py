"""The names the benchmark's traced pass looks up in the package.

perfbench/tracer.py wraps functions of `cue` and `measures` by name, the
`kernels` functions where `montecarlo` binds them and
`kernels.doubly_mollified_kernel` in `kernels` itself, and perfbench/child.py
wraps `montecarlo.run_replica` and `montecarlo._run_chunk`; a missing name
fails the traced run, not the test suite, and a name that no experiment
calls reads 0 in the traced pass, so each must run.  The experiments
whose replica times set the benchmark's pace factors must keep calling
`run_replica` once per replica.  `run_experiment` must return one row per
replica, in index order, since perfbench/child.py counts `len(records)` as
the replicas behind `replicas_per_s`; and `cli.emit` must return
`(csv_path, json_path)`, the files the tracer's `cli.emit` extra sizes.  The
tracer's name lists are read from its source, which is parsed, not imported
or changed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from thickpoints import cli, cue, kernels, measures, montecarlo

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tuple(name: str) -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize(
    "module, list_name", [(cue, "CUE_FUNCTIONS"), (measures, "MEASURES_FUNCTIONS")]
)
def test_traced_functions_exist(module, list_name):
    names = _tracer_tuple(list_name)
    assert names
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"{module.__name__} lacks {missing}"


# a small config of every experiment, each run in this process
SMALL_CONFIGS = {
    montecarlo.Experiment.MOMENT_CHECK: dict(n=4, replicas=2),
    montecarlo.Experiment.TRACE_COVARIANCE: dict(n=4, replicas=2),
    montecarlo.Experiment.FK_TEST: dict(n=16),
    montecarlo.Experiment.NU_MU_DISCREPANCY: dict(n=64, ell=1, replicas=2),
    montecarlo.Experiment.GAUSSIAN_GMC: dict(kmax=16, replicas=2),
    montecarlo.Experiment.KERNEL_CHECKS: {},
}


def test_every_traced_name_runs(monkeypatch):
    # a wrapped name that no experiment calls reads 0 in every traced layer
    assert set(SMALL_CONFIGS) == set(montecarlo.Experiment)
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, list_name in [(cue, "CUE_FUNCTIONS"), (measures, "MEASURES_FUNCTIONS")]:
        for name in _tracer_tuple(list_name):
            calls[f"{module.__name__}.{name}"] = 0
            monkeypatch.setattr(module, name, counted(module, name))
    monkeypatch.setenv("THICKPOINT_THREADS", "1")
    for experiment, fields in SMALL_CONFIGS.items():
        montecarlo.run_experiment(montecarlo.ExperimentConfig(experiment, **fields))
    assert not [name for name, count in calls.items() if count == 0], calls


def _tracer_wraps(owner: str) -> list[str]:
    """The names install() wraps with tracer.wrap(<owner>, "<name>", ...)."""
    return [
        node.args[1].value
        for node in ast.walk(ast.parse(TRACER.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap"
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == owner
    ]


def test_traced_kernel_names_exist():
    assert _tracer_wraps("kernels") == ["doubly_mollified_kernel"]
    assert callable(kernels.doubly_mollified_kernel)
    # assumption1_check reaches the kernel through the module global, the
    # name the tracer replaces
    assert "doubly_mollified_kernel" in kernels.assumption1_check.__code__.co_names
    # the kernel-check layers are wrapped where montecarlo binds them
    for name in ("assumption1_check", "circle_truncated_kernel_grid"):
        assert getattr(montecarlo, name) is getattr(kernels, name)


def test_replica_entry_points_exist():
    assert callable(montecarlo.run_replica)
    assert callable(montecarlo._run_chunk)


# perfbench/child.py times each run_replica call, and its pace factors are
# built from those times; these experiments must keep one call per replica
@pytest.mark.parametrize(
    "experiment, fields",
    [
        pytest.param(montecarlo.Experiment.NU_MU_DISCREPANCY, dict(n=64, ell=1), id="nu-mu"),
        pytest.param(montecarlo.Experiment.FK_TEST, dict(n=32), id="fk-test"),
        pytest.param(montecarlo.Experiment.KERNEL_CHECKS, {}, id="kernel-check"),
    ],
)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_replica_is_called_once_per_replica(experiment, fields, workers, tmp_path, monkeypatch):
    config = montecarlo.ExperimentConfig(experiment, replicas=5, **fields)
    # computed before run_replica is patched, so that the call log holds
    # only the calls run_experiment makes
    expected = [montecarlo.run_replica(config, i) for i in range(5)]
    log = tmp_path / "calls"
    run_replica = montecarlo.run_replica

    def counted(config, replica_index):
        # pool workers are forked, so they append to the same file
        with open(log, "a") as fh:
            fh.write(f"{replica_index}\n")
        return run_replica(config, replica_index)

    monkeypatch.setattr(montecarlo, "run_replica", counted)
    monkeypatch.setenv("THICKPOINT_THREADS", workers)
    records, _ = montecarlo.run_experiment(config)
    # one row per replica, in index order
    assert records == expected
    assert sorted(int(line) for line in log.read_text().split()) == list(range(5))


def test_emit_returns_the_paths_it_writes(tmp_path):
    config = montecarlo.ExperimentConfig(montecarlo.Experiment.MOMENT_CHECK, n=4, replicas=3)
    rows, summary = montecarlo.run_experiment(config)
    base = str(tmp_path / "out")
    paths = cli.emit(rows, summary, config, base, 0.0)
    assert paths == (f"{base}.csv", f"{base}.json")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "out.json"]


def test_eval_field_reports_singular_points():
    row = cue.szego_coefficients(cue.sample_verblunsky(8, np.random.default_rng(0))[None])[0]
    assert cue.eval_field(row, 64).has_singular_points is False
    # the grid holds the eigenvalue at angle pi
    singular = cue.eval_field(cue.szego_coefficients(np.array([[-1.0 + 0.0j]]))[0], 2)
    assert singular.has_singular_points is True

"""The names the benchmark's traced pass looks up in the package.

perfbench/tracer.py wraps functions of `cue` and `measures` by name, and
perfbench/child.py wraps `montecarlo.run_replica` and `montecarlo._run_chunk`;
a missing name fails the traced run, not the test suite.  The tracer's name
lists are read from its source, which is parsed, not imported or changed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from thickpoints import cue, measures, montecarlo

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


def test_replica_entry_points_exist():
    assert callable(montecarlo.run_replica)
    assert callable(montecarlo._run_chunk)


def test_eval_field_reports_singular_points():
    coeffs = cue.sample_verblunsky(8, np.random.default_rng(0))
    assert cue.eval_field(coeffs, 64).has_singular_points is False
    # the grid holds the eigenvalue at angle pi
    singular = cue.eval_field(cue.VerblunskyCoeffs(np.array([-1.0 + 0.0j])), 2)
    assert singular.has_singular_points is True

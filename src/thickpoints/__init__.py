"""Thick points of random unitary characteristic polynomials and Gaussian
multiplicative chaos: exact moment formulas, samplers and Monte Carlo
experiments."""

__version__ = "0.1.0"

from .special_fn import (
    GammaConvention,
    cue_abs_moment_exact,
    fk_normalizer,
    log_barnes_g,
    log_psi,
    thickpoint_prob_asymptotic,
    to_theorem_scale,
)
from .cue import (
    eval_field,
    sample_verblunsky,
    trace_powers,
)
from .gaussian import sample_circle_field
from .measures import (
    exp_measure_integral,
    fk_normalized_mass,
    l1_discrepancy,
    thick_measure_integral,
)
from .montecarlo import (
    Experiment,
    ExperimentConfig,
    run_experiment,
)

__all__ = [
    "__version__",
    "GammaConvention",
    "cue_abs_moment_exact",
    "fk_normalizer",
    "log_barnes_g",
    "log_psi",
    "thickpoint_prob_asymptotic",
    "to_theorem_scale",
    "eval_field",
    "sample_verblunsky",
    "trace_powers",
    "sample_circle_field",
    "exp_measure_integral",
    "fk_normalized_mass",
    "l1_discrepancy",
    "thick_measure_integral",
    "Experiment",
    "ExperimentConfig",
    "run_experiment",
]

"""Resolvent families for fractional evolution equations, evaluated by
contour quadrature on a left-sectorial contour.

The package assembles discrete generators (degenerate diffusion on (0,1),
a radial Bessel operator, synthetic diagonal operators), evaluates kernel
multipliers on the contour, and inverts the Laplace representation of the
associated resolvent family numerically, with diagnostics for smoothing
decay rates, admissibility envelopes and sectoriality constants.
"""

from fracresolvent.contour import (
    ContourSpec,
    angle_condition,
    build_quadrature,
    default_contour_spec,
    invert_scalar,
    min_theta,
)
from fracresolvent.errors import (
    ConfigurationError,
    EvaluationError,
    IllConditionedError,
    NumericalError,
    OutputError,
    RefinementNeededError,
    SingularMatrixError,
)
from fracresolvent.evolution import (
    EvolutionConfig,
    EvolutionResult,
    LaplaceReport,
    check_pairing,
    laplace_check,
    mild_solution,
    resolvent_apply,
    smoothed_apply,
    smoothed_norm,
)
from fracresolvent.experiments import (
    DecayTable,
    ExperimentConfig,
    caputo_probe,
    emit_outputs,
    load_config,
    local_exponent,
    parse_config,
    run_experiment,
    smoothing_sweep,
)
from fracresolvent.kernels import (
    AdmissibilityReport,
    KernelParams,
    estimate_admissibility,
    eval_kernel,
    redirect,
)
from fracresolvent.operators import (
    DiscreteOperator,
    SectorialityReport,
    assemble_bessel,
    assemble_kimura,
    make_diagonal,
    resolve,
    sectoriality_check,
)

__all__ = [
    "AdmissibilityReport",
    "ConfigurationError",
    "ContourSpec",
    "DecayTable",
    "DiscreteOperator",
    "EvaluationError",
    "EvolutionConfig",
    "EvolutionResult",
    "ExperimentConfig",
    "IllConditionedError",
    "KernelParams",
    "LaplaceReport",
    "NumericalError",
    "OutputError",
    "RefinementNeededError",
    "SectorialityReport",
    "SingularMatrixError",
    "angle_condition",
    "assemble_bessel",
    "assemble_kimura",
    "build_quadrature",
    "caputo_probe",
    "check_pairing",
    "default_contour_spec",
    "emit_outputs",
    "estimate_admissibility",
    "eval_kernel",
    "invert_scalar",
    "laplace_check",
    "load_config",
    "local_exponent",
    "make_diagonal",
    "mild_solution",
    "min_theta",
    "parse_config",
    "redirect",
    "resolve",
    "resolvent_apply",
    "run_experiment",
    "sectoriality_check",
    "smoothed_apply",
    "smoothed_norm",
    "smoothing_sweep",
]

__version__ = "0.1.0"

"""Delay-equation propagation of 1-electron reduced density matrices.

Reduced observables of unitary linear systems satisfy self-contained linear
time-delay equations built from a stack of present and past observations.
This package specializes that machinery to 1RDMs of time-dependent
configuration interaction: the Slater-determinant reduction tensor, the
constraint-preserving (Hermitian, trace, zero-pattern) delay propagator, a
reference TDCI engine, and an experiment harness with a CLI.
"""

from .numkit import (
    NumericalError,
    ValidationError,
    flatten,
    matexp_hermitian,
    pinv_thresholded,
    unflatten,
)
from .delay_core import (
    DelayConfig,
    HistoryBuffer,
    LinearSystem,
    ReductionMap,
    build_M,
    complete_reduction_basis,
    mori_zwanzig_propagate,
    propagate_y,
)
from .ci_model import (
    BTensor,
    CiSystem,
    DeterminantIndexMap,
    FieldProfile,
    build_B,
    build_one_electron_system,
    load_system,
    one_electron_index_map,
    oracle_B,
    reduce_density,
    save_system,
    verify_bplus_identities,
)
from .constraint_prop import (
    ConstraintSpec,
    DelayPropagator,
    HermitianBasis,
    run_delay_propagation,
    schur_rank_check,
    suggest_zero_pattern,
)
from .ground_truth import (
    GroundTruthRun,
    eigenvalue_drift,
    full_density_series,
    propagate_coefficients,
    reduced_density_series,
    release_step_unitaries,
    step_unitaries,
    step_unitary,
)
from .harness import (
    ExperimentConfig,
    MetricsReport,
    generate_synthetic_system,
    mae,
    mae_series,
    mz_compare,
    rmse,
    run_experiment,
    run_sweep,
    validate_one_electron,
)

# the public API: every name imported above
__all__ = [
    "NumericalError",
    "ValidationError",
    "flatten",
    "matexp_hermitian",
    "pinv_thresholded",
    "unflatten",
    "DelayConfig",
    "HistoryBuffer",
    "LinearSystem",
    "ReductionMap",
    "build_M",
    "complete_reduction_basis",
    "mori_zwanzig_propagate",
    "propagate_y",
    "BTensor",
    "CiSystem",
    "DeterminantIndexMap",
    "FieldProfile",
    "build_B",
    "build_one_electron_system",
    "load_system",
    "one_electron_index_map",
    "oracle_B",
    "reduce_density",
    "save_system",
    "verify_bplus_identities",
    "ConstraintSpec",
    "DelayPropagator",
    "HermitianBasis",
    "run_delay_propagation",
    "schur_rank_check",
    "suggest_zero_pattern",
    "GroundTruthRun",
    "eigenvalue_drift",
    "full_density_series",
    "propagate_coefficients",
    "reduced_density_series",
    "release_step_unitaries",
    "step_unitaries",
    "step_unitary",
    "ExperimentConfig",
    "MetricsReport",
    "generate_synthetic_system",
    "mae",
    "mae_series",
    "mz_compare",
    "rmse",
    "run_experiment",
    "run_sweep",
    "validate_one_electron",
]

__version__ = "0.1.0"

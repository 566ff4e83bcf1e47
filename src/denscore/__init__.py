"""Density-aware core-set selection with coverage-bound diagnostics.

Select representative subsets of a dataset for labeling by trading off how
far points are from their nearest selected representative (classical
k-center coverage) against how densely populated each representative's
neighborhood is.  The package provides the selection algorithms, the
coverage geometry and bound reports that motivate them, several density
estimators, a calibration harness relating density to coverage, and a small
CLI for running file-based experiments.
"""

from .coverage import (
    BoundParams,
    BoundReport,
    CoverageAssignment,
    assign_coverage,
    all_radial_distances,
    bound_report,
    classical_radius,
    hoeffding_term,
)
from .data import (
    FeatureGrid,
    GeneratorSpec,
    LabeledPointSet,
    PointSet,
    ValidationError,
    generate,
    load_pointset,
    save_pointset,
)
from .density import (
    BETA,
    DEFAULT_TAU,
    CalibrationReport,
    DensityField,
    MaskedReconstructor,
    calibrate,
    density_from_error,
    estimator_from_config,
    grid_density,
    kernel_density,
    knn_density,
    masked_reconstruction_error,
)
from .evaluation import (
    COMPARISON_ESTIMATOR,
    ComparisonReport,
    PluginLearner,
    compare_algorithms,
    core_set_loss,
    nonuniform_mixture_spec,
)
from .rng import PortableRng
from .selection import (
    ProtocolConfig,
    ProtocolResult,
    SelectionState,
    density_aware_greedy,
    filter_candidates,
    k_center_greedy,
    margin_score,
    run_rounds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundParams",
    "BoundReport",
    "COMPARISON_ESTIMATOR",
    "CalibrationReport",
    "ComparisonReport",
    "CoverageAssignment",
    "DensityField",
    "FeatureGrid",
    "GeneratorSpec",
    "LabeledPointSet",
    "MaskedReconstructor",
    "PluginLearner",
    "PointSet",
    "PortableRng",
    "ProtocolConfig",
    "ProtocolResult",
    "SelectionState",
    "ValidationError",
    "BETA",
    "DEFAULT_TAU",
    "assign_coverage",
    "all_radial_distances",
    "bound_report",
    "calibrate",
    "classical_radius",
    "compare_algorithms",
    "core_set_loss",
    "density_aware_greedy",
    "density_from_error",
    "estimator_from_config",
    "filter_candidates",
    "generate",
    "grid_density",
    "hoeffding_term",
    "k_center_greedy",
    "kernel_density",
    "knn_density",
    "load_pointset",
    "margin_score",
    "masked_reconstruction_error",
    "nonuniform_mixture_spec",
    "run_rounds",
    "save_pointset",
]

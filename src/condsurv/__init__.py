"""Nonparametric conditional survival estimation under right random censoring.

Kernel-weighted product-limit estimation (with optional time smoothing),
bootstrap bandwidth selection, bootstrap confidence regions and a Monte
Carlo benchmark harness on closed-form models.
"""

from .samples import SurvivalSample, TimeGrid, SurvivalCurve, integrate_on_grid
from .kernels import (
    KernelSpec,
    DEFAULT_KERNEL,
    eval_kernel,
    eval_integrated_kernel,
)
from .estimators import (
    BeranWeights,
    beran_weights,
    beran_survival,
    kaplan_meier,
    smoothed_beran_survival,
)
from .resampling import (
    ResamplingPlan,
    ResampleDiagnostics,
    StepCDF,
    SCHEME_BERAN,
    SCHEME_SMOOTHED,
    conditional_step_law,
    inverse_transform_sample,
    resample,
    substream,
)
from .bandwidth import (
    BandwidthSelection,
    default_covariate_box,
    default_time_box,
    pilot_r,
    pilot_s,
    select_bandwidth_1d,
    select_bandwidth_2d,
)
from .regions import (
    ConfidenceRegion,
    bootstrap_sigma,
    calibrate_lambda,
    clamp_and_plateau_fix,
    coverage_fraction,
    method2_radius,
    region_method1,
    region_method2,
    write_region_csv,
)
from .simulation import SimModel, generate_sample, make_model, true_survival
from .benchmark import (
    BenchConfig,
    BenchReport,
    mise_optimal_1d,
    region_metrics,
    relative_metrics,
    run_benchmark,
    scaling_study,
    winkler_scores,
    write_report,
)
from .dataio import DatasetSchema, LoadedDataset, filter_subpopulation, load_csv, save_csv
from . import errors

__version__ = "0.1.0"

__all__ = [
    "SurvivalSample",
    "TimeGrid",
    "SurvivalCurve",
    "integrate_on_grid",
    "KernelSpec",
    "DEFAULT_KERNEL",
    "eval_kernel",
    "eval_integrated_kernel",
    "BeranWeights",
    "beran_weights",
    "beran_survival",
    "kaplan_meier",
    "smoothed_beran_survival",
    "ResamplingPlan",
    "ResampleDiagnostics",
    "StepCDF",
    "SCHEME_BERAN",
    "SCHEME_SMOOTHED",
    "conditional_step_law",
    "inverse_transform_sample",
    "resample",
    "substream",
    "BandwidthSelection",
    "default_covariate_box",
    "default_time_box",
    "pilot_r",
    "pilot_s",
    "select_bandwidth_1d",
    "select_bandwidth_2d",
    "ConfidenceRegion",
    "bootstrap_sigma",
    "calibrate_lambda",
    "clamp_and_plateau_fix",
    "coverage_fraction",
    "method2_radius",
    "region_method1",
    "region_method2",
    "write_region_csv",
    "SimModel",
    "generate_sample",
    "make_model",
    "true_survival",
    "BenchConfig",
    "BenchReport",
    "mise_optimal_1d",
    "region_metrics",
    "relative_metrics",
    "run_benchmark",
    "scaling_study",
    "winkler_scores",
    "write_report",
    "DatasetSchema",
    "LoadedDataset",
    "filter_subpopulation",
    "load_csv",
    "save_csv",
    "errors",
]

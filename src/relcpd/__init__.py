"""Change-point detection for multivariate time series via direct
density-ratio estimation (uLSIF, RuLSIF, KLIEP)."""

from .embedding import SegmentPair, TimeSeries, WindowSet, build_windows, segment_pair
from .kernel import (
    DesignMatrices,
    KernelConfig,
    design_matrices,
    gaussian_kernel,
    median_distance,
)
from .estimators import (
    ESTIMATOR_KINDS,
    KLIEP,
    RULSIF,
    ULSIF,
    FitDiagnostics,
    RatioModel,
    kl_estimate,
    kliep_fit,
    pe_alpha_estimate,
    rulsif_fit,
    ulsif_fit,
)
from .model_selection import CvGrid, CvResult, cv_select
from .detector import (
    BACKWARD,
    FORWARD,
    SYMMETRIC,
    DetectorConfig,
    ScoreSeries,
    change_scores,
    minimum_length,
)
from .synthgen import (
    SynthSpec,
    gen_dataset1,
    gen_dataset2,
    gen_dataset3,
    gen_dataset4,
    generate,
)
from .evaluation import (
    AlarmList,
    RocCurve,
    find_peaks,
    match_and_count,
    roc_curve,
    summarize_runs,
)
from .bench import format_table, run_bench
from . import errors

__version__ = "0.1.0"

__all__ = [
    "TimeSeries", "WindowSet", "SegmentPair", "build_windows", "segment_pair",
    "KernelConfig", "DesignMatrices", "gaussian_kernel", "median_distance",
    "design_matrices",
    "RatioModel", "FitDiagnostics", "ulsif_fit", "rulsif_fit", "kliep_fit",
    "pe_alpha_estimate", "kl_estimate",
    "ULSIF", "RULSIF", "KLIEP", "ESTIMATOR_KINDS",
    "CvGrid", "CvResult", "cv_select",
    "DetectorConfig", "ScoreSeries", "change_scores", "minimum_length",
    "SYMMETRIC", "FORWARD", "BACKWARD",
    "SynthSpec", "generate", "gen_dataset1", "gen_dataset2", "gen_dataset3",
    "gen_dataset4",
    "AlarmList", "RocCurve", "find_peaks", "match_and_count", "roc_curve",
    "summarize_runs",
    "run_bench", "format_table",
    "errors",
]

"""Gaussian-process grade regression with uncertainty-aware referral decisions."""

from .data import (
    NormStats,
    apply_normalizer,
    fit_normalizer,
    load_feature_csv,
    load_model,
    save_model,
    synthesize_dataset,
    write_feature_csv,
)
from .diagnosis import (
    GRADE_THRESHOLD_DEFAULT,
    STD_THRESHOLD_DEFAULT,
    apply_uncertainty_flip,
    binarize,
)
from .errors import (
    GPGradeError,
    InputError,
    ModelFormatError,
    NumericalError,
    ParseError,
)
from .gp import (
    FitConfig,
    GPModel,
    build_model,
    fit,
    log_marginal_likelihood,
    predict,
)
from .kernel import (
    NOISE_VARIANCE_FLOOR,
    Hyperparams,
    kernel_matrix,
    pairwise_sq_dists,
)
from .metrics import (
    BoxStats,
    EvalReport,
    box_stats_table,
    confusion,
    evaluate,
    group_uncertainty_stats,
    roc_auc,
    sens_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BoxStats",
    "EvalReport",
    "FitConfig",
    "GPGradeError",
    "GPModel",
    "GRADE_THRESHOLD_DEFAULT",
    "Hyperparams",
    "InputError",
    "ModelFormatError",
    "NOISE_VARIANCE_FLOOR",
    "NormStats",
    "NumericalError",
    "ParseError",
    "STD_THRESHOLD_DEFAULT",
    "apply_normalizer",
    "apply_uncertainty_flip",
    "binarize",
    "box_stats_table",
    "build_model",
    "confusion",
    "evaluate",
    "fit",
    "fit_normalizer",
    "group_uncertainty_stats",
    "kernel_matrix",
    "load_feature_csv",
    "load_model",
    "log_marginal_likelihood",
    "pairwise_sq_dists",
    "predict",
    "roc_auc",
    "save_model",
    "sens_spec",
    "synthesize_dataset",
    "write_feature_csv",
]

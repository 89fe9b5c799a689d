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
from .errors import GPGradeError, InputError, ModelFormatError, NumericalError, ParseError
from .gp import GPModel, build_model, fit, predict
from .kernel import Hyperparams
from .metrics import BoxStats, EvalReport, box_stats_table, evaluate

__version__ = "0.1.0"

__all__ = [
    "BoxStats",
    "EvalReport",
    "GPGradeError",
    "GPModel",
    "GRADE_THRESHOLD_DEFAULT",
    "Hyperparams",
    "InputError",
    "ModelFormatError",
    "NormStats",
    "NumericalError",
    "ParseError",
    "STD_THRESHOLD_DEFAULT",
    "apply_normalizer",
    "apply_uncertainty_flip",
    "binarize",
    "box_stats_table",
    "build_model",
    "evaluate",
    "fit",
    "fit_normalizer",
    "load_feature_csv",
    "load_model",
    "predict",
    "save_model",
    "synthesize_dataset",
    "write_feature_csv",
]

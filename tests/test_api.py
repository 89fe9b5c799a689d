"""The public surface: a name joins or leaves ``gpgrade.__all__`` only on purpose."""

import gpgrade

PUBLIC_NAMES = [
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


def test_all_is_pinned():
    assert sorted(gpgrade.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in gpgrade.__all__:
        assert getattr(gpgrade, name, None) is not None, name

"""Map regression outputs to clinical referral decisions.

Two rules: binarize the continuous grade at a threshold (default 1.5),
then flip negatives whose posterior standard deviation is strictly above
a second threshold (default 0.84). Both work on whole batches of
predictions at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

GRADE_THRESHOLD_DEFAULT = 1.5
STD_THRESHOLD_DEFAULT = 0.84


def _check_threshold(name: str, value: float) -> None:
    # A NaN threshold compares false against every value, which would
    # silently switch its rule off.
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")


def binarize(mean, grade_threshold: float = GRADE_THRESHOLD_DEFAULT) -> np.ndarray:
    """Boolean referable mask: the posterior mean is >= the grade threshold."""
    _check_threshold("grade threshold", grade_threshold)
    return np.asarray(mean, dtype=np.float64) >= grade_threshold


def apply_uncertainty_flip(
    referable, std, std_threshold: float = STD_THRESHOLD_DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """Flip negatives whose std is strictly above the threshold to positive.

    Returns boolean ``(referable, flipped)`` arrays, where ``flipped``
    marks the rows this call turned positive. Positives pass through
    unchanged, so applying the rule to its own output changes nothing.
    """
    _check_threshold("std threshold", std_threshold)
    referable = np.asarray(referable, dtype=bool)
    std = np.asarray(std, dtype=np.float64)
    if referable.shape != std.shape:
        raise InputError(
            f"referable shape {referable.shape} does not match std shape {std.shape}"
        )
    if (std < 0).any():
        raise InputError("prediction std must be >= 0")
    flipped = ~referable & (std > std_threshold)
    return referable | flipped, flipped

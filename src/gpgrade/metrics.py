"""One scorer for a batch of referral decisions: ``evaluate``.

It counts the confusion groups (TP/FP/TN/FN), takes sensitivity and
specificity, the ROC-AUC of the posterior means (the Mann-Whitney pair count,
ties counting half, which equals trapezoidal ROC integration), and the
posterior-std quartiles of each group. Undefined ratios (an empty class) are
reported as explicit ``None`` markers, never as silent zeros.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .errors import InputError

# Quartile convention for the per-group uncertainty summaries: linear
# interpolation between closest order statistics (numpy's "linear"
# method). Recorded in report output.
QUARTILE_METHOD = "linear"

_GROUPS = ("TP", "FP", "TN", "FN")


def _fmt(value) -> str:
    """A report value as text; an undefined ratio (None) stays explicit."""
    return "undefined" if value is None else repr(value)


@dataclass(frozen=True)
class BoxStats:
    """Quartile summary of posterior standard deviations within one group."""

    count: int
    min: float | None = None
    q1: float | None = None
    median: float | None = None
    q3: float | None = None
    max: float | None = None


@dataclass(frozen=True)
class EvalReport:
    """Binary-screening evaluation: confusion counts, ratios, AUC, group stats."""

    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: float | None
    specificity: float | None
    auc: float | None
    group_stats: dict[str, BoxStats]

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict:
        """Every field (group stats as nested dicts), plus n and the quartile method."""
        return {"n": self.n, **asdict(self), "quartile_method": QUARTILE_METHOD}

    def to_text(self) -> str:
        """The scalar entries of to_dict, one ``key value`` line each; undefined stays explicit."""
        skip = ("group_stats", "quartile_method")
        return "".join(f"{k} {_fmt(v)}\n" for k, v in self.to_dict().items() if k not in skip)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve: the Mann-Whitney U over the positive-negative pairs, counted.

    A pair counts 1 when the positive scores higher and 1/2 when they tie, so
    the value equals trapezoidal integration of the ROC curve over all distinct
    thresholds. A NaN or infinite score raises InputError naming its row.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 1:
        raise InputError(f"labels must be 1-d, got shape {labels.shape}")
    scores = _finite_vector("score", scores, labels.size)
    negatives, positives = np.sort(scores[~labels]), scores[labels]
    if positives.size == 0 or negatives.size == 0:
        raise InputError("AUC needs at least one positive and one negative sample")
    # Per positive, the negatives below it plus those at or below it: 2U, counted exactly.
    twice_u = sum(np.searchsorted(negatives, positives, side).sum() for side in ("left", "right"))
    return float(twice_u) / 2.0 / (positives.size * negatives.size)


def _finite_vector(name: str, values, n: int) -> np.ndarray:
    """values as n floats; InputError on another shape or naming a NaN or infinite entry."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        raise InputError(f"{name} shape {values.shape} does not match the {n} labels")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputError(f"{name} at row {bad[0]} is not finite: {float(values[bad[0]])!r}")
    return values


def _box_stats(values: np.ndarray) -> BoxStats:
    """Quartile summary of one group's posterior stds; count 0 for an empty group."""
    if values.size == 0:
        return BoxStats(count=0)
    q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0], method=QUARTILE_METHOD)
    return BoxStats(int(values.size), *(float(v) for v in q))


def box_stats_table(group_stats: dict[str, BoxStats]) -> str:
    """Plain-text TSV table of the group quartiles, for external plotting."""
    lines = ["\t".join(["group", *(field.name for field in fields(BoxStats))])]
    for group in _GROUPS:
        cells = ("" if v is None else repr(v) for v in astuple(group_stats[group]))
        lines.append("\t".join([group, *cells]))
    return "\n".join(lines) + "\n"


def evaluate(referable, labels, mean, std) -> EvalReport:
    """Score a decision batch against true referable labels, in one pass.

    Referable is the positive class. Sensitivity (specificity) is None when
    no label is positive (negative). The AUC is taken over the posterior
    means (the continuous grade) and is None unless both classes are
    present. A NaN or infinite mean or std raises InputError naming its row.
    """
    referable = np.asarray(referable, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if referable.ndim != 1 or referable.shape != labels.shape:
        raise InputError(
            f"referable {referable.shape} and labels {labels.shape} must be "
            "1-d and equally long"
        )
    if referable.size == 0:
        raise InputError("cannot evaluate an empty batch")
    mean = _finite_vector("mean", mean, labels.size)
    std = _finite_vector("std", std, labels.size)
    masks = (referable & labels, referable & ~labels, ~referable & ~labels, ~referable & labels)
    tp, fp, tn, fn = (int(np.count_nonzero(m)) for m in masks)
    return EvalReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        sensitivity=tp / (tp + fn) if tp + fn else None,
        specificity=tn / (tn + fp) if tn + fp else None,
        auc=roc_auc(mean, labels) if tp + fn and tn + fp else None,
        group_stats={g: _box_stats(std[m]) for g, m in zip(_GROUPS, masks)},
    )

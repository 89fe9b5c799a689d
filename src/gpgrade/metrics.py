"""Confusion analysis, sensitivity/specificity, ROC-AUC, and grouped uncertainty stats.

AUC is computed from the continuous posterior means via the rank
statistic with midrank tie handling, which equals trapezoidal ROC
integration. Undefined ratios (an empty class) are reported as explicit
``None`` markers, never as silent zeros.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError

# Quartile convention for the per-group uncertainty summaries: linear
# interpolation between closest order statistics (numpy's "linear"
# method). Recorded in report output.
QUARTILE_METHOD = "linear"

_GROUPS = ("TP", "FP", "TN", "FN")


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
        """Key-value report, one metric per line; undefined stays explicit."""

        def fmt(value):
            return "undefined" if value is None else repr(value)

        lines = [
            f"n {self.n}",
            f"tp {self.tp}",
            f"fp {self.fp}",
            f"tn {self.tn}",
            f"fn {self.fn}",
            f"sensitivity {fmt(self.sensitivity)}",
            f"specificity {fmt(self.specificity)}",
            f"auc {fmt(self.auc)}",
        ]
        return "\n".join(lines) + "\n"


def _group_masks(referable, labels) -> dict[str, np.ndarray]:
    """One boolean mask per confusion group, with referable as the positive class."""
    referable = np.asarray(referable, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if referable.ndim != 1 or referable.shape != labels.shape:
        raise InputError(
            f"referable {referable.shape} and labels {labels.shape} must be "
            "1-d and equally long"
        )
    if referable.size == 0:
        raise InputError("cannot evaluate an empty batch")
    return {
        "TP": referable & labels,
        "FP": referable & ~labels,
        "TN": ~referable & ~labels,
        "FN": ~referable & labels,
    }


def confusion(referable, labels) -> tuple[int, int, int, int]:
    """Counts (tp, fp, tn, fn) of a referable mask against true labels."""
    masks = _group_masks(referable, labels)
    tp, fp, tn, fn = (int(np.count_nonzero(masks[g])) for g in _GROUPS)
    return tp, fp, tn, fn


def sens_spec(
    tp: int, fp: int, tn: int, fn: int
) -> tuple[float | None, float | None]:
    """Sensitivity and specificity; None when the defining class is empty."""
    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else None
    specificity = tn / (tn + fp) if (tn + fp) > 0 else None
    return sensitivity, specificity


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the midrank U statistic.

    Ties between scores count half, so the value equals trapezoidal
    integration of the ROC curve over all distinct thresholds. A NaN or
    infinite score raises InputError naming its row.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 1:
        raise InputError(f"labels must be 1-d, got shape {labels.shape}")
    scores = _finite_vector("score", scores, labels.size)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("AUC needs at least one positive and one negative sample")
    # Midranks: each run of equal sorted scores shares the mean of its
    # 1-based positions, first + (count + 1) / 2. They are half-integers, so
    # the rank sum below is exact.
    order = np.argsort(scores, kind="mergesort")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _finite_vector(name: str, values, n: int) -> np.ndarray:
    """values as n floats; InputError on another shape or naming a NaN or infinite entry."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        raise InputError(f"{name} shape {values.shape} does not match the {n} labels")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputError(f"{name} at row {bad[0]} is not finite: {float(values[bad[0]])!r}")
    return values


def group_uncertainty_stats(referable, labels, std) -> dict[str, BoxStats]:
    """Quartiles of posterior std per confusion group (TP/FP/TN/FN); std must be finite."""
    masks = _group_masks(referable, labels)
    std = _finite_vector("std", std, masks["TP"].size)
    stats = {}
    for group in _GROUPS:
        values = std[masks[group]]
        if values.size == 0:
            stats[group] = BoxStats(count=0)
            continue
        q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0], method=QUARTILE_METHOD)
        stats[group] = BoxStats(
            count=int(values.size),
            min=float(q[0]),
            q1=float(q[1]),
            median=float(q[2]),
            q3=float(q[3]),
            max=float(q[4]),
        )
    return stats


def box_stats_table(group_stats: dict[str, BoxStats]) -> str:
    """Plain-text TSV table of the group quartiles, for external plotting."""
    lines = ["group\tcount\tmin\tq1\tmedian\tq3\tmax"]
    for group in _GROUPS:
        stats = group_stats.get(group, BoxStats(count=0))
        cells = [group, str(stats.count)] + [
            "" if v is None else repr(v)
            for v in (stats.min, stats.q1, stats.median, stats.q3, stats.max)
        ]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def evaluate(referable, labels, mean, std) -> EvalReport:
    """Full evaluation of a decision batch against true referable labels.

    The AUC is taken over the posterior means (the continuous grade) and
    is None when only one class is present. A NaN or infinite mean or std
    raises InputError naming its row.
    """
    tp, fp, tn, fn = confusion(referable, labels)
    mean = _finite_vector("mean", mean, tp + fp + tn + fn)
    sensitivity, specificity = sens_spec(tp, fp, tn, fn)
    # The AUC needs at least one sample of each class.
    auc = roc_auc(mean, labels) if tp + fn and fp + tn else None
    return EvalReport(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        sensitivity=sensitivity,
        specificity=specificity,
        auc=auc,
        group_stats=group_uncertainty_stats(referable, labels, std),
    )

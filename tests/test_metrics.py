"""Metric tests: confusion counts, ratios, rank AUC, grouped uncertainty."""

import json

import numpy as np
import pytest

from gpgrade import (
    BoxStats,
    InputError,
    binarize,
    box_stats_table,
    confusion,
    evaluate,
    sens_spec,
)
from gpgrade.metrics import group_uncertainty_stats, roc_auc


def brute_force_auc(scores, labels):
    """All positive-negative pairs: wins count 1, ties count half."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_classifier(self):
        referable = np.array([True] * 3 + [False] * 2)
        labels = np.array([True] * 3 + [False] * 2)
        assert confusion(referable, labels) == (3, 0, 2, 0)

    def test_inverted_classifier(self):
        referable = np.array([False] * 3 + [True] * 2)
        labels = np.array([True] * 3 + [False] * 2)
        assert confusion(referable, labels) == (0, 2, 0, 3)

    def test_matches_brute_force_tally_at_screening_scale(self):
        """Label mix shaped like a large screening test partition."""
        labels = [False] * (7407 + 689) + [True] * 694
        rng = np.random.default_rng(40)
        referable = [label ^ bool(rng.random() < 0.15) for label in labels]
        tp, fp, tn, fn = confusion(np.array(referable), np.array(labels))
        assert all(type(count) is int for count in (tp, fp, tn, fn))
        expect_tp = sum(1 for r, l in zip(referable, labels) if r and l)
        expect_fp = sum(1 for r, l in zip(referable, labels) if r and not l)
        expect_tn = sum(1 for r, l in zip(referable, labels) if not r and not l)
        expect_fn = sum(1 for r, l in zip(referable, labels) if not r and l)
        assert (tp, fp, tn, fn) == (expect_tp, expect_fp, expect_tn, expect_fn)
        assert tp + fp + tn + fn == len(labels)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(41)
        referable = rng.integers(0, 2, size=50).astype(bool)
        labels = rng.integers(0, 2, size=50).astype(bool)
        base = confusion(referable, labels)
        order = rng.permutation(50)
        shuffled = confusion(referable[order], labels[order])
        assert base == shuffled

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            confusion(np.array([True]), np.array([True, False]))

    def test_empty(self):
        with pytest.raises(InputError):
            confusion(np.array([], dtype=bool), np.array([], dtype=bool))


class TestSensSpec:
    def test_direct_ratios(self):
        sens, spec = sens_spec(90, 10, 80, 20)
        assert sens == pytest.approx(90 / 110)
        assert spec == pytest.approx(80 / 90)

    def test_perfect_counts(self):
        assert sens_spec(7, 0, 9, 0) == (1.0, 1.0)

    def test_no_positives_is_undefined(self):
        sens, spec = sens_spec(0, 0, 5, 0)
        assert sens is None
        assert spec == 1.0

    def test_no_negatives_is_undefined(self):
        sens, spec = sens_spec(5, 0, 0, 0)
        assert sens == 1.0
        assert spec is None


class TestRocAuc:
    def test_perfect_separation(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [False, False, True, True]
        assert roc_auc(scores, labels) == 1.0

    def test_all_tied_scores(self):
        assert roc_auc([0.5] * 6, [True, False] * 3) == 0.5

    def test_small_example_with_crossing(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            roc_auc([0.1, 0.2], [True, True])

    @pytest.mark.parametrize(
        "scores, labels, match",
        [
            ([0.1, 0.2, 0.3], [True, False], "score shape"),
            ([0.1], [True, False], "score shape"),
            ([[0.1, 0.2]], [True, False], "score shape"),
            ([0.1, 0.2], [[True, False]], "labels must be 1-d"),
        ],
        ids=["more scores", "fewer scores", "2-d scores", "2-d labels"],
    )
    def test_scores_and_labels_of_other_shapes_rejected(self, scores, labels, match):
        with pytest.raises(InputError, match=match):
            roc_auc(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_its_row(self, bad):
        with pytest.raises(InputError, match=f"score at row 2 is not finite: {bad!r}"):
            roc_auc([0.1, 0.2, bad, bad], [True, False, True, False])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(42)
        scores = rng.normal(size=80)
        labels = rng.integers(0, 2, size=80).astype(bool)
        labels[0], labels[1] = True, False
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_negated_scores_complement(self):
        rng = np.random.default_rng(43)
        scores = rng.permutation(100).astype(float)  # distinct, no ties
        labels = rng.integers(0, 2, size=100).astype(bool)
        labels[0], labels[1] = True, False
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(1.0)

    def test_equals_pairwise_enumeration_with_ties(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            n = int(rng.integers(4, 120))
            labels = rng.integers(0, 2, size=n).astype(bool)
            labels[0], labels[1] = True, False
            scores = np.round(rng.normal(size=n), 1)
            assert roc_auc(scores, labels) == brute_force_auc(scores, labels)


class TestGroupUncertaintyStats:
    def test_singleton_groups(self):
        referable = np.array([True, True, False, False])
        std = np.array([0.11, 0.22, 0.33, 0.44])
        labels = np.array([True, False, False, True])
        stats = group_uncertainty_stats(referable, labels, std)
        for group, std in (("TP", 0.11), ("FP", 0.22), ("TN", 0.33), ("FN", 0.44)):
            s = stats[group]
            assert s.count == 1
            assert s.min == s.q1 == s.median == s.q3 == s.max == std

    def test_hand_quartiles(self):
        negatives = np.zeros(5, dtype=bool)
        std = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        s = group_uncertainty_stats(negatives, negatives, std)["TN"]
        assert (s.min, s.q1, s.median, s.q3, s.max) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_empty_group_reports_count_zero(self):
        stats = group_uncertainty_stats(np.array([True]), np.array([True]), np.array([0.5]))
        assert stats["FP"] == BoxStats(count=0)
        assert stats["FP"].median is None

    def test_quartile_ordering(self):
        rng = np.random.default_rng(45)
        negatives = np.zeros(33, dtype=bool)
        s = group_uncertainty_stats(negatives, negatives, rng.uniform(0, 1, size=33))["TN"]
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max

    def test_std_length_mismatch(self):
        with pytest.raises(InputError):
            group_uncertainty_stats(np.array([True]), np.array([True]), np.array([0.1, 0.2]))

    def test_noisy_batch_ranks_misses_above_correct_rejections(self):
        """Predictions whose error grows with their own std put high-std
        samples into the miss bucket, so the FN median ends up above TN."""
        rng = np.random.default_rng(13)
        grades, means, stds = [], [], []
        for _ in range(400):
            grade = int(rng.integers(0, 5))
            std = float(rng.uniform(0.1, 1.2))
            grades.append(grade)
            stds.append(std)
            means.append(grade + std * float(rng.normal()))
        labels = np.array(grades) >= 2
        stats = group_uncertainty_stats(binarize(means), labels, np.array(stds))
        assert stats["FN"].count > 0
        assert stats["FN"].median > stats["TN"].median


class TestBoxStatsTable:
    def test_tsv_layout(self):
        negatives = np.zeros(5, dtype=bool)
        std = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        table = box_stats_table(group_uncertainty_stats(negatives, negatives, std))
        lines = table.strip().split("\n")
        assert lines[0] == "group\tcount\tmin\tq1\tmedian\tq3\tmax"
        assert len(lines) == 5
        tn_row = [l for l in lines if l.startswith("TN")][0]
        assert tn_row.split("\t") == ["TN", "5", "1.0", "2.0", "3.0", "4.0", "5.0"]
        tp_row = [l for l in lines if l.startswith("TP")][0]
        assert tp_row.split("\t") == ["TP", "0", "", "", "", "", ""]


class TestEvaluate:
    def test_full_report(self):
        referable = np.array([True, True, False, False, True])
        std = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        mean = np.array([3.0, 2.5, 1.0, 0.5, 2.0])
        labels = np.array([True, True, False, False, False])
        report = evaluate(referable, labels, mean, std)
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 2, 0)
        assert report.n == 5
        assert report.sensitivity == 1.0
        assert report.specificity == pytest.approx(2 / 3)
        assert report.auc == brute_force_auc(mean, labels)

    def test_auc_defaults_to_means(self):
        referable = np.array([True, False, False, True])
        mean = np.array([2.0, 1.0, 0.5, 3.0])
        labels = np.array([True, False, True, False])
        report = evaluate(referable, labels, mean, np.full(4, 0.2))
        assert report.auc == roc_auc([2.0, 1.0, 0.5, 3.0], labels)

    def test_single_class_auc_is_none(self):
        report = evaluate_batch([True, False], [True, True])
        assert report.auc is None
        assert report.specificity is None

    def test_mean_length_mismatch(self):
        with pytest.raises(InputError):
            evaluate(
                np.array([True, False]), np.array([True, False]), np.array([3.0]), np.full(2, 0.2)
            )

    @pytest.mark.parametrize("which", ["mean", "std"])
    def test_non_finite_mean_or_std_names_its_row(self, which):
        values = {"mean": np.array([3.0, 1.0, 2.0]), "std": np.full(3, 0.2)}
        values[which][1] = np.nan
        with pytest.raises(InputError, match=f"{which} at row 1 is not finite"):
            evaluate(
                np.array([True, False, True]), np.array([True, False, False]), **values
            )

    def test_to_dict_round_trips_through_json(self):
        report = evaluate_batch([True, False], [True, False])
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["tp"] == 1
        assert doc["tn"] == 1
        assert doc["quartile_method"] == "linear"
        assert set(doc["group_stats"]) == {"TP", "FP", "TN", "FN"}

    def test_to_text_marks_undefined(self):
        text = evaluate_batch([True, False], [True, True]).to_text()
        assert "sensitivity 0.5" in text
        assert "specificity undefined" in text
        assert "auc undefined" in text


def evaluate_batch(referable, labels):
    """evaluate() with mean 3.0 per positive decision, 0.5 per negative, std 0.2."""
    referable = np.array(referable)
    mean = np.where(referable, 3.0, 0.5)
    return evaluate(referable, np.array(labels), mean, np.full(referable.size, 0.2))

"""Decision-rule tests: thresholding and uncertainty flips on arrays."""

import numpy as np
import pytest

from gpgrade import InputError, apply_uncertainty_flip, binarize


class TestBinarize:
    def test_boundary_mean_is_positive(self):
        referable = binarize(np.array([1.5]))
        assert referable.dtype == bool
        assert referable.tolist() == [True]
        _, flipped = apply_uncertainty_flip(referable, np.array([0.2]))
        assert flipped.tolist() == [False]

    def test_just_below_boundary_is_negative(self):
        assert binarize(np.array([1.49])).tolist() == [False]

    def test_well_above_boundary(self):
        assert binarize(np.array([3.7])).tolist() == [True]

    def test_custom_threshold(self):
        assert binarize(np.array([2.4]), grade_threshold=2.5).tolist() == [False]
        assert binarize(np.array([2.5]), grade_threshold=2.5).tolist() == [True]

    def test_negative_std_rejected(self):
        with pytest.raises(InputError, match="std at row 0 must be >= 0, got -0.1"):
            apply_uncertainty_flip(binarize(np.array([1.0])), np.array([-0.1]))

    def test_nan_mean_rejected_naming_its_row(self):
        """NaN compares false, so it would silently decide "negative"."""
        with pytest.raises(InputError, match="prediction mean at row 0 is NaN"):
            binarize(np.array([np.nan, 2.0]))

    def test_raising_threshold_never_creates_positives(self):
        mean = np.array([1.2])
        low = binarize(mean, grade_threshold=1.0)
        high = binarize(mean, grade_threshold=2.0)
        assert low.tolist() == [True]
        assert high.tolist() == [False]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(InputError, match="grade threshold must be finite"):
            binarize(np.array([1.0]), grade_threshold=value)


class TestUncertaintyFlip:
    def test_uncertain_negative_flips(self):
        base = binarize(np.array([1.0]))
        referable, flipped = apply_uncertainty_flip(base, np.array([0.90]))
        assert referable.tolist() == [True]
        assert flipped.tolist() == [True]
        assert base.tolist() == [False]

    def test_boundary_std_does_not_flip(self):
        base = binarize(np.array([1.0]))
        referable, flipped = apply_uncertainty_flip(base, np.array([0.84]))
        np.testing.assert_array_equal(referable, base)
        assert not flipped.any()

    def test_just_above_boundary_flips(self):
        base = binarize(np.array([1.0]))
        _, flipped = apply_uncertainty_flip(base, np.array([0.8401]))
        assert flipped.tolist() == [True]

    def test_positive_untouched(self):
        base = binarize(np.array([2.0]))
        referable, flipped = apply_uncertainty_flip(base, np.array([2.0]))
        np.testing.assert_array_equal(referable, base)
        assert flipped.tolist() == [False]

    def test_idempotent(self):
        mean = np.array([1.0, 1.0, 2.0, 1.5])
        std = np.array([0.9, 0.5, 0.9, 0.9])
        once, _ = apply_uncertainty_flip(binarize(mean), std)
        twice, flipped_again = apply_uncertainty_flip(once, std)
        np.testing.assert_array_equal(twice, once)
        assert not flipped_again.any()

    def test_custom_threshold(self):
        base = binarize(np.array([1.0]))
        std = np.array([0.6])
        assert apply_uncertainty_flip(base, std, std_threshold=0.5)[1].tolist() == [True]
        assert apply_uncertainty_flip(base, std, std_threshold=0.7)[1].tolist() == [False]

    def test_flip_only_adds_positives(self):
        rng = np.random.default_rng(30)
        mean = rng.uniform(0, 4, size=200)
        std = rng.uniform(0, 2, size=200)
        before = binarize(mean)
        after, _ = apply_uncertainty_flip(before, std)
        assert after.sum() >= before.sum()
        assert after[before].all()

    def test_flip_invariants(self):
        rng = np.random.default_rng(31)
        mean = np.append(rng.uniform(0, 4, size=200), 1.2)
        std = np.append(rng.uniform(0, 2, size=200), 1.1)
        referable, flipped = apply_uncertainty_flip(binarize(mean), std)
        assert flipped[-1]
        assert referable[flipped].all()
        assert (mean[flipped] < 1.5).all()
        assert (std[flipped] > 0.84).all()

    @pytest.mark.parametrize("referable", [False, True])
    def test_nan_std_rejected_naming_its_row(self, referable):
        """NaN > threshold is False, so a negative would silently stay unflipped."""
        with pytest.raises(InputError, match="prediction std at row 1 must be >= 0, got nan"):
            apply_uncertainty_flip(np.array([True, referable]), np.array([0.1, np.nan]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            apply_uncertainty_flip(np.array([True, False]), np.array([0.1]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(InputError, match="std threshold must be finite"):
            apply_uncertainty_flip(np.array([False]), np.array([0.9]), value)

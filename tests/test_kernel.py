"""Hyperparameter, pairwise-distance and gram-assembly tests."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.linalg import blas

from gpgrade import Hyperparams, InputError
from gpgrade import kernel as kernel_module
from gpgrade.kernel import (
    NOISE_VARIANCE_FLOOR,
    kernel_matrix,
    pairwise_sq_dists,
    rbf_from_sq_dists,
    row_sq_norms,
)


def rbf_eval(x, y, hp: Hyperparams) -> float:
    """Scalar reference for k(x, y), one pair of feature vectors at a time."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise InputError("rbf_eval expects 1-d feature vectors")
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    sq_dist = float(np.sum((x - y) ** 2))
    return hp.signal_variance * math.exp(-0.5 * sq_dist / hp.length_scale**2)


def hp_of(length_scale=1.0, signal_variance=1.0, noise_variance=1.0):
    return Hyperparams(
        math.log(length_scale), math.log(signal_variance), math.log(noise_variance)
    )


class TestHyperparams:
    def test_log_roundtrip(self):
        hp = Hyperparams(0.3, -1.2, -5.0)
        again = Hyperparams(*np.array(astuple(hp)))
        assert again == hp

    def test_exponentiated_values(self):
        hp = hp_of(2.0, 3.0, 0.5)
        assert hp.length_scale == pytest.approx(2.0)
        assert hp.signal_variance == pytest.approx(3.0)
        assert hp.noise_variance == pytest.approx(0.5)

    def test_noise_floor(self):
        hp = Hyperparams(0.0, 0.0, math.log(1e-12))
        assert hp.noise_variance == NOISE_VARIANCE_FLOOR

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Hyperparams(float("nan"), 0.0, 0.0)
        with pytest.raises(InputError):
            Hyperparams(0.0, float("inf"), 0.0)

    @pytest.mark.parametrize(
        "logs, name",
        [
            ((400.0, 0.0, 0.0), "log_length_scale"),
            ((1000.0, 0.0, 0.0), "log_length_scale"),
            ((-400.0, 0.0, 0.0), "log_length_scale"),
            ((0.0, 1000.0, 0.0), "log_signal_variance"),
            ((0.0, 0.0, 1000.0), "log_noise_variance"),
        ],
        ids=["l-squared-overflows", "l-overflows", "l-squared-is-0", "s2-overflows", "noise-overflows"],
    )
    def test_rejects_values_the_kernel_cannot_use(self, logs, name):
        """l**2 that overflows or is 0, or a variance that overflows."""
        with pytest.raises(InputError, match=name):
            Hyperparams(*logs)

    @pytest.mark.parametrize("log_l", [354.0, -354.0])
    def test_accepts_extremes_that_stay_representable(self, log_l):
        hp = Hyperparams(log_l, 709.0, -1000.0)
        assert 0.0 < hp.length_scale**2 < math.inf
        assert hp.signal_variance < math.inf
        assert hp.noise_variance == NOISE_VARIANCE_FLOOR
        assert Hyperparams(log_l, -1000.0, 709.0).signal_variance == 0.0


class TestRbfEval:
    def test_zero_distance_is_signal_variance(self):
        x = np.array([1.0, -2.0, 0.5])
        assert rbf_eval(x, x, hp_of()) == 1.0
        assert rbf_eval(x, x, hp_of(signal_variance=3.0)) == pytest.approx(3.0)

    def test_unit_hyperparams_at_distance_two(self):
        value = rbf_eval(np.array([0.0]), np.array([2.0]), hp_of())
        assert value == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_scaled_hyperparams(self):
        value = rbf_eval(
            np.array([0.0]), np.array([2.0]), hp_of(length_scale=2.0, signal_variance=3.0)
        )
        assert value == pytest.approx(3.0 * math.exp(-0.5), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            rbf_eval(np.array([0.0, 1.0]), np.array([0.0]), hp_of())

    def test_bounded_by_signal_variance(self):
        rng = np.random.default_rng(0)
        hp = hp_of(signal_variance=2.5)
        for _ in range(50):
            v = rbf_eval(rng.normal(size=4), rng.normal(size=4), hp)
            assert 0.0 < v <= 2.5


class TestPairwiseSqDists:
    def test_matches_direct_loop(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        S = pairwise_sq_dists(A, B)
        for i in range(5):
            for j in range(4):
                expect = float(np.sum((A[i] - B[j]) ** 2))
                np.testing.assert_allclose(S[i, j], expect, rtol=1e-12, atol=1e-12)
        # Shapes where the BLAS transpose flags matter: one-row queries or
        # training sets, a single feature, and m, n and D all different.
        for m, n, D in [(1, 7, 3), (1, 2000, 64), (6, 1, 2), (4, 6, 1), (3, 9, 5), (1, 1, 1)]:
            A = rng.normal(size=(m, D))
            B = rng.normal(size=(n, D))
            S = pairwise_sq_dists(A, B)
            assert S.shape == (m, n)
            expect = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
            np.testing.assert_allclose(S, expect, rtol=1e-12, atol=1e-12)

    def test_self_distances_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(30, 6))
        S = pairwise_sq_dists(A)
        assert np.array_equal(S, S.T)
        assert np.array_equal(np.diag(S), np.zeros(30))
        # Odd sizes, where only one triangle of the product is filled.
        for n in (1, 3, 31, 257):
            for D in (1, 5, 64):
                A = rng.normal(size=(n, D))
                S = pairwise_sq_dists(A)
                assert np.array_equal(S, S.T)
                assert np.array_equal(np.diag(S), np.zeros(n))
                expect = ((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
                np.testing.assert_allclose(S, expect, rtol=1e-12, atol=1e-12)

    def test_rejects_rows_whose_squared_norm_overflows(self):
        A = np.zeros((3, 2))
        A[1, 0] = 1e200
        for B in (None, np.zeros((2, 2))):
            with pytest.raises(InputError, match="^A row 1 "):
                pairwise_sq_dists(A, B)
        with pytest.raises(InputError, match="^B row 1 "):
            pairwise_sq_dists(np.zeros((2, 2)), A)

    def test_large_finite_norms_do_not_overflow_the_expansion(self):
        """Squared norms above half the float range: sums of two would overflow.

        Identical rows are 0 apart, opposite rows are farther apart than
        the largest float and capped at it, and every other distance keeps
        its value.
        """
        big = 1.3e154  # squared: 1.69e308, within the float range
        A = np.array([[big, 0.0], [big, 0.0], [-big, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = pairwise_sq_dists(A)
            cross = pairwise_sq_dists(A, A.copy())
        fmax = np.finfo(np.float64).max
        assert S[0, 1] == 0.0 and S[0, 2] == fmax and S[3, 3] == 0.0
        assert S[0, 3] == pytest.approx(big * big, rel=1e-15)
        np.testing.assert_array_equal(cross[~np.eye(4, dtype=bool)], S[~np.eye(4, dtype=bool)])

    def test_never_negative(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(20, 4)) * 1e-8
        S = pairwise_sq_dists(A, A + 1e-12)
        assert (S >= 0.0).all()


def out_of_place_sq_dists(A, B=None):
    """The distances by the out-of-place formulas: quarter-scale norm sums plus
    the BLAS product, clip, x4, then upper + upper^T on the self path."""
    quarter = np.einsum("ij,ij->i", A, A) / 4
    cap = np.finfo(np.float64).max / 4
    if B is None:
        S = quarter[:, None] + quarter[None, :] + blas.dsyrk(-0.5, A.T, trans=1, lower=1).T
        upper = np.triu(np.clip(S, 0.0, cap), 1) * 4.0
        return upper + upper.T
    b_quarter = np.einsum("ij,ij->i", B, B) / 4
    S = quarter[:, None] + b_quarter[None, :] + blas.dgemm(-0.5, B.T, A.T, trans_a=1).T
    return np.clip(S, 0.0, cap) * 4.0


MIRROR_SIZES = [
    kernel_module._MIRROR_BLOCK - 1,
    kernel_module._MIRROR_BLOCK,
    kernel_module._MIRROR_BLOCK + 1,
    2 * kernel_module._MIRROR_BLOCK + 1,
]


class TestAssemblyBits:
    """Distances and kernel blocks are built in place in one buffer, and must
    keep the out-of-place formulas' bits: training archives depend on them.

    D = 700 rules out accumulating the product into the norm sum inside
    dgemm (beta = 1), which agreed bit for bit up to D = 64 but not there.
    """

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    @pytest.mark.parametrize("D", [1, 3, 64, 700])
    def test_distances_and_kernels_keep_their_bits(self, D, n):
        rng = np.random.default_rng(1000 * D + n)
        A = rng.normal(size=(n, D))
        B = rng.normal(size=(n + 5, D))
        S = pairwise_sq_dists(A)
        assert S.tobytes() == out_of_place_sq_dists(A).tobytes()
        assert np.array_equal(S, S.T)
        assert not np.diag(S).any()
        assert pairwise_sq_dists(A, B).tobytes() == out_of_place_sq_dists(A, B).tobytes()
        for s2 in (1.0, 1.7):
            hp = hp_of(length_scale=math.sqrt(D), signal_variance=s2)
            l = hp.length_scale
            for Bk, dists in ((A, out_of_place_sq_dists(A)), (B, out_of_place_sq_dists(A, B))):
                K = kernel_matrix(A, Bk, hp)
                assert K.tobytes() == (hp.signal_variance * np.exp(-0.5 * dists / l**2)).tobytes()
            K = kernel_matrix(A, A, hp)
            assert np.array_equal(K, K.T)
            assert np.array_equal(np.diag(K), np.full(n, hp.signal_variance))


class TestRowSqNorms:
    """The one rule for feature rows: a nonempty matrix, every squared norm finite."""

    def test_returns_a_c_ordered_float64_matrix_and_its_norms(self):
        A = np.asfortranarray(np.arange(6, dtype=np.int64).reshape(3, 2))
        B, sq_norms = row_sq_norms(A, "A")
        assert B.dtype == np.float64 and B.flags.c_contiguous
        np.testing.assert_array_equal(B, A)
        np.testing.assert_array_equal(sq_norms, [1.0, 13.0, 41.0])

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (0, 3), (3, 0)])
    def test_rejects_what_is_not_a_nonempty_matrix(self, shape):
        with pytest.raises(InputError, match="rows must form a nonempty 2-d array"):
            row_sq_norms(np.zeros(shape), "A")

    @pytest.mark.parametrize("value", [1e155, -1e200, 1.7e308, np.inf, np.nan])
    def test_names_the_first_row_whose_squared_norm_overflows(self, value):
        A = np.ones((4, 3))
        A[2, 1] = A[3, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^query row 2 is non-finite or too large"):
                row_sq_norms(A, "query")

    def test_squared_norm_at_the_float_limit_is_accepted(self):
        _, sq_norms = row_sq_norms([[1.3e154, 0.0], [0.0, 1.3e154]], "A")
        assert np.isfinite(sq_norms).all()


class TestRbfFromSqDists:
    def test_bitwise_equal_to_out_of_place_formula(self):
        """Archive refactorization and predictions depend on these exact bits."""
        rng = np.random.default_rng(7)
        S = rng.uniform(0.0, 50.0, size=(64, 48))
        S[0, :5] = 0.0
        for hp in (hp_of(1.7, 0.6), hp_of(0.3, 2.5), hp_of(13.8, 1.48)):
            l, s2 = hp.length_scale, hp.signal_variance
            expected = s2 * np.exp(-0.5 * S / l**2)
            K = rbf_from_sq_dists(S, hp)
            assert K.tobytes() == expected.tobytes()
            assert not np.shares_memory(K, S)
            into = S.copy()
            assert rbf_from_sq_dists(into, hp, out=into) is into
            assert into.tobytes() == expected.tobytes()

    def test_distance_over_a_tiny_length_scale_gives_zero(self):
        S = np.array([[0.0, 1e306], [np.inf, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = rbf_from_sq_dists(S, hp_of(length_scale=1e-3, signal_variance=2.0))
        assert K[0, 0] == 2.0 and K[0, 1] == 0.0 and K[1, 0] == 0.0 and K[1, 1] == 0.0


class TestKernelMatrix:
    def test_single_row(self):
        A = np.array([[1.0, 2.0]])
        K = kernel_matrix(A, A, hp_of(signal_variance=2.0))
        np.testing.assert_allclose(K, [[2.0]])

    def test_identical_rows(self):
        A = np.array([[1.0, 2.0], [1.0, 2.0]])
        K = kernel_matrix(A, A, hp_of(signal_variance=3.0))
        np.testing.assert_allclose(K, np.full((2, 2), 3.0))

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(42)
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        hp = hp_of(length_scale=1.3, signal_variance=0.7)
        K = kernel_matrix(A, B, hp)
        for i in range(5):
            for j in range(4):
                np.testing.assert_allclose(
                    K[i, j], rbf_eval(A[i], B[j], hp), rtol=1e-12, atol=1e-12
                )

    def test_exact_symmetry_and_diagonal(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(25, 5))
        hp = hp_of(signal_variance=1.7)
        K = kernel_matrix(A, A, hp)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.diag(K), np.full(25, hp.signal_variance))

    def test_entries_bounded(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(15, 3))
        hp = hp_of(signal_variance=2.0)
        K = kernel_matrix(A, A, hp)
        assert (K > 0.0).all()
        assert (K <= 2.0).all()

    def test_positive_semidefinite_with_tiny_jitter(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(12, 4))
        hp = hp_of(signal_variance=1.5)
        K = kernel_matrix(A, A, hp) + 1e-10 * hp.signal_variance * np.eye(12)
        np.linalg.cholesky(K)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_matrix(np.zeros((2, 3)), np.zeros((2, 4)), hp_of())


"""Regression-engine tests: factorization, evidence, fitting, prediction."""

import copy
import math
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas, cho_solve, solve_triangular

from gpgrade import (
    Hyperparams,
    InputError,
    NumericalError,
    build_model,
    fit,
    predict,
)
from gpgrade import gp as gp_module
from gpgrade import kernel as kernel_module
from gpgrade.data import (
    apply_normalizer,
    fit_normalizer,
    load_model,
    save_model,
    synthesize_dataset,
)
from gpgrade.gp import cholesky_with_jitter, log_marginal_likelihood
from gpgrade.kernel import NOISE_VARIANCE_FLOOR, kernel_matrix, pairwise_sq_dists


def huge_pages_always() -> bool:
    """Whether transparent huge pages back every anonymous mapping, touched or not."""
    path = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    return path.exists() and "[always]" in path.read_text()


def hp_of(length_scale=1.0, signal_variance=1.0, noise_variance=1.0):
    return Hyperparams(
        math.log(length_scale), math.log(signal_variance), math.log(noise_variance)
    )


def traced_peak(function, *args):
    """function(*args), and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return function(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sample_from_prior(hp, n, D, seed, x_scale=1.5):
    """Draw (X, y) with y an exact function sample plus observation noise."""
    rng = np.random.default_rng(seed)
    X = x_scale * rng.normal(size=(n, D))
    L, _ = cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)
    y = L @ rng.normal(size=n)
    return X, y


def log_array(hp):
    """The three log fields of hp, in the optimizer's parameter order."""
    return np.array(astuple(hp), dtype=np.float64)


NOISES = (0.0, 0.5)


def factor_and_check(M, noise):
    """Factor M + noise*I, checking the contract every call must keep.

    L L^T reconstructs M + (noise + jitter)*I and M is bitwise unchanged.
    """
    before = M.copy()
    L, jitter = cholesky_with_jitter(M, noise)
    np.testing.assert_array_equal(M, before)
    target = M + (noise + jitter) * np.eye(M.shape[0])
    np.testing.assert_allclose(L @ L.T, target, rtol=1e-12, atol=1e-12)
    return L, jitter


class TestCholeskyWithJitter:
    """Each case runs with noise 0 and with noise 0.5 added to the diagonal."""

    def test_identity_needs_no_jitter(self):
        for noise in NOISES:
            L, jitter = factor_and_check(np.eye(3), noise)
            assert jitter == 0.0
            np.testing.assert_array_equal(L, math.sqrt(1.0 + noise) * np.eye(3))

    def test_two_by_two_by_hand(self):
        # [[4.5, 2], [2, 5.5]] = L L^T with L = [[3/sqrt(2), 0], [2 sqrt(2)/3, sqrt(83/18)]].
        by_hand = {
            0.0: [[2.0, 0.0], [1.0, 2.0]],
            0.5: [[3.0 / math.sqrt(2.0), 0.0], [2.0 * math.sqrt(2.0) / 3.0, math.sqrt(83.0 / 18.0)]],
        }
        for noise in NOISES:
            L, jitter = factor_and_check(np.array([[4.0, 2.0], [2.0, 5.0]]), noise)
            assert jitter == 0.0
            np.testing.assert_allclose(L, by_hand[noise], rtol=1e-15)

    def test_rank_deficient_needs_jitter(self):
        for noise in NOISES:
            M = np.ones((3, 3))
            L, jitter = factor_and_check(M, noise)
            if noise == 0.0:
                assert jitter > 0.0
                err = np.linalg.norm(L @ L.T - M, "fro")
                assert err <= 3.0 * jitter
            else:
                # Any positive noise makes the all-ones matrix positive definite.
                assert jitter == 0.0

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(8, 8))
        M = A @ A.T + 0.5 * np.eye(8)
        for noise in NOISES:
            L, _ = factor_and_check(M, noise)
            np.testing.assert_allclose(L @ L.T, M + noise * np.eye(8), rtol=1e-10, atol=1e-10)

    def test_indefinite_matrix_fails_with_index(self):
        for noise in NOISES:
            M = np.array([[1.0, 0.0], [0.0, -5.0]])
            with pytest.raises(NumericalError, match="order"):
                cholesky_with_jitter(M, noise)
            np.testing.assert_array_equal(M, [[1.0, 0.0], [0.0, -5.0]])

    def test_rejects_non_square(self):
        for noise in NOISES:
            with pytest.raises(InputError):
                cholesky_with_jitter(np.zeros((2, 3)), noise)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_rejects_what_is_not_a_matrix(self, shape):
        with pytest.raises(InputError, match="expected a square matrix"):
            cholesky_with_jitter(np.ones(shape))

    @pytest.mark.parametrize(
        "K, noise", [([[1.0, np.nan], [np.nan, 1.0]], 0.0), (np.eye(2), np.inf)], ids=["K", "noise"]
    )
    def test_rejects_non_finite_input(self, K, noise):
        with pytest.raises(InputError, match="must be finite"):
            cholesky_with_jitter(np.array(K), noise)


def duplicated_dyadic_rows():
    """200 rows on a dyadic grid, every 40th duplicated, hyperparameters at s2 = 2**30 and
    the noise floor, which the factorization cannot take without jitter (see
    test_jitter_escalation), and the generator that drew the rows."""
    rng = np.random.default_rng(34)
    X = 0.25 * rng.integers(-8, 9, size=(200, 6))
    X[1::40] = X[0::40]
    return X, Hyperparams(0.0, 30.0 * math.log(2.0), math.log(NOISE_VARIANCE_FLOOR)), rng


class TestFactorInPlace:
    """hp: the kernel is built from the distances in the buffer's strict lower triangle into
    the other one and factored there, and the distances stay."""

    @pytest.mark.parametrize("retry", [False, True], ids=["first", "retry"])
    def test_factor_is_the_input_buffer_with_the_copying_paths_bits(self, retry):
        if retry:  # 200 rows: six strips and a partial one
            X, hp, _ = duplicated_dyadic_rows()
        else:
            X, hp = np.random.default_rng(41).normal(size=(300, 5)), hp_of(1.5, 1.5, 0.1)
        S = pairwise_sq_dists(X)
        before = S.copy()
        L_copy, jitter_copy = cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)
        L, jitter = cholesky_with_jitter(S, hp.noise_variance, hp=hp)
        assert np.shares_memory(L, S)
        assert jitter == jitter_copy
        assert (jitter > 0.0) == retry
        np.testing.assert_array_equal(np.tril(S, -1), np.tril(before, -1))
        np.testing.assert_array_equal(np.tril(L), L_copy)

    @pytest.mark.parametrize("retry", [False, True], ids=["first", "retry"])
    def test_rows_write_one_triangle_with_the_copying_paths_bits(self, retry):
        """hp and rows X: every level builds the kernel from X in the triangle dpotrf reads,
        and leaves only 0s in the other."""
        if retry:
            X, hp, _ = duplicated_dyadic_rows()
        else:
            X, hp = np.random.default_rng(41).normal(size=(300, 5)), hp_of(1.5, 1.5, 0.1)
        K = np.zeros((len(X), len(X)))
        L_copy, jitter_copy = cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)
        L, jitter = cholesky_with_jitter(K, hp.noise_variance, hp=hp, X=X)
        assert np.shares_memory(L, K)
        assert jitter == jitter_copy
        assert (jitter > 0.0) == retry
        assert not np.tril(K, -1).any()
        np.testing.assert_array_equal(L, L_copy)

    def test_allocates_no_n_by_n_array(self):
        """Not even the n x n bool array of an elementwise finiteness check."""
        S = pairwise_sq_dists(np.random.default_rng(43).normal(size=(600, 8)))
        tracemalloc.start()
        try:
            cholesky_with_jitter(S, 0.5, hp=hp_of(3.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * S.size * 8

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_an_infinite_entry(self, value):
        """An infinite distance, or a -inf one, whose kernel value is inf."""
        S = pairwise_sq_dists(np.eye(3))
        S[2, 1] = value
        with pytest.raises(InputError, match="must be finite"):
            cholesky_with_jitter(S, hp=hp_of())

    def test_kept_triangle_survives_every_level_failing(self):
        """Distances no point set has: their kernel is far from positive definite."""
        S = np.random.default_rng(42).uniform(0.0, 4.0, size=(300, 300))
        before = S.copy()
        with pytest.raises(NumericalError, match="order"):
            cholesky_with_jitter(S, hp=hp_of())
        np.testing.assert_array_equal(np.tril(S, -1), np.tril(before, -1))


class TestLogMarginalLikelihood:
    def test_two_identical_points_closed_form(self):
        """Gram is [[2,1],[1,2]] here, so the value is -log(3)/2 - log(2*pi)."""
        X = np.array([[0.5, 0.5], [0.5, 0.5]])
        y = np.array([0.0, 0.0])
        lml, _ = log_marginal_likelihood(X, y, hp_of())
        expected = -0.5 * math.log(3.0) - math.log(2.0 * math.pi)
        assert lml == pytest.approx(expected, rel=1e-12)
        assert lml == pytest.approx(-2.3871832107, abs=1e-9)

    def test_zero_targets_kill_data_fit_term(self):
        """With y = 0 only the determinant and constant terms remain."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(6, 2))
        y = np.zeros(6)
        hp = hp_of(1.2, 0.8, 0.3)
        lml, _ = log_marginal_likelihood(X, y, hp)
        L, _ = cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)
        expected = -float(np.sum(np.log(np.diag(L)))) - 3.0 * math.log(2.0 * math.pi)
        assert lml == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        theta = np.array([0.1, -0.2, -1.0])
        _, grad = log_marginal_likelihood(X, y, Hyperparams(*theta))
        step = 1e-5
        for i in range(3):
            plus = theta.copy()
            plus[i] += step
            minus = theta.copy()
            minus[i] -= step
            up, _ = log_marginal_likelihood(X, y, Hyperparams(*plus))
            down, _ = log_marginal_likelihood(X, y, Hyperparams(*minus))
            fd = (up - down) / (2.0 * step)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-12) < 1e-4

    def test_noise_gradient_zero_below_floor(self):
        """Once the floor clamps the noise, nudging the raw value does nothing."""
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        _, grad = log_marginal_likelihood(X, y, Hyperparams(0.0, 0.0, math.log(1e-12)))
        assert grad[2] == 0.0

    def test_single_point_rejected(self):
        with pytest.raises(InputError):
            log_marginal_likelihood(np.zeros((1, 2)), np.zeros(1), hp_of())


def overflowing_rows(value):
    """Four finite training rows; the squared norm of rows 1 and 3 is not finite."""
    X = np.eye(4, 3)
    X[1, 2] = X[3, 0] = value
    return X


TRAINERS = {
    "build_model": lambda X, y: build_model(X, y, hp_of()),
    "fit": lambda X, y: fit(X, y, restarts=1),
    "log_marginal_likelihood": lambda X, y: log_marginal_likelihood(X, y, hp_of()),
}

TOO_LARGE = "training row 1 is non-finite or too large"

BAD_TRAINING_DATA = {
    "X 1-d": (np.zeros(4), np.zeros(4), "training rows must form a nonempty 2-d array"),
    "X empty": (np.zeros((0, 2)), np.zeros(0), "training rows must form a nonempty 2-d array"),
    "y 2-d": (np.zeros((3, 2)), np.zeros((3, 1)), "y must be 1-d"),
    "lengths differ": (np.zeros((3, 2)), np.zeros(4), "X has 3 rows but y has 4 entries"),
    "one row": (np.zeros((1, 2)), np.zeros(1), "at least 2 training samples"),
    "target NaN": (np.eye(3), np.array([0.0, np.nan, 1.0]), "training targets must be finite"),
    "target inf": (np.eye(3), np.array([0.0, 1.0, -np.inf]), "training targets must be finite"),
    "row NaN": (overflowing_rows(np.nan), np.arange(4.0), TOO_LARGE),
    "row inf": (overflowing_rows(-np.inf), np.arange(4.0), TOO_LARGE),
    "row 1e200": (overflowing_rows(1e200), np.arange(4.0), TOO_LARGE),
    "row 1.7e308": (overflowing_rows(1.7e308), np.arange(4.0), TOO_LARGE),
}


@pytest.mark.parametrize("train", TRAINERS.values(), ids=TRAINERS.keys())
@pytest.mark.parametrize("X, y, match", BAD_TRAINING_DATA.values(), ids=BAD_TRAINING_DATA.keys())
def test_bad_training_data_is_an_input_error(train, X, y, match):
    with pytest.raises(InputError, match=match):
        train(X, y)


def test_rows_near_the_float_limit_build_and_predict():
    """Finite squared norms above half the float range: their sums would overflow."""
    big = 1.3e154
    X = np.array([[big, 0.0], [0.0, 1.0], [-big, 0.0], [0.0, 0.0]])
    model = build_model(X, np.arange(4.0), hp_of(1.0, 1.0, 0.1))
    mean, std = predict(model, np.vstack([X, [[big, 1.0]]]))
    assert np.isfinite(mean).all() and np.isfinite(std).all()
    assert mean[0] == pytest.approx(0.0, abs=1e-12)
    assert mean[2] == pytest.approx(2.0 / 1.1, rel=1e-12)


def dense_inverse_evidence(X, y, hp):
    """Evidence and gradient from numpy.linalg.inv, with the gradient's scale.

    The jitter is whatever ``cholesky_with_jitter`` needed, so the reference
    describes the same training system. The scale of gradient entry k is
    0.5 * sum |(alpha alpha^T - Ky^-1) * dKy/dtheta_k|, the size of the
    terms that cancel in it.
    """
    n = y.shape[0]
    K = kernel_matrix(X, X, hp)
    _, jitter = cholesky_with_jitter(K, hp.noise_variance)
    Ky = K + hp.noise_variance * np.eye(n) + jitter * np.eye(n)
    Ky_inv = np.linalg.inv(Ky)
    alpha = Ky_inv @ y
    sign, logdet = np.linalg.slogdet(Ky)
    assert sign > 0
    lml = -0.5 * y @ alpha - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)
    T = np.outer(alpha, alpha) - Ky_inv
    raw_noise = math.exp(hp.log_noise_variance)
    noise_deriv = raw_noise if raw_noise > NOISE_VARIANCE_FLOOR else 0.0
    derivatives = (
        K * pairwise_sq_dists(X) / hp.length_scale**2,
        K,
        noise_deriv * np.eye(n),
    )
    grad = np.array([0.5 * np.sum(T * D) for D in derivatives])
    scale = np.array([0.5 * np.sum(np.abs(T * D)) for D in derivatives])
    return lml, grad, scale, jitter


class TestDenseInverseEvidence:
    """Value and gradient against numpy.linalg.inv at n=200.

    The n=10 finite-difference checks are too small to see a wrong
    triangle or diagonal term in the gradient traces.
    """

    n = 200

    def test_well_conditioned(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(self.n, 5))
        y = rng.normal(size=self.n)
        hp = hp_of(2.0, 1.5, 0.3)
        lml, grad = log_marginal_likelihood(X, y, hp)
        ref_lml, ref_grad, _, jitter = dense_inverse_evidence(X, y, hp)
        assert jitter == 0.0
        assert lml == pytest.approx(ref_lml, rel=1e-8)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-8, atol=0.0)

    def test_noise_floor(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(self.n, 5))
        y = rng.normal(size=self.n)
        hp = Hyperparams(math.log(2.0), math.log(1.5), math.log(1e-12))
        lml, grad = log_marginal_likelihood(X, y, hp)
        ref_lml, ref_grad, _, jitter = dense_inverse_evidence(X, y, hp)
        assert jitter == 0.0
        assert grad[2] == 0.0
        assert lml == pytest.approx(ref_lml, rel=1e-8)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("length_scale", [1.0, 2.0, 3.0])
    def test_jitter_escalation(self, length_scale):
        """Duplicated rows at the noise floor: the factorization needs jitter.

        Features are multiples of 1/4, so the duplicated rows have exactly
        zero distance and, with signal variance 2**30, the second pivot is
        exactly zero. The inverse then has entries of order
        1 / (jitter level 1e-10), and terms that large cancel in the
        signal-variance entry, so the gradient is held to 1e-8 of the
        size of its terms rather than of its value. The signal-variance
        entry, computed from the noise entry's terms, must also be within
        5e-8 of its value.
        """
        rng = np.random.default_rng(33)
        X = 0.25 * rng.integers(-8, 9, size=(self.n, 6))
        y = rng.normal(size=self.n)
        X[1::40] = X[0::40]
        y[1::40] = y[0::40]
        hp = Hyperparams(
            math.log(length_scale), 30.0 * math.log(2.0), math.log(NOISE_VARIANCE_FLOOR)
        )
        lml, grad = log_marginal_likelihood(X, y, hp)
        ref_lml, ref_grad, scale, jitter = dense_inverse_evidence(X, y, hp)
        assert jitter > 0.0
        assert grad[2] == 0.0
        assert lml == pytest.approx(ref_lml, rel=1e-8)
        assert (np.abs(grad - ref_grad) <= 1e-8 * scale).all()
        assert abs(grad[1] - ref_grad[1]) <= 5e-8 * abs(ref_grad[1])


def profiled_fd_errors(S, y, theta, step):
    """Relative error of each profiled-gradient entry against a central difference."""
    _, grad, _ = gp_module._profiled_evidence(S, y, theta)
    errors = []
    for i in range(2):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += step
        minus[i] -= step
        up, _, _ = gp_module._profiled_evidence(S, y, plus)
        down, _, _ = gp_module._profiled_evidence(S, y, minus)
        fd = (up - down) / (2.0 * step)
        errors.append(abs(grad[i] - fd) / max(abs(fd), 1e-12))
    return grad, errors


class TestProfiledEvidence:
    """The search objective: evidence at (log l, log r), r = noise / s2, with s2 in closed form."""

    @pytest.mark.parametrize("y_scale", [1.0, 1e-5], ids=["above floor", "floored"])
    def test_gradient_matches_finite_differences(self, y_scale):
        """The inputs of TestLogMarginalLikelihood; scaled by 1e-5, s2 * r is below the floor."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 3))
        y = y_scale * rng.normal(size=10)
        S, theta = pairwise_sq_dists(X), np.array([0.1, math.log(0.3)])
        _, _, hp = gp_module._profiled_evidence(S, y, theta)
        assert (math.exp(hp.log_noise_variance) > NOISE_VARIANCE_FLOOR) == (y_scale == 1.0)
        _, errors = profiled_fd_errors(S, y, theta, 1e-5)
        assert max(errors) < 1e-4

    @pytest.mark.parametrize("length_scale", [1.0, 2.0, 3.0])
    def test_gradient_matches_finite_differences_with_jitter(self, length_scale):
        """The inputs and hyperparameters of TestDenseInverseEvidence.test_jitter_escalation.

        There r = 1e-8 / 2**30, so the unit-variance system needs jitter and
        s2 * r is below the floor. The systems are ill-conditioned, and the
        rounding noise of a central difference grows as 1/step: at l = 3 the
        length-scale entry is off by 2.9e-4, 2.7e-5 and 2.7e-6 at steps 1e-5,
        1e-4 and 1e-3. So the step is 1e-3. r is below the resolution of the
        unit diagonal, 1 + r == 1, so the computed evidence does not move with
        it: the difference is exactly 0, and the analytic entry must be
        negligible.
        """
        rng = np.random.default_rng(33)
        X = 0.25 * rng.integers(-8, 9, size=(200, 6))
        y = rng.normal(size=200)
        X[1::40] = X[0::40]
        y[1::40] = y[0::40]
        theta = np.array([math.log(length_scale), math.log(NOISE_VARIANCE_FLOOR / 2.0**30)])
        unit_kernel = kernel_matrix(X, X, hp_of(length_scale))
        _, jitter = cholesky_with_jitter(unit_kernel, math.exp(theta[1]))
        assert jitter > 0.0
        grad, errors = profiled_fd_errors(pairwise_sq_dists(X), y, theta, 1e-3)
        assert errors[0] < 1e-4
        assert abs(grad[1]) < 1e-12


    @pytest.mark.parametrize("y_scale", [1.0, 1e-5], ids=["above floor", "floored"])
    def test_value_alone_has_the_same_bits_without_an_inverse(self, monkeypatch, y_scale):
        """One factorization (two where the floor clamps), and neither dpotri nor strips."""
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(100, 3)), y_scale * rng.normal(size=100)
        S, theta = pairwise_sq_dists(X), np.array([0.1, math.log(0.3)])
        lml, _, hp = gp_module._profiled_evidence(S, y, theta)
        calls = []
        cholesky, dpotri = gp_module.cholesky_with_jitter, gp_module.lapack.dpotri
        rbf = gp_module.rbf_from_sq_dists

        def counting(name, function):
            return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)

        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting("factor", cholesky))
        monkeypatch.setattr(gp_module.lapack, "dpotri", counting("invert", dpotri))
        monkeypatch.setattr(gp_module, "rbf_from_sq_dists", counting("exp", rbf))
        value, grad, value_hp = gp_module._profiled_evidence(S, y, theta, gradient=False)
        assert (math.exp(hp.log_noise_variance) > NOISE_VARIANCE_FLOOR) == (y_scale == 1.0)
        assert value.hex() == lml.hex()
        assert value_hp == hp
        assert np.isnan(grad).all()
        factorizations = 1 if y_scale == 1.0 else 2
        # Four strips per kernel, each built in two parts: its diagonal tile and the rest.
        assert calls == (["factor"] + ["exp"] * 8) * factorizations

    def test_one_evaluation_allocates_no_n_by_n_array(self):
        """The kernel is built, factored and inverted in the distances' buffer; K*S is
        rebuilt in strips of 32 rows, which at n = 2,000 are 1.6% of n x n each."""
        rng = np.random.default_rng(39)
        n = 2000
        S, y = pairwise_sq_dists(rng.normal(size=(n, 8))), rng.normal(size=n)
        theta = np.array([math.log(3.0), math.log(0.1)])
        gp_module._profiled_evidence(pairwise_sq_dists(rng.normal(size=(10, 8))), y[:10], theta)
        tracemalloc.start()
        try:
            gp_module._profiled_evidence(S, y, theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8


class TestBuildModel:
    def test_factor_reconstructs_training_system(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        hp = hp_of(1.1, 0.9, 0.2)
        model = build_model(X, y, hp)
        Ky = kernel_matrix(X, X, hp) + hp.noise_variance * np.eye(15)
        # The model keeps L^-1: L^-1 Ky L^-T is the identity.
        assert np.linalg.norm(model.L_inv @ Ky @ model.L_inv.T - np.eye(15), "fro") < 1e-8

    def test_alpha_solves_training_system(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        hp = hp_of(0.9, 1.3, 0.4)
        model = build_model(X, y, hp)
        Ky = kernel_matrix(X, X, hp) + hp.noise_variance * np.eye(12)
        residual = np.linalg.norm(Ky @ model.alpha - y) / np.linalg.norm(y)
        assert residual < 1e-6


class TestFit:
    def test_recovers_known_hyperparameters(self):
        hp_star = hp_of(2.0, 2.0, 0.1)
        X, y = sample_from_prior(hp_star, n=100, D=5, seed=3)
        model = fit(X, y, restarts=3, seed=3)
        err = np.abs(log_array(model.hp) - log_array(hp_star))
        assert (err < 0.5).all()

    def test_constant_targets_reach_constant_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = np.full(30, 2.0)
        model = fit(X, y, restarts=3, seed=0)
        query = X.mean(axis=0, keepdims=True) + 0.1 * rng.normal(size=(1, 4))
        mean, _ = predict(model, query)
        assert abs(mean[0] - 2.0) < 0.05

    def test_subsampling_contract(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(5, 2))
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        model = fit(X, y, max_train=3, restarts=1, seed=7)
        assert model.X_train.shape == (3, 2)
        assert model.y_train.shape == (3,)
        assert model.train_subset_seed == 7

    def test_subsample_rows_come_from_input(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 5, size=40).astype(float)
        model = fit(X, y, max_train=10, restarts=1, seed=1)
        for row, target in zip(model.X_train, model.y_train):
            matches = np.where((X == row).all(axis=1))[0]
            assert matches.size >= 1
            assert target in y[matches]

    def test_result_beats_every_initialization(self):
        """The returned evidence is at least the evidence at each start point."""
        hp_star = hp_of(1.5, 2.0, 0.1)
        X, y = sample_from_prior(hp_star, n=40, D=3, seed=21)
        restarts, seed = 4, 21
        model = fit(X, y, restarts=restarts, seed=seed)
        best, _ = log_marginal_likelihood(model.X_train, model.y_train, model.hp)

        # Replay the seeded initialization draws the same way fit makes them.
        S = pairwise_sq_dists(X)
        median_dist = math.sqrt(float(np.median(S[np.triu_indices(40, 1)])))
        var_y = float(np.var(y))
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            log_l0 = rng.uniform(
                math.log(0.5 * median_dist), math.log(2.0 * median_dist)
            )
            hp0 = Hyperparams(log_l0, math.log(var_y), math.log(0.1 * var_y))
            at_init, _ = log_marginal_likelihood(X, y, hp0)
            assert best >= at_init - 1e-9

    def test_one_factorization_per_optimizer_evaluation(self, monkeypatch):
        """No evidence call outside the optimizer's own, plus the final build."""
        nfev = []
        factorizations = []
        minimize, cholesky = gp_module.minimize, gp_module.cholesky_with_jitter

        def counting_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            nfev.append(result.nfev)
            return result

        def counting_cholesky(K, noise=0.0, **kwargs):
            factorizations.append(K.shape)
            return cholesky(K, noise, **kwargs)

        monkeypatch.setattr(gp_module, "minimize", counting_minimize)
        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting_cholesky)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=22)
        fit(X, y, restarts=3, seed=22)
        assert len(nfev) == 3
        assert len(factorizations) == sum(nfev) + 1

    def test_one_distance_pass_per_fit(self, monkeypatch):
        """One pass of pairwise_sq_dists for the search, whose distances are freed before the
        final model's kernel is built from X: one more pass of the distance code, no mirror."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=22)
        calls = {"pairwise": 0, "distances": 0}
        pairwise, distances = kernel_module.pairwise_sq_dists, kernel_module._sq_dists

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        for module in (gp_module, kernel_module):
            monkeypatch.setattr(module, "pairwise_sq_dists", counting("pairwise", pairwise))
            monkeypatch.setattr(module, "_sq_dists", counting("distances", distances))
        model = fit(X, y, restarts=3, seed=22)
        assert calls == {"pairwise": 1, "distances": 2}
        assert model.L_inv.tobytes() == build_model(X, y, model.hp).L_inv.tobytes()

    def test_fit_holds_one_n_by_n_array(self):
        """The distances, in whose buffer every kernel is built, factored and inverted: the
        median partitions its one copy of them in place, and no index array outlives it."""
        rng = np.random.default_rng(38)
        n = 600
        X, y = rng.normal(size=(n, 8)), rng.normal(size=n)
        fit(X[:10], y[:10], restarts=1, seed=38)  # imports scipy.optimize outside the trace
        tracemalloc.start()
        try:
            fit(X, y, restarts=1, seed=38)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * n * n * 8

    @pytest.mark.parametrize(
        "evidence",
        [(np.nan, np.zeros(2), None), NumericalError("no factor")],
        ids=["nan", "raises"],
    )
    def test_evidence_that_fails_at_every_restart(self, monkeypatch, evidence):
        def failing_evidence(S, y, theta):
            if isinstance(evidence, Exception):
                raise evidence
            return evidence

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_evidence)
        X, y = sample_from_prior(hp_of(), n=10, D=2, seed=1)
        with pytest.raises(NumericalError, match="non-finite at every restart"):
            fit(X, y, restarts=2, seed=1)

    @pytest.mark.parametrize("slope", [0.0, 1.0], ids=["zero gradient", "gradient"])
    @pytest.mark.parametrize("n", [60, 100], ids=["one stage", "two stages"])
    def test_tied_evidence_freezes_the_first_start(self, two_stage, monkeypatch, n, slope):
        """Every point ties, so the earliest point evaluated wins: the first restart's start.

        With a zero gradient each search stops at its start; with a gradient
        that the flat value never bears out, it evaluates more tied points.
        """

        def flat(S, y, theta, **kwargs):
            hp = Hyperparams(float(theta[0]), 0.0, float(theta[1]))
            return -1.0, np.array([slope, 0.0]), hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", flat)
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=n, D=3, seed=42)
        model = fit(X, y, restarts=3, seed=42)
        assert len({x0[0] for x0, _ in calls[:3]}) == 3
        first = calls[0][0]
        assert model.hp == Hyperparams(first[0], 0.0, first[1])

    @pytest.mark.parametrize("finite_lml", [False, True], ids=["raises", "nan gradient"])
    @pytest.mark.parametrize("n", [60, 100], ids=["one stage", "two stages"])
    def test_evidence_that_fails_early_in_every_search(
        self, two_stage, monkeypatch, n, finite_lml
    ):
        """Failed points are passed over: the best computable point is frozen.

        The first search fails at its start, so it ends with no computable
        point. Every other search fails at its first trial step, its second
        evaluation, and goes on from there. That step raises, or, under
        ``finite_lml``, has a higher evidence than any other but a NaN gradient.
        """
        calls = record_searches(monkeypatch)
        searches, computed = [], []
        profiled = gp_module._profiled_evidence

        def failing_early(S, y, theta, **kwargs):
            search = len(calls)  # a search is recorded once it has finished
            searches.append(search)
            if search == 0:
                raise NumericalError("no factor")
            lml, grad, hp = profiled(S, y, theta, **kwargs)
            if searches.count(search) == 2:
                if not finite_lml:
                    raise NumericalError("no factor")
                return 0.0, np.full(2, np.nan), hp
            computed.append((y.shape[0], lml, hp))
            return lml, grad, hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_early)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=n, D=3, seed=41)
        model = fit(X, y, restarts=3, seed=41)
        evaluations = [searches.count(i) for i in range(len(calls))]
        assert evaluations[0] == 1 and min(evaluations[1:]) > 2
        lml, hp = max(((lml, hp) for rows, lml, hp in computed if rows == n), key=lambda p: p[0])
        assert model.hp == hp
        assert model.log_evidence == pytest.approx(lml, rel=1e-9)

    @pytest.mark.parametrize("failing", [(2,), (2, 3)], ids=["second", "second and third"])
    def test_failed_trial_steps_do_not_stop_a_search(self, monkeypatch, failing):
        """A search backs off from a failed step and ends where the unwrapped fit does."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=60, D=3, seed=41)
        unwrapped = fit(X, y, restarts=3, seed=41).log_evidence
        calls = record_searches(monkeypatch)
        searches = []
        profiled = gp_module._profiled_evidence

        def failing_steps(S, y, theta):
            searches.append(len(calls))  # a search is recorded once it has finished
            if searches.count(searches[-1]) in failing:
                raise NumericalError("no factor")
            return profiled(S, y, theta)

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_steps)
        model = fit(X, y, restarts=3, seed=41)
        assert len(calls) == 3
        assert model.log_evidence == pytest.approx(unwrapped, rel=1e-9)

    def test_identical_rows_start_around_unit_length_scale(self, monkeypatch):
        """Every pairwise distance is 0, so the median falls back to 1."""
        calls = record_searches(monkeypatch)
        X = np.full((12, 3), 0.25)
        y = np.random.default_rng(2).normal(size=12)
        model = fit(X, y, restarts=3, seed=2)
        assert len(calls) == 3
        for x0, _ in calls:
            assert math.log(0.5) <= x0[0] <= math.log(2.0)
        mean, std = predict(model, X[:1])
        assert mean[0] == pytest.approx(y.mean(), abs=0.05)
        assert np.isfinite(std).all()

    def test_rows_farther_apart_than_the_float_range(self, monkeypatch):
        """The median distance overflows: the starts fall back to it being 1.

        Distances beyond the float range are capped at the float maximum, so
        K * S is 0 for the pairs that far apart, not 0 * inf, and the fit
        succeeds without a RuntimeWarning.
        """
        calls = record_searches(monkeypatch)
        big = 1.3e154
        X = np.array([[big, 0.0], [-big, 0.0], [0.0, big], [0.0, -big], [0.0, 0.0]])
        model = fit(X, np.arange(5.0), restarts=2, seed=3)
        assert math.isfinite(model.log_evidence)
        assert len(calls) == 2
        for x0, _ in calls:
            assert math.log(0.5) <= x0[0] <= math.log(2.0)

    @pytest.mark.parametrize("n", [60, 100], ids=["one stage", "two stages"])
    def test_fit_ends_at_a_profile_optimum(self, two_stage, monkeypatch, n):
        """At the fitted point the evidence is flat along log s2 at fixed r."""
        values = record_evidence(monkeypatch)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=n, D=3, seed=40)
        model = fit(X, y, restarts=3, seed=40)
        _, grad = log_marginal_likelihood(model.X_train, model.y_train, model.hp)
        assert abs(grad[1] + grad[2]) < 1e-4
        best = max(lml for rows, lml in values if rows == n)
        assert model.log_evidence == pytest.approx(best, rel=1e-9)

    def test_all_zero_targets_fit_a_finite_model(self):
        X = np.random.default_rng(4).normal(size=(20, 3))
        model = fit(X, np.zeros(20), restarts=2, seed=4)
        assert math.isfinite(model.log_evidence)
        mean, std = predict(model, X[:3])
        np.testing.assert_array_equal(mean, 0.0)
        assert np.isfinite(std).all()

    def test_noise_free_targets_hold_the_noise_at_the_floor(self, monkeypatch):
        """The search maximizes the evidence of the floored noise that fit freezes."""
        values = record_evidence(monkeypatch)
        X = np.linspace(0.0, 3.0, 25)[:, None]
        model = fit(X, np.sin(X[:, 0]), restarts=3, seed=0)
        assert math.exp(model.hp.log_noise_variance) < NOISE_VARIANCE_FLOOR
        assert model.hp.noise_variance >= NOISE_VARIANCE_FLOOR
        assert math.isfinite(model.log_evidence)
        assert model.log_evidence == max(lml for _, lml in values)

    def test_rejects_bad_config(self):
        X = np.zeros((4, 2))
        y = np.zeros(4)
        with pytest.raises(InputError):
            fit(X, y, max_train=1, restarts=1, seed=0)
        with pytest.raises(InputError):
            fit(X, y, restarts=0, seed=0)
        with pytest.raises(InputError, match="seed"):
            fit(X, y, restarts=1, seed=-3)


@pytest.fixture
def two_stage(monkeypatch):
    """Shrink the two-stage constants so that a 100-row fit searches in two stages."""
    monkeypatch.setattr(gp_module, "_TWO_STAGE_MIN_N", 80)
    monkeypatch.setattr(gp_module, "_COARSE_SUBSET_N", 40)


def record_evidence(monkeypatch):
    """(rows, evidence) at every point the searches evaluate, in call order."""
    values = []
    profiled = gp_module._profiled_evidence

    def recording(S, y, theta, **kwargs):
        lml, grad, hp = profiled(S, y, theta, **kwargs)
        values.append((y.shape[0], lml))
        return lml, grad, hp

    monkeypatch.setattr(gp_module, "_profiled_evidence", recording)
    return values


def record_searches(monkeypatch, steer=None):
    """Record (x0, result) of every L-BFGS-B search; ``steer(i, x0)`` may move a start."""
    calls = []
    minimize = gp_module.minimize

    def recording(fun, x0, **kwargs):
        if steer is not None:
            x0 = steer(len(calls), x0)
        result = minimize(fun, x0, **kwargs)
        calls.append((x0, result))
        return result

    monkeypatch.setattr(gp_module, "minimize", recording)
    return calls


def first_start(rng, X):
    """The first restart's theta for training rows X, drawn from rng the way fit draws it."""
    S = pairwise_sq_dists(X)
    median_dist = math.sqrt(float(np.median(S[np.triu_indices(X.shape[0], 1)])))
    log_l0 = rng.uniform(math.log(0.5 * median_dist), math.log(2.0 * median_dist))
    return np.array([log_l0, math.log(0.1)])


def record_guard_points(monkeypatch, calls):
    """(lml, Hyperparams) of every point the guard, the fourth ``record_searches`` search, evaluates."""
    points = []
    profiled = gp_module._profiled_evidence

    def recording(S, y, theta, **kwargs):
        lml, grad, hp = profiled(S, y, theta, **kwargs)
        if len(calls) == 3:
            points.append((lml, hp))
        return lml, grad, hp

    monkeypatch.setattr(gp_module, "_profiled_evidence", recording)
    return points


def best_subset_x(calls):
    """The end of the best of the three subset searches in ``record_searches`` calls."""
    return min((result for _, result in calls[:3]), key=lambda result: result.fun).x


class TestTwoStageFit:
    """Restarts on a subset, then a guard restart on the full set, and a polish only
    from a subset optimum whose full-set evidence beats the guard's end."""

    HP = hp_of(1.5, 2.0, 0.1)

    FAR = np.array([8.0, math.log(0.1)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_guard_catches_a_polish_stuck_in_a_poor_basin(self, two_stage, monkeypatch, seed):
        # Every subset search starts at a length-scale of e^8, far past the
        # data, where the evidence is flat in it: the subset optimum stays
        # there, ranks below the guard's end, and no polish runs.
        calls = record_searches(monkeypatch, lambda i, x0: self.FAR if i < 3 else x0)
        points = record_guard_points(monkeypatch, calls)
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=seed)
        model = fit(X, y, restarts=3, seed=seed)
        assert len(calls) == 4
        guard = calls[3][1]
        np.testing.assert_array_equal(calls[3][0], first_start(np.random.default_rng(seed), X))
        assert model.hp == max(points, key=lambda point: point[0])[1]
        far_lml = gp_module._profiled_evidence(pairwise_sq_dists(X), y, self.FAR)[0]
        assert model.log_evidence >= -guard.fun - 1e-9 * abs(guard.fun)
        assert model.log_evidence > far_lml + 10.0

    # Not seed 3: its best subset optimum sits at the noise floor, below the far guard's end.
    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_polish_starts_at_the_best_subset_optimum_when_the_guard_ends_far(
        self, two_stage, monkeypatch, seed
    ):
        calls = record_searches(monkeypatch, lambda i, x0: self.FAR if i == 3 else x0)
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=seed)
        model = fit(X, y, restarts=3, seed=seed)
        assert len(calls) == 5
        np.testing.assert_array_equal(calls[4][0], best_subset_x(calls))
        assert model.log_evidence > -calls[3][1].fun + 10.0

    def test_guard_is_the_model_if_the_ranking_evaluation_fails(self, two_stage, monkeypatch):
        # The guard ends far, so only the failure stops a polish from the subset optimum.
        calls = record_searches(monkeypatch, lambda i, x0: self.FAR if i == 3 else x0)
        points = record_guard_points(monkeypatch, calls)
        profiled, failed = gp_module._profiled_evidence, []

        def failing_value_alone(S, y, theta, gradient=True):
            if not gradient:
                failed.append(theta.copy())
                raise NumericalError("not positive definite")
            return profiled(S, y, theta)

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_value_alone)
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=1)
        model = fit(X, y, restarts=3, seed=1)
        assert len(calls) == 4
        assert len(failed) == 1
        np.testing.assert_array_equal(failed[0], best_subset_x(calls))
        assert model.hp == max(points, key=lambda point: point[0])[1]
        assert model.log_evidence >= -calls[3][1].fun - 1e-9 * abs(calls[3][1].fun)

    def test_subsample_and_first_start_are_those_of_one_stage(self, two_stage, monkeypatch):
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(self.HP, n=120, D=3, seed=30)
        model = fit(X, y, max_train=100, restarts=3, seed=30)

        # Replay the training subsample and the first start the way fit draws them.
        rng = np.random.default_rng(30)
        idx = np.sort(rng.choice(120, size=100, replace=False))
        np.testing.assert_array_equal(model.X_train, X[idx])
        theta0 = first_start(rng, X[idx])
        np.testing.assert_array_equal(calls[0][0], theta0)  # first subset search
        np.testing.assert_array_equal(calls[3][0], theta0)  # full-set guard

    def test_same_seed_gives_identical_hyperparameters(self, two_stage):
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=31)
        first = log_array(fit(X, y, restarts=3, seed=31).hp)
        second = log_array(fit(X, y, restarts=3, seed=31).hp)
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("far", [range(3), [3]], ids=["guard-wins", "subset-wins"])
    def test_one_factorization_per_optimizer_evaluation(self, two_stage, monkeypatch, far):
        """The ranking evaluation and the final model cost one factorization each; if the
        guard wins, no polish runs, and if not, the polish factors its first point again."""
        calls = record_searches(monkeypatch, lambda i, x0: self.FAR if i in far else x0)
        shapes = []
        cholesky = gp_module.cholesky_with_jitter

        def counting_cholesky(K, noise=0.0, **kwargs):
            shapes.append(K.shape)
            return cholesky(K, noise, **kwargs)

        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting_cholesky)
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=32)
        fit(X, y, restarts=3, seed=32)
        nfev = [result.nfev for _, result in calls]
        assert shapes.count((40, 40)) == sum(nfev[:3])
        if far == range(3):
            assert len(nfev) == 3 + 1
            assert len(shapes) == sum(nfev) + 2
        else:
            assert len(nfev) == 3 + 2
            assert len(shapes) == sum(nfev) + 2
            np.testing.assert_array_equal(calls[4][0], best_subset_x(calls))

    def test_polish_beats_the_guard_on_a_multi_basin_input(self, monkeypatch):
        """The input that keeps the subset stage, at the real constants: 2,000 z-scored
        synthetic rows on which the guard, the one-restart search, ends in a worse
        basin than the polish from the best subset optimum."""
        _, X, grades = synthesize_dataset([400] * 5, 8, 6.0, 1.0, 14)
        calls = record_searches(monkeypatch)
        model = fit(apply_normalizer(fit_normalizer(X), X), grades.astype(float),
                    restarts=3, seed=0)
        assert len(calls) == 5
        assert model.log_evidence > -calls[3][1].fun + 10.0

    @pytest.mark.parametrize("n, restarts", [(100, 1), (79, 3)])
    def test_one_search_per_restart_otherwise(self, two_stage, monkeypatch, n, restarts):
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(self.HP, n=n, D=3, seed=33)
        model = fit(X, y, restarts=restarts, seed=33)
        assert len(calls) == restarts
        assert model.X_train.shape == (n, 3)


def floor_noise_model(jitter):
    """A 200-row model at the noise floor; with jitter, on ``duplicated_dyadic_rows``."""
    if not jitter:
        rng = np.random.default_rng(34)
        X = rng.normal(size=(200, 5))
        return build_model(X, rng.normal(size=200), hp_of(1.5, 1.5, NOISE_VARIANCE_FLOOR)), rng
    X, hp, rng = duplicated_dyadic_rows()
    y = rng.normal(size=200)
    y[1::40] = y[0::40]
    assert cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)[1] > 0.0
    return build_model(X, y, hp), rng


def triangular_solve_prediction(model, L, Xq):
    """Mean and (unclamped) variance of one query block by a triangular solve on the factor L."""
    Kq = kernel_matrix(Xq, model.X_train, model.hp)
    mean = blas.dgemv(1.0, Kq.T, model.alpha, trans=1)
    W = solve_triangular(L, Kq.T, lower=True)
    prior = model.hp.signal_variance + model.hp.noise_variance
    return mean, prior - np.einsum("ij,ij->j", W, W)


class TestPredict:
    @pytest.mark.parametrize("jitter", [False, True])
    def test_inverse_factor_matches_a_triangular_solve(self, jitter):
        """Variances through L^-1 are as accurate as a solve even on ill-conditioned factors."""
        model, rng = floor_noise_model(jitter)
        X = model.X_train
        Xq = np.vstack([X[:40], X[:40] + 0.25, rng.normal(size=(40, X.shape[1]))])
        L, _ = cholesky_with_jitter(kernel_matrix(X, X, model.hp), model.hp.noise_variance)
        before = [model.alpha.tobytes(), model.X_train.tobytes()]
        mean, std = predict(model, Xq)
        ref_mean, ref_var = triangular_solve_prediction(model, L, Xq)
        assert mean.tobytes() == ref_mean.tobytes()
        prior = model.hp.signal_variance + model.hp.noise_variance
        assert np.abs(std**2 - np.maximum(ref_var, 0.0)).max() <= 1e-10 * prior
        again = predict(model, Xq)
        assert again[0].tobytes() == mean.tobytes() and again[1].tobytes() == std.tobytes()
        assert [model.alpha.tobytes(), model.X_train.tobytes()] == before

    def test_singular_factor_is_a_numerical_error(self, monkeypatch):
        """dtrtri reports a zero diagonal (1-based) by info; building the model says which."""
        monkeypatch.setattr(gp_module.lapack, "dtrtri", lambda L, **kwargs: (L, 6))
        with pytest.raises(NumericalError, match="diagonal 5 "):
            build_model(np.eye(8), np.arange(8.0), hp_of())

    def test_factor_is_inverted_once_in_place_when_the_model_is_built(
        self, tmp_path, monkeypatch
    ):
        """One dtrtri per fit, build_model or load_model, in the factor's own buffer;
        predicts invert nothing and leave L^-1 as it was."""
        calls = []
        dtrtri = gp_module.lapack.dtrtri

        def counted(L, **kwargs):
            reference, _ = dtrtri(L, lower=1)  # into a new buffer
            L_inv, info = dtrtri(L, **kwargs)
            calls.append((L_inv is L, L_inv.tobytes() == reference.tobytes()))
            return L_inv, info

        monkeypatch.setattr(gp_module.lapack, "dtrtri", counted)
        rng = np.random.default_rng(36)
        X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
        model = fit(X, y, restarts=2, seed=36)
        assert len(calls) == 1
        save_model(build_model(X, y, model.hp), tmp_path / "m.model")
        assert len(calls) == 2
        loaded = load_model(tmp_path / "m.model")
        assert calls == [(True, True)] * 3
        L_inv = loaded.L_inv.tobytes()
        predict(loaded, X[:5])
        predict(loaded, X[5:9])
        assert len(calls) == 3 and loaded.L_inv.tobytes() == L_inv

    def test_concurrent_first_predicts_invert_nothing(self, monkeypatch):
        """Threads that predict on a fresh model together read its L^-1 and invert nothing."""
        calls = []
        dtrtri = gp_module.lapack.dtrtri
        monkeypatch.setattr(
            gp_module.lapack, "dtrtri", lambda *a, **k: calls.append(1) or dtrtri(*a, **k)
        )
        rng = np.random.default_rng(38)
        X, y = rng.normal(size=(256, 4)), rng.normal(size=256)
        queries = rng.normal(size=(8, 4))
        expected = predict(build_model(X, y, hp_of(1.0, 1.0, 0.1)), queries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(6):
                model = build_model(X, y, hp_of(1.0, 1.0, 0.1))
                calls.clear()  # count the predicts' inversions only
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(predict, model, queries) for _ in range(6)]
                    results = [f.result(timeout=60) for f in futures]
                assert calls == []
                for mean, std in results:
                    assert mean.tobytes() == expected[0].tobytes()
                    assert std.tobytes() == expected[1].tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("duplicate", [
        lambda model: replace(model, train_subset_seed=7),
        copy.deepcopy,
        lambda model: pickle.loads(pickle.dumps(model)),
    ], ids=["replace", "deepcopy", "pickle"])
    def test_copy_after_a_predict_predicts_the_same_bytes(self, duplicate):
        """A copy made after a predict scores like the original, and the original is unchanged."""
        rng = np.random.default_rng(40)
        X = rng.normal(size=(50, 3))
        model = build_model(X, rng.normal(size=50), hp_of(1.0, 1.0, 0.1))
        queries = rng.normal(size=(3, 3))
        expected = [a.tobytes() for a in predict(model, queries)]
        clone = duplicate(model)
        assert [a.tobytes() for a in predict(clone, queries)] == expected
        assert [a.tobytes() for a in predict(model, queries)] == expected

    def test_saving_after_a_predict_keeps_the_archive_and_evidence(self, tmp_path):
        model, rng = floor_noise_model(jitter=True)
        evidence = model.log_evidence
        save_model(model, tmp_path / "before.model")
        predict(model, rng.normal(size=(3, model.X_train.shape[1])))
        save_model(model, tmp_path / "after.model")
        assert (tmp_path / "before.model").read_bytes() == (tmp_path / "after.model").read_bytes()
        assert model.log_evidence.hex() == evidence.hex()

    def test_first_predict_allocates_no_second_factor(self):
        """The self distances and the model each take one n x n buffer, and beyond its
        outputs the first predict holds one block at a time, with no second factor."""
        rng = np.random.default_rng(37)
        n, m = 1536, 1100  # two full blocks and a part
        X, y = rng.normal(size=(n, 3)), rng.normal(size=n)
        queries = rng.normal(size=(m, 3))
        _, distances_peak = traced_peak(pairwise_sq_dists, X)
        model, model_peak = traced_peak(build_model, X, y, hp_of(1.0, 1.0, 0.1))
        _, predict_peak = traced_peak(predict, model, queries)
        square, outputs = n * n * 8, 2 * m * 8
        block = min(m, gp_module._PREDICT_BLOCK) * n * 8
        assert distances_peak <= 1.15 * square
        assert model_peak <= 1.25 * square
        assert predict_peak - outputs <= 1.15 * block

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or huge_pages_always(),
        reason="needs Linux, with transparent huge pages not always on",
    )
    def test_model_inverse_leaves_its_other_triangle_off_the_resident_set(self):
        """L^-1 lives in a mapping of 4 KiB pages of which only its triangle is written, so
        about half of it is resident; every VMA it overlaps counts, huge-page advice or not."""
        rng = np.random.default_rng(37)
        n = 1536
        model = build_model(rng.normal(size=(n, 3)), rng.normal(size=n), hp_of(1.0, 1.0, 0.1))
        start = model.L_inv.ctypes.data
        stop, resident, overlaps = start + n * n * 8, 0, False
        with open("/proc/self/smaps", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                field = line.split(maxsplit=1)[0]
                if not field.endswith(":"):  # a VMA's header: its address range first
                    low, high = (int(address, 16) for address in field.split("-"))
                    overlaps = low < stop and start < high
                elif overlaps and field == "Rss:":
                    resident += int(line.split()[1]) * 1024
        assert resident <= 0.70 * n * n * 8
        assert not np.triu(model.L_inv, 1).any()

    def test_interpolates_training_point_at_noise_floor(self):
        hp = Hyperparams(0.0, 0.0, math.log(1e-12))
        X = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])
        y = np.array([1.0, 2.0, 3.0])
        model = build_model(X, y, hp)
        mean, std = predict(model, X[[1]])
        assert abs(mean[0] - 2.0) < 1e-3
        assert std[0] <= 2e-4

    def test_reverts_to_prior_far_from_data(self):
        hp = hp_of(1.0, 1.0, 0.01)
        rng = np.random.default_rng(19)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        model = build_model(X, y, hp)
        mean, std = predict(model, np.array([[80.0, -80.0]]))
        assert abs(mean[0]) < 1e-6
        assert abs(std[0] - math.sqrt(1.0 + hp.noise_variance)) < 1e-6

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        hp = hp_of(1.2, 1.5, 0.3)
        model = build_model(X, y, hp)
        Xq = rng.normal(size=(9, 4))
        pred_mean, pred_std = predict(model, Xq)
        Ky_inv = np.linalg.inv(kernel_matrix(X, X, hp) + hp.noise_variance * np.eye(20))
        Kq = kernel_matrix(Xq, X, hp)
        means = Kq @ Ky_inv @ y
        variances = (
            hp.signal_variance
            + hp.noise_variance
            - np.einsum("ij,ij->i", Kq @ Ky_inv, Kq)
        )
        stds = np.sqrt(np.maximum(variances, 0.0))
        assert np.abs(pred_mean - means).max() < 1e-8
        assert np.abs(pred_std - stds).max() < 1e-8

    def test_dimension_mismatch(self):
        model = build_model(np.zeros((3, 2)), np.zeros(3), hp_of())
        with pytest.raises(InputError):
            predict(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(2,), (0, 2), (1, 1, 2)])
    def test_query_that_is_not_a_nonempty_matrix(self, shape):
        model = build_model(np.eye(2), np.zeros(2), hp_of())
        with pytest.raises(InputError, match="query rows must form a nonempty 2-d array"):
            predict(model, np.zeros(shape))

    def test_std_never_exceeds_prior(self):
        rng = np.random.default_rng(20)
        hp = hp_of(0.8, 2.0, 0.3)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        model = build_model(X, y, hp)
        bound = math.sqrt(hp.signal_variance + hp.noise_variance)
        queries = rng.normal(size=(200, 3)) * rng.uniform(0.1, 10.0, size=(200, 1))
        _, std = predict(model, queries)
        assert (std <= bound + 1e-12).all()

    def test_std_shrinks_when_training_point_added_at_query(self):
        rng = np.random.default_rng(22)
        hp = hp_of(1.0, 1.0, 0.1)
        X = rng.uniform(-3, 3, size=(12, 1))
        y = rng.normal(size=12)
        query = np.array([[0.7]])
        _, (before,) = predict(build_model(X, y, hp), query)
        X2 = np.vstack([X, query])
        y2 = np.append(y, 0.5)
        _, (after,) = predict(build_model(X2, y2, hp), query)
        assert after <= before + 1e-12

    def test_training_residual_shrinks_with_noise(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-2, 2, size=(15, 2))
        y = rng.normal(size=15)
        residuals = []
        for noise in (1.0, 0.1, 0.001):
            model = build_model(X, y, hp_of(1.0, 1.0, noise))
            means, _ = predict(model, X)
            residuals.append(float(np.linalg.norm(y - means)))
        assert residuals[0] > residuals[1] > residuals[2]

    @pytest.mark.parametrize("block", [512, 2048])
    def test_blocked_prediction_matches_unblocked(self, monkeypatch, block):
        """Query batches larger than the block size split cleanly, to the bit of 2,048-row blocks."""
        rng = np.random.default_rng(24)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        model = build_model(X, y, hp_of(1.0, 1.0, 0.1))
        for tail in (7, 1):
            queries = rng.normal(size=(2048 + tail, 2))
            monkeypatch.setattr(gp_module, "_PREDICT_BLOCK", 2048)
            reference = predict(model, queries)
            monkeypatch.setattr(gp_module, "_PREDICT_BLOCK", block)
            mean, std = predict(model, queries)
            assert mean.shape == std.shape == (queries.shape[0],)
            assert mean.tobytes() == reference[0].tobytes()
            assert std.tobytes() == reference[1].tobytes()
            tail_mean, tail_std = predict(model, queries[block:])
            np.testing.assert_array_equal(mean[block:], tail_mean)
            np.testing.assert_array_equal(std[block:], tail_std)

    @pytest.mark.parametrize("value", [1.7e308, 1e160, -1e160, np.inf, -np.inf, np.nan])
    def test_rejects_query_row_with_non_finite_squared_norm(self, value):
        model = build_model(np.eye(3), np.arange(3.0), hp_of())
        queries = np.zeros((4, 3))
        queries[2, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="query row 2 "):
                predict(model, queries)

    def test_large_finite_query_row_reverts_to_prior(self):
        hp = hp_of(1.0, 2.0, 0.1)
        model = build_model(np.eye(3), np.arange(3.0), hp)
        mean, std = predict(model, np.full((1, 3), 1e150))
        assert mean[0] == 0.0
        assert std[0] == math.sqrt(hp.signal_variance + hp.noise_variance)


class TestDeterminism:
    def test_same_inputs_give_identical_archives(self, tmp_path):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 5, size=30).astype(float)
        paths = []
        for name in ("a.model", "b.model"):
            model = fit(X, y, restarts=2, seed=9)
            path = tmp_path / name
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

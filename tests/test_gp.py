"""Regression-engine tests: factorization, evidence, fitting, prediction."""

import copy
import math
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace

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

from conftest import duplicated_dyadic_rows, huge_pages_always, written_bytes


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

    def test_failed_inverse_is_a_numerical_error(self, monkeypatch):
        """dpotri reports a failure by info; the gradient's evidence terms say so."""
        monkeypatch.setattr(gp_module._lapack, "dpotri", lambda c, **kwargs: (c, 3))
        X = np.random.default_rng(13).normal(size=(6, 2))
        with pytest.raises(NumericalError, match=r"\(dpotri info 3\)"):
            log_marginal_likelihood(X, np.arange(6.0), hp_of())


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
        1e-4 and 1e-3. So the step is 1e-3. The noise stays at the floor and
        s2 = floor / r, so the evidence moves with r through s2 (its entry is
        about n/2) and both entries are checked alike.
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
        assert errors[1] < 1e-4


    @pytest.mark.parametrize("y_scale", [1.0, 1e-5], ids=["above floor", "floored"])
    def test_value_alone_has_the_same_bits_without_an_inverse(self, monkeypatch, y_scale):
        """One factorization on both sides of the noise floor, and neither dpotri nor strips."""
        rng = np.random.default_rng(11)
        X, y = rng.normal(size=(100, 3)), y_scale * rng.normal(size=100)
        S, theta = pairwise_sq_dists(X), np.array([0.1, math.log(0.3)])
        lml, _, hp = gp_module._profiled_evidence(S, y, theta)
        calls = []
        cholesky, dpotri = gp_module.cholesky_with_jitter, gp_module._lapack.dpotri
        rbf = gp_module.rbf_from_sq_dists

        def counting(name, function):
            return lambda *args, **kwargs: calls.append(name) or function(*args, **kwargs)

        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting("factor", cholesky))
        monkeypatch.setattr(gp_module._lapack, "dpotri", counting("invert", dpotri))
        monkeypatch.setattr(gp_module, "rbf_from_sq_dists", counting("exp", rbf))
        value, grad, value_hp = gp_module._profiled_evidence(S, y, theta, gradient=False)
        assert (math.exp(hp.log_noise_variance) > NOISE_VARIANCE_FLOOR) == (y_scale == 1.0)
        assert value.hex() == lml.hex()
        assert value_hp == hp
        assert np.isnan(grad).all()
        # Four strips, each built in two parts: its diagonal tile and the rest.
        assert calls == ["factor"] + ["exp"] * 8

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
        """The returned evidence is at least the evidence at each start grid point."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=21)
        model = fit(X, y, seed=21)
        best, _ = log_marginal_likelihood(model.X_train, model.y_train, model.hp)
        S = pairwise_sq_dists(X)
        for theta in start_grid(X):
            at_start = gp_module._profiled_evidence(S, y, theta, gradient=False)[0]
            assert best >= at_start - 1e-9

    def test_default_fit_finds_the_short_length_scale_basin(self):
        """Targets of two length-scales: the evidence has a short-l, low-noise optimum and a
        long-l, noisy one 32.6 nats below it (Rasmussen & Williams 2006, sec. 5.4.1). The
        grid's short starts reach the first; starts within [0.5, 2]x the median distance did not.
        """
        rng = np.random.default_rng(2)
        X = rng.normal(size=(2000, 4))
        grades = np.round(2 + 1.2 * np.sin(4 * X[:, 0]) + 1.2 * np.tanh(0.4 * X[:, 1]))
        grades = np.clip(grades, 0, 4)
        X = X[:500]
        model = fit((X - X.mean(axis=0)) / X.std(axis=0), grades[:500])
        assert model.log_evidence >= -636.47
        assert model.hp.length_scale < 1.0

    def test_default_fit_reaches_the_best_basin_of_synth_seed_14(self, monkeypatch):
        """2,000 z-scored synthetic rows with more than one basin: the one default search,
        from the best grid point, ends in the best basin that any start found."""
        _, X, grades = synthesize_dataset([400] * 5, 8, 6.0, 1.0, 14)
        calls = record_searches(monkeypatch)
        model = fit(apply_normalizer(fit_normalizer(X), X), grades.astype(float))
        assert len(calls) == 1
        assert model.log_evidence >= SYNTH_14_LML - 1e-4

    def test_same_seed_gives_identical_hyperparameters(self):
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=100, D=3, seed=31)
        first = log_array(fit(X, y, restarts=3, seed=31).hp)
        second = log_array(fit(X, y, restarts=3, seed=31).hp)
        assert first.tobytes() == second.tobytes()

    def test_subsample_is_the_seeds_and_the_search_starts_at_the_best_grid_point(
        self, monkeypatch
    ):
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=120, D=3, seed=30)
        model = fit(X, y, max_train=100, restarts=1, seed=30)
        idx = np.sort(np.random.default_rng(30).choice(120, size=100, replace=False))
        np.testing.assert_array_equal(model.X_train, X[idx])
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][0], ranked_starts(X[idx], y[idx])[0])

    def test_ranking_evaluates_each_grid_point_once_value_only(self, monkeypatch):
        """The ranking is one value-only evaluation per grid point, in grid order, at r = 0.1;
        every other evaluation is a search's, with its gradient."""
        value_only = []
        profiled = gp_module._profiled_evidence

        def recording(S, y, theta, gradient=True):
            if not gradient:
                value_only.append(np.array(theta))
            return profiled(S, y, theta, gradient=gradient)

        monkeypatch.setattr(gp_module, "_profiled_evidence", recording)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=34)
        fit(X, y, restarts=2, seed=34)
        assert len(value_only) == len(gp_module._START_GRID)
        for theta, expected in zip(value_only, start_grid(X)):
            np.testing.assert_array_equal(theta, expected)

    @pytest.mark.parametrize(
        "values, order",
        [
            ([-1.0] * 5, [0, 1, 2, 3, 4]),
            ([-3.0, -1.0, -2.0, -1.0, -5.0], [1, 3, 2, 0, 4]),
            ([-1.0, -4.0, -2.0, -3.0, -4.0], [0, 2, 3, 1, 4]),
        ],
        ids=["all tied", "tie for best", "tie for last"],
    )
    def test_a_tie_in_the_ranking_goes_to_the_earlier_grid_point(
        self, monkeypatch, values, order
    ):
        """The searches run from the grid points best evidence first, the earlier of a tie
        first; each search evaluates the true evidence."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=35)
        grid = start_grid(X)
        profiled = gp_module._profiled_evidence

        def ranked_by_table(S, y, theta, gradient=True):
            lml, grad, hp = profiled(S, y, theta, gradient=gradient)
            if not gradient:
                i = next(i for i, point in enumerate(grid) if np.array_equal(point, theta))
                return values[i], grad, hp
            return lml, grad, hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", ranked_by_table)
        calls = record_searches(monkeypatch)
        fit(X, y, restarts=5, seed=35)
        assert len(calls) == 5
        for (x0, _), i in zip(calls, order):
            np.testing.assert_array_equal(x0, grid[i])

    @pytest.mark.parametrize(
        "failure",
        [NumericalError("no factor"), OverflowError("overflow"), math.nan, math.inf],
        ids=["raises", "overflows", "nan", "inf"],
    )
    def test_a_grid_point_whose_evidence_is_not_computable_is_not_searched(
        self, monkeypatch, failure
    ):
        """The best-ranked grid point fails: five restarts search from the other four, in
        their rank order. An infinite evidence is not computable either, and does not rank
        first."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=36)
        best, *rest = ranked_starts(X, y)
        profiled = gp_module._profiled_evidence

        def failing_best(S, y, theta, gradient=True):
            lml, grad, hp = profiled(S, y, theta, gradient=gradient)
            if not gradient and np.array_equal(theta, best):
                if isinstance(failure, Exception):
                    raise failure
                return failure, grad, hp
            return lml, grad, hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_best)
        calls = record_searches(monkeypatch)
        model = fit(X, y, restarts=5, seed=36)
        assert len(calls) == 4
        for (x0, _), theta in zip(calls, rest):
            np.testing.assert_array_equal(x0, theta)
        assert math.isfinite(model.log_evidence)

    @pytest.mark.parametrize(
        "n, restarts, searches", [(79, None, 2), (80, None, 1), (80, 3, 3), (80, 9, 5)]
    )
    def test_one_search_per_restart(self, monkeypatch, n, restarts, searches):
        """From the top ``restarts`` grid points, all five at most; by default two below
        ``_ONE_SEARCH_MIN_N`` rows and one from there on."""
        monkeypatch.setattr(gp_module, "_ONE_SEARCH_MIN_N", 80)
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=n, D=3, seed=33)
        fit(X, y, restarts=restarts, seed=33)
        assert len(calls) == searches
        for (x0, _), theta in zip(calls, ranked_starts(X, y)):
            np.testing.assert_array_equal(x0, theta)

    @pytest.mark.parametrize("floored", [False, True], ids=["above floor", "floored"])
    def test_one_factorization_per_optimizer_evaluation(self, monkeypatch, floored):
        """No evidence call outside the grid's ranking and the optimizer's own, plus the
        final build; also where the noise floor binds (np.sin of 25 points on [0, 3])."""
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
        if floored:
            X = np.linspace(0.0, 3.0, 25)[:, None]
            y = np.sin(X[:, 0])
        model = fit(X, y, restarts=3, seed=22)
        assert (math.exp(model.hp.log_noise_variance) < NOISE_VARIANCE_FLOOR) == floored
        assert len(nfev) == 3
        assert len(factorizations) == len(gp_module._START_GRID) + sum(nfev) + 1

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_one_distance_pass_per_fit(self, monkeypatch, restarts):
        """Two passes of pairwise_sq_dists for the search, however many evaluations and
        searches it makes: the second rebuilds the distances in the buffer the median
        partitioned. They are freed before the final model's kernel is built from X: one more
        pass of the distance code, no mirror."""
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
        model = fit(X, y, restarts=restarts, seed=22)
        assert calls == {"pairwise": 2, "distances": 3}
        assert model.L_inv.tobytes() == build_model(X, y, model.hp).L_inv.tobytes()

    @pytest.mark.parametrize("shape", ["n=600", "benchmark"])
    def test_fit_holds_one_n_by_n_array(self, request, shape):
        """The distances, in whose buffer the median is partitioned, the distances rebuilt,
        and every kernel built, factored and inverted: no copy of a triangle beside them. At
        the benchmark's shape, the whole default-flag train of the shared archive, in its own
        process: it parses, ranks the grid, runs one search and saves."""
        if shape == "benchmark":
            n, peak = 2000, request.getfixturevalue("benchmark_archive")["peak"]
        else:
            rng = np.random.default_rng(38)
            n, X, y = 600, rng.normal(size=(600, 8)), rng.normal(size=600)
            _, peak = traced_peak(lambda: fit(X, y, restarts=1, seed=38))
        assert peak < 1.25 * n * n * 8

    def test_train_holds_one_n_by_n_array_resident(self, benchmark_archive):
        """The shared archive's train, in its fresh process: VmHWM grows past the VmRSS before
        train by S, the OpenBLAS buffers and strips of the gradient evaluations, and tracing
        (1.41-1.44 n^2 8 B at 1, 2 and 4 threads). A copy of S's lower triangle beside S reads
        1.66, and an S freed and allocated again 2.13-2.18: glibc serves the second from the
        heap, where it stays beside the model's mapping."""
        if benchmark_archive["hwm"] is None:
            pytest.skip("/proc/self/status has no VmHWM line")
        assert benchmark_archive["hwm"] - benchmark_archive["rss"] < 1.55 * 2000 * 2000 * 8

    @pytest.mark.parametrize(
        "evidence",
        [(np.nan, np.zeros(2), None), NumericalError("no factor")],
        ids=["nan", "raises"],
    )
    def test_evidence_that_fails_at_every_restart(self, monkeypatch, evidence):
        def failing_evidence(S, y, theta, gradient=True):
            if isinstance(evidence, Exception):
                raise evidence
            return evidence

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_evidence)
        X, y = sample_from_prior(hp_of(), n=10, D=2, seed=1)
        with pytest.raises(NumericalError, match="non-finite at every restart"):
            fit(X, y, restarts=2, seed=1)

    @pytest.mark.parametrize("slope", [0.0, 1.0], ids=["zero gradient", "gradient"])
    def test_tied_evidence_freezes_the_first_start(self, monkeypatch, slope):
        """Every point ties, so the grid keeps its order and the earliest point evaluated
        wins: the first grid point, the first search's start.

        With a zero gradient each search stops at its start; with a gradient
        that the flat value never bears out, it evaluates more tied points.
        """

        def flat(S, y, theta, gradient=True):
            hp = Hyperparams(float(theta[0]), 0.0, float(theta[1]))
            return -1.0, np.array([slope, 0.0]), hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", flat)
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=60, D=3, seed=42)
        model = fit(X, y, restarts=3, seed=42)
        grid = start_grid(X)
        assert len(calls) == 3
        for (x0, _), theta in zip(calls, grid):
            np.testing.assert_array_equal(x0, theta)
        assert model.hp == Hyperparams(grid[0][0], 0.0, grid[0][1])

    @pytest.mark.parametrize("failure", ["raises", "nan gradient", "nan", "inf"])
    def test_evidence_that_fails_early_in_every_search(self, monkeypatch, failure):
        """Failed points are passed over: the best computable point is frozen.

        The best-ranked grid point is not computable, so no search starts there: the next
        three do. Each fails at its first trial step, its second evaluation, and goes on
        from there. That step raises, has a higher evidence than any other but a NaN
        gradient, or has a NaN or an infinite evidence.
        """
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=60, D=3, seed=41)
        best, *rest = ranked_starts(X, y)
        calls = record_searches(monkeypatch)
        searches, computed = [], []
        profiled = gp_module._profiled_evidence

        def failing_early(S, y, theta, gradient=True):
            if not gradient:  # the grid's ranking
                if np.array_equal(theta, best):
                    raise NumericalError("no factor")
                return profiled(S, y, theta, gradient=False)
            search = len(calls)  # a search is recorded once it has finished
            searches.append(search)
            lml, grad, hp = profiled(S, y, theta)
            if searches.count(search) == 2:
                if failure == "raises":
                    raise NumericalError("no factor")
                if failure == "nan gradient":
                    return 0.0, np.full(2, np.nan), hp
                return float(failure), grad, hp
            computed.append((lml, hp))
            return lml, grad, hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_early)
        model = fit(X, y, restarts=3, seed=41)
        assert len(calls) == 3
        for (x0, _), theta in zip(calls, rest):
            np.testing.assert_array_equal(x0, theta)
        assert min(searches.count(i) for i in range(3)) > 2
        lml, hp = max(computed, key=lambda point: point[0])
        assert model.hp == hp
        assert model.log_evidence == pytest.approx(lml, rel=1e-9)

    def test_searches_from_every_computable_grid_point_if_fewer_than_restarts(self, monkeypatch):
        """Only the two longest grid points are computable: four restarts search from both."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=43)
        grid = start_grid(X)
        profiled = gp_module._profiled_evidence

        def failing_short(S, y, theta, gradient=True):
            if not gradient and theta[0] < grid[3][0]:
                raise NumericalError("no factor")
            return profiled(S, y, theta, gradient=gradient)

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_short)
        calls = record_searches(monkeypatch)
        fit(X, y, restarts=4, seed=43)
        assert sorted(x0[0] for x0, _ in calls) == [grid[3][0], grid[4][0]]

    @pytest.mark.parametrize("failure", ["raises", "nan", "inf"])
    @pytest.mark.parametrize("failing", [(2,), (2, 3)], ids=["second", "second and third"])
    def test_failed_trial_steps_do_not_stop_a_search(self, monkeypatch, failing, failure):
        """A search backs off from a failed step, one that raises or whose evidence is NaN or
        infinite, and ends where the unwrapped fit does."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=60, D=3, seed=41)
        unwrapped = fit(X, y, restarts=3, seed=41).log_evidence
        calls = record_searches(monkeypatch)
        searches = []
        profiled = gp_module._profiled_evidence

        def failing_steps(S, y, theta, gradient=True):
            if not gradient:  # the grid's ranking
                return profiled(S, y, theta, gradient=False)
            searches.append(len(calls))  # a search is recorded once it has finished
            lml, grad, hp = profiled(S, y, theta)
            if searches.count(searches[-1]) not in failing:
                return lml, grad, hp
            if failure == "raises":
                raise NumericalError("no factor")
            return float(failure), grad, hp

        monkeypatch.setattr(gp_module, "_profiled_evidence", failing_steps)
        model = fit(X, y, restarts=3, seed=41)
        assert len(calls) == 3
        assert model.log_evidence == pytest.approx(unwrapped, rel=1e-9)

    def test_identical_rows_start_around_unit_length_scale(self, monkeypatch):
        """Every pairwise distance is 0, so the median falls back to 1: the grid is 1's."""
        calls = record_searches(monkeypatch)
        X = np.full((12, 3), 0.25)
        y = np.random.default_rng(2).normal(size=12)
        model = fit(X, y, restarts=3, seed=2)
        assert len(calls) == 3
        assert {x0[0] for x0, _ in calls} <= {math.log(scale) for scale in gp_module._START_GRID}
        mean, std = predict(model, X[:1])
        assert mean[0] == pytest.approx(y.mean(), abs=0.05)
        assert np.isfinite(std).all()

    def test_rows_farther_apart_than_the_float_range(self, monkeypatch):
        """The median distance overflows: the grid falls back to it being 1.

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
        assert {x0[0] for x0, _ in calls} <= {math.log(scale) for scale in gp_module._START_GRID}

    @pytest.mark.parametrize("restarts", [1, 3, 5])
    def test_fit_ends_at_a_profile_optimum(self, monkeypatch, restarts):
        """At the fitted point the evidence is flat along log s2 at fixed r, and it is the
        best evidence that the ranking or any search evaluated."""
        values = record_evidence(monkeypatch)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=60, D=3, seed=40)
        model = fit(X, y, restarts=restarts, seed=40)
        _, grad = log_marginal_likelihood(model.X_train, model.y_train, model.hp)
        assert abs(grad[1] + grad[2]) < 1e-4
        assert model.log_evidence == pytest.approx(max(values), rel=1e-9)

    def test_all_zero_targets_fit_a_finite_model(self):
        X = np.random.default_rng(4).normal(size=(20, 3))
        model = fit(X, np.zeros(20), restarts=2, seed=4)
        assert math.isfinite(model.log_evidence)
        mean, std = predict(model, X[:3])
        np.testing.assert_array_equal(mean, 0.0)
        assert np.isfinite(std).all()

    def test_noise_free_targets_hold_the_noise_at_the_floor(self, monkeypatch):
        """The search maximizes the evidence of the floored noise that fit freezes: the
        model's hp is the best searched point's, and its evidence, from its own factor of
        s2 * K~ + floor * I rather than the search's of K~ + r*I, that point's to rounding."""
        points, profiled = [], gp_module._profiled_evidence

        def recording(*args, **kwargs):
            points.append(profiled(*args, **kwargs))
            return points[-1]

        monkeypatch.setattr(gp_module, "_profiled_evidence", recording)
        X = np.linspace(0.0, 3.0, 25)[:, None]
        model = fit(X, np.sin(X[:, 0]), restarts=3, seed=0)
        assert math.exp(model.hp.log_noise_variance) < NOISE_VARIANCE_FLOOR
        assert model.hp.noise_variance >= NOISE_VARIANCE_FLOOR
        assert math.isfinite(model.log_evidence)
        best, _, best_hp = max(points, key=lambda point: point[0])
        assert model.hp == best_hp
        assert model.log_evidence == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize("m, lbfgsb_evaluations, lbfgsb_lml", [(15, 195, 74.835847),
                                                                  (40, 234, 274.407626)])
    def test_noise_floor_kink_costs_fewer_evaluations(
        self, monkeypatch, m, lbfgsb_evaluations, lbfgsb_lml
    ):
        """np.sin of m points on [0, 3]: the noise floor binds, and the profiled evidence
        has a kink where r * s2 crosses it. scipy's L-BFGS-B took the evaluations and reached
        the evidence given here, ending ABNORMAL in two of the three searches; the backtracking
        search takes fewer and ends at most 0.1 nats lower."""
        calls = record_searches(monkeypatch)
        X = np.linspace(0.0, 3.0, m)[:, None]
        model = fit(X, np.sin(X[:, 0]), restarts=3)
        assert len(calls) == 3
        assert sum(result.nfev for _, result in calls) < lbfgsb_evaluations
        assert model.log_evidence >= lbfgsb_lml - 0.1

    def test_rejects_bad_config(self):
        X = np.zeros((4, 2))
        y = np.zeros(4)
        with pytest.raises(InputError):
            fit(X, y, max_train=1, restarts=1, seed=0)
        with pytest.raises(InputError):
            fit(X, y, restarts=0, seed=0)
        with pytest.raises(InputError, match="seed"):
            fit(X, y, restarts=1, seed=-3)


def quadratic(x_min, A=((3.0, 1.0), (1.0, 2.0))):
    """(f, gradient) of (x - x_min)^T A (x - x_min) / 2, whose least value is 0 at x_min."""
    A, x_min = np.array(A), np.array(x_min)
    return lambda x: (0.5 * float((x - x_min) @ A @ (x - x_min)), A @ (x - x_min))


def rosenbrock(x):
    a, b = x
    return (1 - a) ** 2 + 100 * (b - a * a) ** 2, np.array(
        [-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]
    )


def recorded(fun):
    """fun, and the list of the points it is called at, in call order."""
    points = []

    def recording(x):
        points.append(np.array(x))
        return fun(x)

    return recording, points


GTOL_STOP = "max |g| <= gtol"
FTOL_STOP = "relative reduction of f <= ftol"
MAXITER_STOP = "maxiter iterations"
STUCK = "no step lowers f"


class TestMinimize:
    """``gp.minimize``, the two-variable L-BFGS that every evidence search runs."""

    @pytest.mark.parametrize(
        "x_min, A, x0",
        [
            ((0.8, -1.4), ((3.0, 1.0), (1.0, 2.0)), (4.0, -3.0)),
            ((1.0, 2.0), ((10.0, -4.0), (-4.0, 3.0)), (0.0, 0.0)),
            ((1.0, 2.0), ((1.0, 0.9), (0.9, 1.0)), (-3.0, 0.0)),
        ],
        ids=["coupled", "steep", "narrow valley"],
    )
    def test_reaches_the_minimizer_of_a_convex_quadratic(self, x_min, A, x0):
        result = gp_module.minimize(quadratic(x_min, A), np.array(x0))
        assert result.message == GTOL_STOP
        np.testing.assert_allclose(result.x, x_min, rtol=0, atol=1e-5)
        assert result.fun < 1e-10

    def test_rosenbrock_from_the_classic_start(self):
        result = gp_module.minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert result.message in (GTOL_STOP, FTOL_STOP)
        assert result.nit < gp_module.LBFGS_OPTIONS["maxiter"]
        np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=0, atol=1e-3)
        assert result.fun == rosenbrock(result.x)[0]

    def test_gtol_stops_at_the_first_iterate_flat_enough(self, monkeypatch):
        """With ftol off, gtol ends the search: |g| <= 1e-5 at its end, and not one
        iteration earlier, where maxiter ends the same search instead."""
        monkeypatch.setitem(gp_module.LBFGS_OPTIONS, "ftol", 0.0)
        fun = quadratic((0.8, -1.4))
        result = gp_module.minimize(fun, np.array([4.0, -3.0]))
        assert result.message == GTOL_STOP
        assert np.abs(fun(result.x)[1]).max() <= 1e-5
        monkeypatch.setitem(gp_module.LBFGS_OPTIONS, "maxiter", result.nit - 1)
        before = gp_module.minimize(fun, np.array([4.0, -3.0]))
        assert before.message == MAXITER_STOP
        assert np.abs(fun(before.x)[1]).max() > 1e-5

    def test_gtol_stops_at_a_flat_start(self):
        result = gp_module.minimize(quadratic((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))),
                                    np.array([1e-5, -1e-5]))
        assert (result.message, result.nfev, result.nit) == (GTOL_STOP, 1, 0)
        np.testing.assert_array_equal(result.x, [1e-5, -1e-5])

    def test_ftol_stops_at_the_first_small_relative_reduction(self, monkeypatch):
        """With gtol off, ftol ends the search: the last step lowered f by at most 1e-6 of
        max(|f|, 1), and one iteration earlier maxiter ends the same search instead."""
        monkeypatch.setitem(gp_module.LBFGS_OPTIONS, "gtol", 0.0)
        result = gp_module.minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert result.message == FTOL_STOP
        monkeypatch.setitem(gp_module.LBFGS_OPTIONS, "maxiter", result.nit - 1)
        before = gp_module.minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert before.message == MAXITER_STOP
        reduction = (before.fun - result.fun) / max(abs(before.fun), abs(result.fun), 1.0)
        assert 0.0 < reduction <= 1e-6

    @pytest.mark.parametrize("maxiter", [1, 5])
    def test_maxiter_stops_after_that_many_steps(self, monkeypatch, maxiter):
        monkeypatch.setitem(gp_module.LBFGS_OPTIONS, "maxiter", maxiter)
        result = gp_module.minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert (result.message, result.nit) == (MAXITER_STOP, maxiter)

    @pytest.mark.parametrize(
        "fun", [quadratic((0.8, -1.4)), rosenbrock], ids=["quadratic", "rosenbrock"]
    )
    def test_nfev_counts_every_call(self, fun):
        counted, points = recorded(fun)
        result = gp_module.minimize(counted, np.array([-1.2, 1.0]))
        assert result.nfev == len(points)
        assert result.nit < result.nfev

    def test_first_step_is_unit_length_along_the_negative_gradient(self):
        fun, points = recorded(quadratic((0.8, -1.4)))
        gp_module.minimize(fun, np.array([4.0, -3.0]))
        g = fun(np.array([4.0, -3.0]))[1]
        np.testing.assert_allclose(points[1], points[0] - g / math.hypot(*g), rtol=1e-15)

    @pytest.mark.parametrize(
        "failure",
        [(math.nan, None), (math.inf, None), (-math.inf, None), (None, math.nan), (None, math.inf)],
        ids=["nan", "inf", "-inf", "nan gradient", "inf gradient"],
    )
    def test_a_trial_that_is_not_finite_backtracks_tenfold(self, failure):
        """The first trial fails: the second is a tenth of its step, and the search goes on
        to the minimizer."""
        f_bad, g_bad = failure
        fun = quadratic((0.8, -1.4))

        def failing_first_trial(x):
            f, g = fun(x)
            if len(points) == 2:
                return f if f_bad is None else f_bad, g if g_bad is None else np.full(2, g_bad)
            return f, g

        counted, points = recorded(failing_first_trial)
        result = gp_module.minimize(counted, np.array([4.0, -3.0]))
        step = points[1] - points[0]
        np.testing.assert_allclose(points[2], points[0] + 0.1 * step, rtol=1e-15)
        assert result.message == GTOL_STOP
        np.testing.assert_allclose(result.x, [0.8, -1.4], rtol=0, atol=1e-5)

    def test_a_start_that_is_not_finite_takes_no_step(self):
        result = gp_module.minimize(lambda x: (math.nan, np.zeros(2)), np.array([1.0, 2.0]))
        assert (result.message, result.nfev, result.nit) == (STUCK, 1, 0)
        np.testing.assert_array_equal(result.x, [1.0, 2.0])

    def test_a_failed_line_search_clears_the_pairs_then_stops(self):
        """Every point after the fourth evaluation fails: the line search that holds pairs
        tries 20 steps, then one from the negative gradient, whose 20 fail too."""
        fun = quadratic((0.8, -1.4))
        counted, points = recorded(lambda x: fun(x) if len(points) <= 4 else (math.nan, fun(x)[1]))
        result = gp_module.minimize(counted, np.array([4.0, -3.0]))
        assert (result.message, result.nfev) == (STUCK, 4 + 20 + 20)
        x, g = result.x, fun(result.x)[1]
        np.testing.assert_array_equal(points[3], x)
        np.testing.assert_allclose(points[24], x - g / math.hypot(*g), rtol=1e-15)

    @pytest.mark.parametrize(
        "fun", [quadratic((0.8, -1.4)), rosenbrock], ids=["quadratic", "rosenbrock"]
    )
    def test_best_is_the_note_of_the_first_point_of_least_f(self, fun):
        values = []

        def noted(x):
            f, g = fun(x)
            values.append(f)
            return f, g, len(values) - 1

        result = gp_module.minimize(noted, np.array([-1.2, 1.0]))
        assert result.best == values.index(min(values))
        assert values[result.best] == result.fun

    def test_a_tie_goes_to_the_earliest_point(self):
        """f is flat but its gradient is not: every trial ties with the start, call 1, which
        is best."""
        counted, points = recorded(lambda x: (1.0, np.array([1.0, 0.0]), len(points)))
        result = gp_module.minimize(counted, np.array([0.5, 0.5]))
        assert (result.message, result.nfev) == (STUCK, 21)
        assert result.best == 1

    def test_a_trial_the_armijo_test_refuses_can_be_best(self):
        """The first trial lowers f by 1e-5, less than the Armijo test's 1e-4 along a unit
        step of slope -1, so no step is taken; no later trial is lower, so it, call 2, is
        best."""

        def barely_lower(x):
            points.append(x)
            return 1.0 - (len(points) == 2) * 1e-5, np.array([1.0, 0.0]), len(points)

        points = []
        result = gp_module.minimize(barely_lower, np.array([0.5, 0.5]))
        assert (result.message, result.nfev, result.nit) == (STUCK, 21, 0)
        np.testing.assert_array_equal(result.x, [0.5, 0.5])
        assert result.fun == 1.0
        assert result.best == 2

    @pytest.mark.parametrize("start", [(math.nan, 0.0), (1.0, math.inf)], ids=["f", "gradient"])
    def test_a_start_that_is_not_finite_has_no_best(self, start):
        f, g = start
        result = gp_module.minimize(lambda x: (f, np.full(2, g), "start"), np.array([1.0, 2.0]))
        assert result.best is None

    def test_a_fun_without_notes_still_minimizes_and_has_no_best(self):
        result = gp_module.minimize(quadratic((0.8, -1.4)), np.array([4.0, -3.0]))
        assert result.message == GTOL_STOP
        np.testing.assert_allclose(result.x, [0.8, -1.4], rtol=0, atol=1e-5)
        assert result.best is None


# The best evidence known on synth seed 14 (2,000 rows, z-scored), to five decimals.
SYNTH_14_LML = 771.02642


def record_evidence(monkeypatch):
    """The evidence at every point the ranking and the searches evaluate, in call order."""
    values = []
    profiled = gp_module._profiled_evidence

    def recording(S, y, theta, **kwargs):
        lml, grad, hp = profiled(S, y, theta, **kwargs)
        values.append(lml)
        return lml, grad, hp

    monkeypatch.setattr(gp_module, "_profiled_evidence", recording)
    return values


def record_searches(monkeypatch):
    """Record (x0, result) of every ``gp.minimize`` search."""
    calls = []
    minimize = gp_module.minimize

    def recording(fun, x0, **kwargs):
        result = minimize(fun, x0, **kwargs)
        calls.append((x0, result))
        return result

    monkeypatch.setattr(gp_module, "minimize", recording)
    return calls


def start_grid(X):
    """fit's start grid for training rows X, in grid order: theta = (log l, log 0.1)."""
    S = pairwise_sq_dists(X)
    median_dist = math.sqrt(float(np.median(S[np.triu_indices(X.shape[0], 1)])))
    scales = gp_module._START_GRID
    return [np.array([math.log(scale * median_dist), math.log(0.1)]) for scale in scales]


def ranked_starts(X, y):
    """fit's start grid for (X, y), best evidence first, a tie to the earlier grid point."""
    S, grid = pairwise_sq_dists(X), start_grid(X)
    values = [gp_module._profiled_evidence(S, y, theta, gradient=False)[0] for theta in grid]
    return [grid[i] for i in sorted(range(len(grid)), key=lambda i: -values[i])]


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
        monkeypatch.setattr(gp_module._lapack, "dtrtri", lambda L, **kwargs: (L, 6))
        with pytest.raises(NumericalError, match="diagonal 5 "):
            build_model(np.eye(8), np.arange(8.0), hp_of())

    def test_factor_is_inverted_once_in_place_when_the_model_is_built(
        self, tmp_path, monkeypatch
    ):
        """One dtrtri per fit, build_model or load_model, in the factor's own buffer;
        predicts invert nothing and leave L^-1 as it was."""
        calls = []
        dtrtri = gp_module._lapack.dtrtri

        def counted(L, **kwargs):
            reference, _ = dtrtri(L, lower=1)  # into a new buffer
            L_inv, info = dtrtri(L, **kwargs)
            calls.append((L_inv is L, L_inv.tobytes() == reference.tobytes()))
            return L_inv, info

        monkeypatch.setattr(gp_module._lapack, "dtrtri", counted)
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
        dtrtri = gp_module._lapack.dtrtri
        monkeypatch.setattr(
            gp_module._lapack, "dtrtri", lambda *a, **k: calls.append(1) or dtrtri(*a, **k)
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
    @pytest.mark.parametrize("shape, bound", [("n=1,536", 0.70), ("benchmark", 0.75)])
    def test_model_inverse_leaves_its_other_triangle_off_the_resident_set(
        self, request, shape, bound
    ):
        """L^-1 lives in a mapping of 4 KiB pages of which only its triangle is written, so
        about half of its pages are written, huge-page advice or not; also as the shared
        benchmark-shape archive loads."""
        if shape == "benchmark":
            model = load_model(request.getfixturevalue("benchmark_archive")["model"])
        else:
            rng = np.random.default_rng(37)
            X, y = rng.normal(size=(1536, 3)), rng.normal(size=1536)
            model = build_model(X, y, hp_of(1.0, 1.0, 0.1))
        n = model.L_inv.shape[0]
        assert written_bytes(model.L_inv) <= bound * n * n * 8
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

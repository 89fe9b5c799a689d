"""Regression-engine tests: factorization, evidence, fitting, prediction."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve

from gpgrade import (
    Hyperparams,
    InputError,
    NumericalError,
    build_model,
    fit,
    predict,
)
from gpgrade import gp as gp_module
from gpgrade.data import save_model
from gpgrade.gp import cholesky_with_jitter, log_marginal_likelihood
from gpgrade.kernel import NOISE_VARIANCE_FLOOR, kernel_matrix, pairwise_sq_dists


def hp_of(length_scale=1.0, signal_variance=1.0, noise_variance=1.0):
    return Hyperparams(
        math.log(length_scale), math.log(signal_variance), math.log(noise_variance)
    )


def sample_from_prior(hp, n, D, seed, x_scale=1.5):
    """Draw (X, y) with y an exact function sample plus observation noise."""
    rng = np.random.default_rng(seed)
    X = x_scale * rng.normal(size=(n, D))
    L, _ = cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)
    y = L @ rng.normal(size=n)
    return X, y


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
        _, grad = log_marginal_likelihood(X, y, Hyperparams.from_log_array(theta))
        step = 1e-5
        for i in range(3):
            plus = theta.copy()
            plus[i] += step
            minus = theta.copy()
            minus[i] -= step
            up, _ = log_marginal_likelihood(X, y, Hyperparams.from_log_array(plus))
            down, _ = log_marginal_likelihood(X, y, Hyperparams.from_log_array(minus))
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


class TestBuildModel:
    def test_factor_reconstructs_training_system(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        hp = hp_of(1.1, 0.9, 0.2)
        model = build_model(X, y, hp)
        Ky = kernel_matrix(X, X, hp) + hp.noise_variance * np.eye(15)
        rel = np.linalg.norm(model.chol_L @ model.chol_L.T - Ky, "fro")
        rel /= np.linalg.norm(Ky, "fro")
        assert rel < 1e-8

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
        err = np.abs(model.hp.to_log_array() - hp_star.to_log_array())
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

        def counting_cholesky(K, noise=0.0):
            factorizations.append(K.shape)
            return cholesky(K, noise)

        monkeypatch.setattr(gp_module, "minimize", counting_minimize)
        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting_cholesky)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=22)
        fit(X, y, restarts=3, seed=22)
        assert len(nfev) == 3
        assert len(factorizations) == sum(nfev) + 1

    def test_rejects_bad_config(self):
        X = np.zeros((4, 2))
        y = np.zeros(4)
        with pytest.raises(InputError):
            fit(X, y, max_train=1, restarts=1, seed=0)
        with pytest.raises(InputError):
            fit(X, y, restarts=0, seed=0)
        with pytest.raises(InputError, match="seed"):
            fit(X, y, restarts=1, seed=-3)


class TestPredict:
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

    def test_blocked_prediction_matches_unblocked(self):
        """Query batches larger than the internal block size split cleanly."""
        rng = np.random.default_rng(24)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        model = build_model(X, y, hp_of(1.0, 1.0, 0.1))
        for tail in (7, 1):
            queries = rng.normal(size=(gp_module._PREDICT_BLOCK + tail, 2))
            mean, std = predict(model, queries)
            assert mean.shape == std.shape == (queries.shape[0],)
            tail_mean, tail_std = predict(model, queries[gp_module._PREDICT_BLOCK :])
            np.testing.assert_array_equal(mean[gp_module._PREDICT_BLOCK :], tail_mean)
            np.testing.assert_array_equal(std[gp_module._PREDICT_BLOCK :], tail_std)

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

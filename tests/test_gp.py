"""Regression-engine tests: factorization, evidence, fitting, prediction."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.linalg import blas, cho_solve, solve_triangular

from gpgrade import (
    GPModel,
    Hyperparams,
    InputError,
    NumericalError,
    build_model,
    fit,
    predict,
)
from gpgrade import gp as gp_module
from gpgrade import kernel as kernel_module
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

        def counting_cholesky(K, noise=0.0):
            factorizations.append(K.shape)
            return cholesky(K, noise)

        monkeypatch.setattr(gp_module, "minimize", counting_minimize)
        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting_cholesky)
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=22)
        fit(X, y, restarts=3, seed=22)
        assert len(nfev) == 3
        assert len(factorizations) == sum(nfev) + 1

    def test_one_distance_pass_per_fit(self, monkeypatch):
        """The final model is built from the distances the search used."""
        X, y = sample_from_prior(hp_of(1.5, 2.0, 0.1), n=40, D=3, seed=22)
        calls = []
        pairwise = kernel_module.pairwise_sq_dists

        def counting_pairwise(*args):
            calls.append(args)
            return pairwise(*args)

        monkeypatch.setattr(gp_module, "pairwise_sq_dists", counting_pairwise)
        monkeypatch.setattr(kernel_module, "pairwise_sq_dists", counting_pairwise)
        fit(X, y, restarts=3, seed=22)
        assert len(calls) == 1

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

        def flat(S, y, theta):
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

        def failing_early(S, y, theta):
            search = len(calls)  # a search is recorded once it has finished
            searches.append(search)
            if search == 0:
                raise NumericalError("no factor")
            lml, grad, hp = profiled(S, y, theta)
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

    def recording(S, y, theta):
        lml, grad, hp = profiled(S, y, theta)
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


class TestTwoStageFit:
    """Restarts on a subset, then a guard restart and a polish on the full set."""

    HP = hp_of(1.5, 2.0, 0.1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_guard_catches_a_polish_stuck_in_a_poor_basin(self, two_stage, monkeypatch, seed):
        # Every subset search starts at a length-scale of e^8, far past the
        # data, where the evidence is flat in it: the subset optimum stays
        # there and so does a polish from it.
        far = np.array([8.0, math.log(0.1)])
        calls = record_searches(monkeypatch, lambda i, x0: far if i < 3 else x0)
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=seed)
        model = fit(X, y, restarts=3, seed=seed)
        assert len(calls) == 5
        guard, polish = calls[3][1], calls[4][1]
        assert -polish.fun < -guard.fun - 10.0
        assert model.hp.log_length_scale == guard.x[0]
        log_ratio = model.hp.log_noise_variance - model.hp.log_signal_variance
        assert log_ratio == pytest.approx(guard.x[1], abs=1e-12)
        assert model.log_evidence == pytest.approx(-guard.fun, rel=1e-9)

    def test_subsample_and_first_start_are_those_of_one_stage(self, two_stage, monkeypatch):
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(self.HP, n=120, D=3, seed=30)
        model = fit(X, y, max_train=100, restarts=3, seed=30)

        # Replay the training subsample and the first start the way fit draws them.
        rng = np.random.default_rng(30)
        idx = np.sort(rng.choice(120, size=100, replace=False))
        np.testing.assert_array_equal(model.X_train, X[idx])
        S = pairwise_sq_dists(X[idx])
        median_dist = math.sqrt(float(np.median(S[np.triu_indices(100, 1)])))
        log_l0 = rng.uniform(math.log(0.5 * median_dist), math.log(2.0 * median_dist))
        theta0 = np.array([log_l0, math.log(0.1)])
        np.testing.assert_array_equal(calls[0][0], theta0)  # first subset search
        np.testing.assert_array_equal(calls[3][0], theta0)  # full-set guard

    def test_same_seed_gives_identical_hyperparameters(self, two_stage):
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=31)
        first = log_array(fit(X, y, restarts=3, seed=31).hp)
        second = log_array(fit(X, y, restarts=3, seed=31).hp)
        assert first.tobytes() == second.tobytes()

    def test_one_factorization_per_optimizer_evaluation(self, two_stage, monkeypatch):
        calls = record_searches(monkeypatch)
        shapes = []
        cholesky = gp_module.cholesky_with_jitter

        def counting_cholesky(K, noise=0.0):
            shapes.append(K.shape)
            return cholesky(K, noise)

        monkeypatch.setattr(gp_module, "cholesky_with_jitter", counting_cholesky)
        X, y = sample_from_prior(self.HP, n=100, D=3, seed=32)
        fit(X, y, restarts=3, seed=32)
        nfev = [result.nfev for _, result in calls]
        assert len(nfev) == 3 + 2
        assert len(shapes) == sum(nfev) + 1
        assert shapes.count((40, 40)) == sum(nfev[:3])

    @pytest.mark.parametrize("n, restarts", [(100, 1), (79, 3)])
    def test_one_search_per_restart_otherwise(self, two_stage, monkeypatch, n, restarts):
        calls = record_searches(monkeypatch)
        X, y = sample_from_prior(self.HP, n=n, D=3, seed=33)
        model = fit(X, y, restarts=restarts, seed=33)
        assert len(calls) == restarts
        assert model.X_train.shape == (n, 3)


def floor_noise_model(jitter):
    """A 200-row model at the noise floor; with jitter, duplicated dyadic rows at s2 = 2**30,
    which the factorization cannot take without it (see test_jitter_escalation)."""
    rng = np.random.default_rng(34)
    if not jitter:
        X = rng.normal(size=(200, 5))
        return build_model(X, rng.normal(size=200), hp_of(1.5, 1.5, NOISE_VARIANCE_FLOOR)), rng
    X = 0.25 * rng.integers(-8, 9, size=(200, 6))
    y = rng.normal(size=200)
    X[1::40] = X[0::40]
    y[1::40] = y[0::40]
    hp = Hyperparams(0.0, 30.0 * math.log(2.0), math.log(NOISE_VARIANCE_FLOOR))
    assert cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)[1] > 0.0
    return build_model(X, y, hp), rng


def triangular_solve_prediction(model, Xq):
    """Mean and (unclamped) variance of one query block by a triangular solve on the factor."""
    Kq = kernel_matrix(Xq, model.X_train, model.hp)
    mean = blas.dgemv(1.0, Kq.T, model.alpha, trans=1)
    W = solve_triangular(model.chol_L, Kq.T, lower=True)
    prior = model.hp.signal_variance + model.hp.noise_variance
    return mean, prior - np.einsum("ij,ij->j", W, W)


class TestPredict:
    @pytest.mark.parametrize("jitter", [False, True])
    def test_inverse_factor_matches_a_triangular_solve(self, jitter):
        """Variances through L^-1 are as accurate as a solve even on ill-conditioned factors."""
        model, rng = floor_noise_model(jitter)
        X = model.X_train
        Xq = np.vstack([X[:40], X[:40] + 0.25, rng.normal(size=(40, X.shape[1]))])
        before = [model.chol_L.tobytes(), model.alpha.tobytes(), model.X_train.tobytes()]
        mean, std = predict(model, Xq)
        ref_mean, ref_var = triangular_solve_prediction(model, Xq)
        assert mean.tobytes() == ref_mean.tobytes()
        prior = model.hp.signal_variance + model.hp.noise_variance
        assert np.abs(std**2 - np.maximum(ref_var, 0.0)).max() <= 1e-10 * prior
        again = predict(model, Xq)
        assert again[0].tobytes() == mean.tobytes() and again[1].tobytes() == std.tobytes()
        assert [model.chol_L.tobytes(), model.alpha.tobytes(), model.X_train.tobytes()] == before

    def test_singular_factor_is_a_numerical_error(self):
        model = build_model(np.eye(8), np.arange(8.0), hp_of())
        L = model.chol_L.copy()
        L[5, 5] = 0.0
        singular = GPModel(model.hp, model.X_train, model.y_train, L, model.alpha)
        with pytest.raises(NumericalError, match="diagonal 5 "):
            predict(singular, np.zeros((2, 8)))

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

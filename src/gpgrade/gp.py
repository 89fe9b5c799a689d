"""Exact Gaussian-process regression with evidence-based hyperparameter fitting.

Standard Cholesky formulation: the training system (K + noise*I) alpha = y
is factorized once per hyperparameter setting, the log marginal likelihood
and its analytic log-space gradients drive an L-BFGS-B search (with
restarts), and prediction reads the posterior mean and standard deviation
off the retained factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import blas, cho_solve, lapack, solve_triangular

from .errors import InputError, NumericalError
from .kernel import (
    NOISE_VARIANCE_FLOOR,
    Hyperparams,
    kernel_matrix,
    pairwise_sq_dists,
    rbf_from_sq_dists,
    row_sq_norms,
)

if TYPE_CHECKING:
    from .data import NormStats

# Relative diagonal inflation attempted, in order, until the Cholesky
# factorization succeeds.
JITTER_LEVELS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

_LOG_2PI = math.log(2.0 * math.pi)

# Objective value reported to the optimizer when the evidence is not
# computable at a trial point; large enough to reject the point, finite
# so L-BFGS-B keeps going.
_BAD_OBJECTIVE = 1e25

_PREDICT_BLOCK = 2048

# L-BFGS-B stopping rules for the evidence search.
LBFGS_OPTIONS = {"maxiter": 200, "ftol": 1e-6, "gtol": 1e-5}

# From this many training rows (the size it was timed and quality-checked
# at), with two or more restarts, fit runs the restarts on a random subset of
# _COARSE_SUBSET_N rows and then searches the full set only twice. The polish
# from the best subset optimum has no other restart to make up for an early
# stop, so it stops on a 100x smaller relative decrease.
_TWO_STAGE_MIN_N = 2000
_COARSE_SUBSET_N = 500
_POLISH_OPTIONS = {**LBFGS_OPTIONS, "ftol": 1e-8}


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: only ``fit`` needs it."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


@dataclass
class GPModel:
    """Trained regressor state. Treat instances as immutable once built."""

    hp: Hyperparams
    X_train: np.ndarray
    y_train: np.ndarray
    chol_L: np.ndarray
    alpha: np.ndarray
    normalizer: "NormStats | None" = None
    train_subset_seed: int = 0

    @property
    def log_evidence(self) -> float:
        """Log marginal likelihood of the training targets, read off the factor."""
        return _lml_from_factor(self.chol_L, self.alpha, self.y_train)


def cholesky_with_jitter(K, noise: float = 0.0) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K + (noise + jitter)*I for symmetric K.

    The jitter escalates through multiples of the mean diagonal of
    K + noise*I; the one that succeeded is returned with the factor. Each
    attempt factors in place the transpose of its own C-ordered copy of K,
    which is K in Fortran order, so K is left unchanged. Raises
    NumericalError (naming the failing diagonal index) if every level fails,
    and InputError if the diagonal's sum overflows.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InputError(f"expected a square matrix, got shape {K.shape}")
    if not np.isfinite(K).all() or not math.isfinite(noise):
        raise InputError("matrix entries and noise must be finite")
    with np.errstate(over="ignore"):
        diag = np.diag(K) + noise
        scale = float(np.mean(diag))
    if not math.isfinite(scale):
        raise InputError("the diagonal of K + noise*I is too large: its sum overflows")
    for level in JITTER_LEVELS:
        jitter = level * scale
        A = K.copy()
        np.fill_diagonal(A, diag + jitter)
        L, info = lapack.dpotrf(A.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
    raise NumericalError(
        f"Cholesky factorization failed at all jitter levels; "
        f"leading minor of order {int(info)} is not positive definite"
    )


def _validate_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X, _ = row_sq_norms(X, "training")
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise InputError(f"y must be 1-d, got ndim={y.ndim}")
    if X.shape[0] != y.shape[0]:
        raise InputError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] < 2:
        raise InputError("at least 2 training samples are required")
    if not np.isfinite(y).all():
        raise InputError("training targets must be finite")
    return X, y


def _factorize(K: np.ndarray, hp: Hyperparams, y: np.ndarray):
    """Factor L of K + (noise + jitter)*I, alpha solving that system, and the jitter."""
    L, jitter = cholesky_with_jitter(K, hp.noise_variance)
    return L, cho_solve((L, True), y, check_finite=False), jitter


def _lml_from_factor(L: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    """Log marginal likelihood read off the factor L and alpha of ``_factorize``."""
    return (
        -0.5 * blas.ddot(y, alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * y.shape[0] * _LOG_2PI
    )


def _evidence(S: np.ndarray, y: np.ndarray, hp: Hyperparams):
    """Log marginal likelihood and its gradient, from the inputs' squared distances S."""
    K = rbf_from_sq_dists(S, hp)
    L, alpha, jitter = _factorize(K, hp, y)
    lml = _lml_from_factor(L, alpha, y)

    # Each gradient entry is 0.5 * (alpha^T D alpha - tr(Ky^-1 D)) for the
    # derivative D of Ky by that log-parameter. Length-scale: D = K*S / l^2
    # has an exactly zero diagonal and dpotri fills only the lower triangle
    # of Ky^-1, so the trace is twice that triangle's inner product with K*S
    # (einsum on the C-ordered transpose view; threaded BLAS ddot costs
    # milliseconds per call to wake). Signal variance: D = K = Ky - nu*I with
    # nu = noise + jitter gives y^T alpha - nu alpha^T alpha and
    # n - nu tr(Ky^-1), so no terms of size s2/jitter cancel.
    Ky_inv, info = lapack.dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverting the training system failed (dpotri info {info})")
    KS = np.multiply(K, S, out=K)
    alpha_sq = blas.ddot(alpha, alpha)
    inv_trace = float(np.trace(Ky_inv))
    nu = hp.noise_variance + jitter
    noise_deriv = hp.noise_variance if hp.noise_variance > NOISE_VARIANCE_FLOOR else 0.0
    grad = 0.5 * np.array(
        [
            (blas.ddot(alpha, blas.dgemv(1.0, KS.T, alpha, trans=1))
             - 2.0 * np.einsum("ij,ij->", Ky_inv.T, KS)) / hp.length_scale**2,
            blas.ddot(y, alpha) - y.shape[0] - nu * (alpha_sq - inv_trace),
            (alpha_sq - inv_trace) * noise_deriv,
        ]
    )
    return lml, grad


def log_marginal_likelihood(X, y, hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Evidence of (X, y) under ``hp`` and its gradient in log-space.

    Gradient order matches the fields of Hyperparams: (log length-scale,
    log signal variance, log noise variance).
    """
    X, y = _validate_training_data(X, y)
    return _evidence(pairwise_sq_dists(X), y, hp)


def build_model(
    X,
    y,
    hp: Hyperparams,
    normalizer: "NormStats | None" = None,
    train_subset_seed: int = 0,
) -> GPModel:
    """Assemble a GPModel at fixed hyperparameters (no optimization)."""
    X, y = _validate_training_data(X, y)
    return _freeze(X, y, kernel_matrix(X, X, hp), hp, normalizer, train_subset_seed)


def _freeze(X, y, K, hp: Hyperparams, normalizer, train_subset_seed: int) -> GPModel:
    """The GPModel of validated (X, y) at hp, factored from K = k(X, X)."""
    L, alpha, _ = _factorize(K, hp, y)
    return GPModel(
        hp=hp,
        X_train=X,
        y_train=y,
        chol_L=L,
        alpha=alpha,
        normalizer=normalizer,
        train_subset_seed=train_subset_seed,
    )


def fit(
    X,
    y,
    *,
    max_train: int = 2000,
    restarts: int = 3,
    seed: int = 0,
    normalizer: "NormStats | None" = None,
) -> GPModel:
    """Fit hyperparameters by maximizing the evidence, then freeze the model.

    Any finite targets are regressed. If there are more rows than
    ``max_train``, a uniform random subset is drawn with ``seed`` (recorded
    on the model). Each restart starts the length-scale from a seeded draw
    around the median pairwise distance; the best optimum across restarts
    wins and is never worse than any initialization point.

    From 2,000 training rows on, with two or more restarts, the restarts
    search a seeded 500-row subset, and the full set is searched only from
    the first start (a guard against a subset-only basin) and, with a tighter
    stop, from the best subset optimum. Other fits search it once per restart.
    """
    X, y = _validate_training_data(X, y)
    if max_train < 2:
        raise InputError("max_train must be at least 2")
    if restarts < 1:
        raise InputError("restarts must be at least 1")
    if seed < 0:
        raise InputError("seed must be non-negative")

    rng = np.random.default_rng(seed)
    if X.shape[0] > max_train:
        idx = np.sort(rng.choice(X.shape[0], size=max_train, replace=False))
        X = X[idx]
        y = y[idx]
    S = pairwise_sq_dists(X)
    n = X.shape[0]

    upper = np.triu_indices(n, 1)
    with np.errstate(over="ignore"):  # two middle distances at the float maximum average to inf
        median_dist = math.sqrt(float(np.median(S[upper])))
    if not 0.0 < median_dist < math.inf:
        median_dist = 1.0
    var_y = float(np.var(y))
    if var_y <= 0.0:
        var_y = 1.0
    log_sig0 = math.log(var_y)
    log_noise0 = math.log(0.1 * var_y)
    low, high = math.log(0.5 * median_dist), math.log(2.0 * median_dist)
    starts = [np.array([rng.uniform(low, high), log_sig0, log_noise0]) for _ in range(restarts)]

    def search(S, y, theta0, options=LBFGS_OPTIONS):
        """L-BFGS-B on the evidence of (S, y) from theta0: its optimum and its start."""
        evidences = []  # evidence at each point the optimizer tries, in call order

        def negative_evidence(theta):
            try:
                hp = Hyperparams.from_log_array(theta)
                lml, grad = _evidence(S, y, hp)
            except (InputError, NumericalError, OverflowError, FloatingPointError):
                lml, grad = -_BAD_OBJECTIVE, np.zeros(3)
            if not np.isfinite(lml) or not np.isfinite(grad).all():
                lml, grad = -_BAD_OBJECTIVE, np.zeros(3)
            evidences.append(lml)
            return -lml, -grad

        result = minimize(
            negative_evidence,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options=options,
        )
        # L-BFGS-B evaluates theta0 first. It never worsens its own start,
        # but keep the initialization as a candidate in case it fails
        # outright.
        return [(-result.fun, result.x), (evidences[0], theta0)]

    def best(candidates):
        """(lml, theta) of the highest evidence; the earliest wins ties."""
        return max(candidates, key=lambda c: c[0])

    if n >= _TWO_STAGE_MIN_N and restarts >= 2:
        # The restarts search a subset drawn by a child generator of the seed.
        # The full set is then searched from the first start, which guards
        # against a basin only the subset has, and from the best subset optimum.
        sub_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        sub = np.sort(sub_rng.choice(n, size=_COARSE_SUBSET_N, replace=False))
        S_sub, y_sub = S[np.ix_(sub, sub)], y[sub]
        _, polish0 = best([c for theta0 in starts for c in search(S_sub, y_sub, theta0)])
        candidates = search(S, y, starts[0]) + search(S, y, polish0, _POLISH_OPTIONS)
    else:
        candidates = [c for theta0 in starts for c in search(S, y, theta0)]
    best_lml, best_theta = best(candidates)

    if not np.isfinite(best_lml) or best_lml <= -_BAD_OBJECTIVE / 2:
        raise NumericalError("evidence was non-finite at every restart")

    # The final model reuses S: one distance pass per fit.
    hp = Hyperparams.from_log_array(best_theta)
    return _freeze(X, y, rbf_from_sq_dists(S, hp), hp, normalizer, seed)


def predict(model: GPModel, X_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation at each query row, as arrays.

    Queries must already be normalized with the model's statistics; the
    pipeline layer is responsible for that. The reported variance includes
    the learned observation noise and is clamped at zero before the root.
    """
    # Accepted rows give finite kernel blocks: the solve skips its finiteness passes.
    Xq, _ = row_sq_norms(X_query, "query")
    sig2 = model.hp.signal_variance
    noise = model.hp.noise_variance
    mean = np.empty(Xq.shape[0])
    std = np.empty(Xq.shape[0])
    for start in range(0, Xq.shape[0], _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        Kq = kernel_matrix(Xq[block], model.X_train, model.hp)
        mean[block] = blas.dgemv(1.0, Kq.T, model.alpha, trans=1)
        W = solve_triangular(model.chol_L, Kq.T, lower=True, check_finite=False)
        var = sig2 + noise - np.einsum("ij,ij->j", W, W)
        np.clip(var, 0.0, None, out=var)
        std[block] = np.sqrt(var)
    return mean, std

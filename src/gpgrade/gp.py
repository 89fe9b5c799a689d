"""Exact Gaussian-process regression with evidence-based hyperparameter fitting.

Standard Cholesky formulation: the training system (K + noise*I) alpha = y
is factorized once per hyperparameter setting. The log marginal likelihood,
with the signal variance profiled out in closed form, and its analytic
log-space gradients drive an L-BFGS-B search (with restarts) over the
length-scale and the noise-to-signal ratio, and prediction reads the
posterior mean and standard deviation off the retained factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import blas, cho_solve, lapack

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
# computable at a trial point and no point of its search has been yet;
# large enough to reject the point, finite so L-BFGS-B keeps going.
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


def _factorize(K: np.ndarray, noise: float, y: np.ndarray):
    """Factor L of K + (noise + jitter)*I, alpha solving that system, and the jitter."""
    L, jitter = cholesky_with_jitter(K, noise)
    return L, cho_solve((L, True), y, check_finite=False), jitter


def _lml_from_factor(L: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    """Log marginal likelihood read off the factor L and alpha of ``_factorize``."""
    return (
        -0.5 * blas.ddot(y, alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * y.shape[0] * _LOG_2PI
    )


def _evidence_terms(S: np.ndarray, y: np.ndarray, hp: Hyperparams, noise: float) -> tuple:
    """(y^T a, log det(Ky) / 2, a^T D a, tr(Ky^-1 D), a^T a, tr(Ky^-1), nu) for Ky = K + nu*I.

    K is the kernel of hp on S, nu = noise + jitter, a = Ky^-1 y and D = K*S / l^2
    is dK/dlog l. D has a zero diagonal and dpotri fills only the lower triangle
    of Ky^-1, so tr(Ky^-1 D) is twice that triangle's inner product with K*S
    (einsum on the transpose view; threaded BLAS ddot costs ms per call to wake).
    """
    K = rbf_from_sq_dists(S, hp)
    L, alpha, jitter = _factorize(K, noise, y)
    half_logdet = float(np.sum(np.log(np.diag(L))))
    Ky_inv, info = lapack.dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverting the training system failed (dpotri info {info})")
    KS = np.multiply(K, S, out=K)
    l2 = hp.length_scale**2
    a_D_a = blas.ddot(alpha, blas.dgemv(1.0, KS.T, alpha, trans=1)) / l2
    tr_D = 2.0 * np.einsum("ij,ij->", Ky_inv.T, KS) / l2
    return (blas.ddot(y, alpha), half_logdet, a_D_a, tr_D, blas.ddot(alpha, alpha),
            float(np.trace(Ky_inv)), noise + jitter)


def _lml_and_gradient(terms: tuple, n: int, noise_deriv: float):
    """Evidence and its gradient by (log l, log s2, log noise), from ``_evidence_terms``.

    Entry k is 0.5 * (alpha^T D_k alpha - tr(Ky^-1 D_k)) for the derivative
    D_k of Ky. Signal variance: D = K = Ky - nu*I, so no terms of size
    s2/jitter cancel. Noise: D = noise_deriv * I, 0 where the floor clamps it.
    """
    y_alpha, half_logdet, a_D_a, tr_D, a_a, tr_inv, nu = terms
    lml = -0.5 * y_alpha - half_logdet - 0.5 * n * _LOG_2PI
    grad = [a_D_a - tr_D, y_alpha - n - nu * (a_a - tr_inv), (a_a - tr_inv) * noise_deriv]
    return lml, 0.5 * np.array(grad)


def _evidence(S: np.ndarray, y: np.ndarray, hp: Hyperparams):
    """Log marginal likelihood and its gradient, from the inputs' squared distances S."""
    noise = hp.noise_variance
    noise_deriv = noise if noise > NOISE_VARIANCE_FLOOR else 0.0
    return _lml_and_gradient(_evidence_terms(S, y, hp, noise), y.shape[0], noise_deriv)


def _profiled_evidence(S: np.ndarray, y: np.ndarray, theta):
    """(lml, gradient, Hyperparams) at theta = (log l, log r), r = noise / s2, and the best s2.

    For Ky = s2 * (K~ + r*I), K~ of unit variance, the evidence peaks at
    s2 = y^T (K~ + r*I)^-1 y / n with a zero s2 derivative, so one factorization
    gives the value and the l and noise entries. Where the floor clamps r * s2,
    both are the floored noise's, from a second factorization (chain rule via s2).
    """
    log_l, log_r = (float(t) for t in theta)
    r, n = math.exp(log_r), y.shape[0]
    terms = _evidence_terms(S, y, Hyperparams(log_l, 0.0, 0.0), r)
    y_alpha, half_logdet, a_D_a, tr_D, a_a, tr_inv, nu = terms
    s2 = max(y_alpha / n, np.finfo(float).tiny)  # all-zero targets: no optimum, finite log
    hp = Hyperparams(log_l, math.log(s2), log_r + math.log(s2))
    if r * s2 > NOISE_VARIANCE_FLOOR:  # the same sums for Ky scaled by s2
        scaled = (y_alpha / s2, half_logdet + 0.5 * n * math.log(s2), a_D_a / s2, tr_D,
                  a_a / s2 / s2, tr_inv / s2, nu * s2)
        lml, grad = _lml_and_gradient(scaled, n, r * s2)
        return lml, grad[[0, 2]], hp
    lml, grad = _evidence(S, y, hp)
    dlog_s2 = np.array([a_D_a, r * a_a]) / (-n * s2)
    return lml, np.array([grad[0], 0.0]) + grad[1] * dlog_s2, hp


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
    L, alpha, _ = _factorize(K, hp.noise_variance, y)
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
    on the model). The searches run over theta = (log l, log r), r = noise / s2,
    with the signal variance s2 at its closed-form optimum for each theta.
    Each restart starts from r = 0.1 and a seeded length-scale draw around the
    median pairwise distance. Each search returns the best point it evaluates,
    never worse than its start, and the best of those records wins. A point
    whose evidence is not computable reads as that best value minus its
    distance from the best point, so the search backs off and goes on.

    One loop runs a search from each start. It searches every training row,
    or, from 2,000 rows on with two or more restarts, a seeded 500-row subset.
    Only in that case are its results replaced by two searches of the full
    set: from the first start (a guard against a subset-only basin) and, with
    a tighter stop, from the best subset optimum.
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
    low, high = math.log(0.5 * median_dist), math.log(2.0 * median_dist)
    starts = [np.array([rng.uniform(low, high), math.log(0.1)]) for _ in range(restarts)]

    def search(S, y, theta0, options=LBFGS_OPTIONS):
        """(lml, theta, Hyperparams) of the best computable point L-BFGS-B evaluates from
        theta0, the earliest of ties; Hyperparams is None if no point was computable."""
        record = (-math.inf, np.array(theta0), None)

        def negative_evidence(theta):
            nonlocal record
            try:
                lml, grad, hp = _profiled_evidence(S, y, theta)
            except (InputError, NumericalError, OverflowError, FloatingPointError):
                lml = math.nan
            if math.isfinite(lml) and np.isfinite(grad).all():
                if lml > record[0]:
                    record = (lml, np.array(theta), hp)
                return -lml, -grad
            if record[2] is None:
                return _BAD_OBJECTIVE, np.zeros(2)
            # Worse than the best point by the distance to it: the line search backs off.
            step = theta - record[1]
            distance = math.hypot(*step)
            return distance - record[0], step / (distance or 1.0)

        minimize(negative_evidence, theta0, jac=True, method="L-BFGS-B", options=options)
        return record

    S_rows, y_rows = S, y
    if n >= _TWO_STAGE_MIN_N and restarts >= 2:
        # A subset drawn by a child generator of the seed.
        sub_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        sub = np.sort(sub_rng.choice(n, size=_COARSE_SUBSET_N, replace=False))
        S_rows, y_rows = S[np.ix_(sub, sub)], y[sub]
    records = [search(S_rows, y_rows, theta0) for theta0 in starts]
    if S_rows is not S:  # a guard against a basin only the subset has, and a polish
        polish0 = max(records, key=lambda record: record[0])[1]
        records = [search(S, y, starts[0]), search(S, y, polish0, _POLISH_OPTIONS)]
    _, _, hp = max(records, key=lambda record: record[0])
    if hp is None:
        raise NumericalError("evidence was non-finite at every restart")

    # The final model reuses S: one distance pass per fit.
    return _freeze(X, y, rbf_from_sq_dists(S, hp), hp, normalizer, seed)


def predict(model: GPModel, X_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation at each query row, as arrays.

    Queries must already be normalized with the model's statistics (the
    pipeline's job). The variance, read off L^-1 Kq^T with L inverted once per
    call, includes the learned observation noise and is clamped at zero.
    """
    Xq, _ = row_sq_norms(X_query, "query")
    L_inv, info = lapack.dtrtri(model.chol_L, lower=1)
    if info != 0:
        raise NumericalError(f"the training factor is singular: diagonal {info - 1} is zero")
    prior = model.hp.signal_variance + model.hp.noise_variance
    mean = np.empty(Xq.shape[0])
    std = np.empty(Xq.shape[0])
    for start in range(0, Xq.shape[0], _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        Kq = kernel_matrix(Xq[block], model.X_train, model.hp)
        mean[block] = blas.dgemv(1.0, Kq.T, model.alpha, trans=1)
        W = blas.dtrmm(1.0, L_inv, Kq.T, lower=1, overwrite_b=1)  # in Kq's own buffer
        var = prior - np.einsum("ij,ij->j", W, W)
        np.clip(var, 0.0, None, out=var)
        std[block] = np.sqrt(var)
    return mean, std

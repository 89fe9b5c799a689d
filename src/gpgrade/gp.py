"""Exact Gaussian-process regression with evidence-based hyperparameter fitting.

Standard Cholesky formulation: the training system (K + noise*I) alpha = y
is factorized once per hyperparameter setting. The log marginal likelihood,
with the signal variance profiled out in closed form, and its analytic
log-space gradients drive an L-BFGS-B search (with restarts) over the
length-scale and the noise-to-signal ratio, and prediction reads the
posterior mean and standard deviation off the inverse of the training factor.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import blas, cho_solve, lapack

from .errors import InputError, NumericalError
from .kernel import (
    NOISE_VARIANCE_FLOOR,
    Hyperparams,
    _sq_dists,
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

# Query rows per predict block. At n = 2,000, 512-row blocks score as fast as
# 2,048-row ones with a quarter of the block memory; 256 rows were slower.
_PREDICT_BLOCK = 512

# Rows per strip in which the kernel is built and K*S rebuilt for the gradient (16 were slower).
_TRACE_STRIP = 32

# L-BFGS-B stopping rules for every evidence search.
LBFGS_OPTIONS = {"maxiter": 200, "ftol": 1e-6, "gtol": 1e-5}

# The two-stage fit's least training rows and its subset size (see fit).
_TWO_STAGE_MIN_N = 2000
_COARSE_SUBSET_N = 500


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: only ``fit`` needs it."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class GPModel:
    """Trained regressor state, never changed once built. ``L_inv`` holds L^-1 for the
    lower Cholesky factor L of the training system, inverted in L's own buffer;
    ``log_evidence`` and ``chol_l_fro`` (||L||_F) are read off L before that. That buffer is
    a private anonymous mapping whose other triangle is never written, so unless transparent
    huge pages are ``always`` on, only the pages that hold some of L are resident.
    """

    hp: Hyperparams
    X_train: np.ndarray
    y_train: np.ndarray
    L_inv: np.ndarray
    alpha: np.ndarray
    log_evidence: float
    chol_l_fro: float
    normalizer: "NormStats | None" = None
    train_subset_seed: int = 0


def cholesky_with_jitter(K, noise: float = 0.0, hp: Hyperparams | None = None, X=None) -> tuple:
    """Lower Cholesky factor of K + (noise + jitter)*I for symmetric K, and the jitter.

    The jitter escalates through multiples of the mean diagonal of K + noise*I; the one
    that succeeded is returned with the factor. Each attempt factors in place the transpose
    of its own C-ordered copy of K, which is K in Fortran order, so K is left unchanged.
    With hp, a C-ordered K holds squared distances in its strict lower triangle, which dpotrf
    never touches: each level builds the kernel of hp on them in the other triangle with
    the diagonal (the Fortran lower one of K.T) and factors it there, so K.T is the factor.
    With rows X too, each level builds that triangle from X, and writes only 0s in the other.
    Raises NumericalError (naming the failing diagonal index) if every level fails, and
    InputError if an entry is not finite or the diagonal's sum overflows.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InputError(f"expected a square matrix, got shape {K.shape}")
    if hp is not None:
        _kernel_from_lower(K, hp, X)
    if not all(map(math.isfinite, (K.min(initial=0.0), K.max(initial=0.0), noise))):
        raise InputError("matrix entries and noise must be finite")
    with np.errstate(over="ignore"):
        diag = np.diag(K) + noise
        scale = float(np.mean(diag))
    if not math.isfinite(scale):
        raise InputError("the diagonal of K + noise*I is too large: its sum overflows")
    for level in JITTER_LEVELS:
        jitter = level * scale
        if hp is not None and level:  # the failed level's dpotrf wrote the kernel's triangle
            _kernel_from_lower(K, hp, X)
        A = K if hp is not None else K.copy()
        np.fill_diagonal(A, diag + jitter)
        L, info = lapack.dpotrf(A.T, lower=1, clean=int(hp is None), overwrite_a=1)
        if info == 0:
            return L, jitter
    raise NumericalError(
        f"Cholesky factorization failed at all jitter levels; "
        f"leading minor of order {int(info)} is not positive definite"
    )


def _kernel_from_lower(B: np.ndarray, hp: Hyperparams, X=None) -> None:
    """Write the kernel of hp on the distances in B's strict lower triangle (C order) into the
    other one with the diagonal, by ``rbf_from_sq_dists`` on each strip's two parts. With rows
    X, ``kernel._sq_dists`` first writes their distances into that other triangle (read there
    in place, as B.T's lower one) and the strips' diagonal tiles, which are then cleared to 0."""
    D = B if X is None else _sq_dists(X, out=B).T  # its strict lower triangle holds the distances
    for i in range(0, B.shape[0], _TRACE_STRIP):
        rows = slice(i, i + _TRACE_STRIP)
        tile = D[rows, rows].copy()  # put back below B's diagonal at the end (0 with rows X)
        rbf_from_sq_dists(np.triu(tile.T, 1), hp, out=B[rows, rows])
        rbf_from_sq_dists(D[rows.stop :, rows], hp, out=B[rows, rows.stop :].T)  # reads in order
        below = np.tri(len(tile), k=-1, dtype=bool)
        np.copyto(B[rows, rows], tile if X is None else 0.0, where=below)


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


def _evidence_terms(S, y, hp: Hyperparams, noise: float, gradient: bool = True) -> tuple:
    """(y^T a, log det(Ky) / 2, a^T D a, tr(Ky^-1 D), a^T a, tr(Ky^-1), nu) for Ky = K + nu*I;
    without gradient, all but the first two are nan (no inverse and no K*S strips).

    K is the kernel of hp on S, nu = noise + jitter, a = Ky^-1 y and D = K*S / l^2 is
    dK/dlog l. S's strict lower triangle (C order) holds the distances, and K is built,
    factored and inverted in place in its other one (the Fortran lower of S.T), so Ky^-1
    ends there with the diagonal. D is symmetric with a zero diagonal, so a^T D a and
    tr(Ky^-1 D) are twice their strict lower sums, read in strips of rows: K*S rebuilt
    from the rows' distances (the diagonal tile's Ky^-1 masked to 0 first), Ky^-1 from
    the mirrored columns (einsum; BLAS ddot is slow to wake).
    """
    L, jitter = cholesky_with_jitter(S, noise, hp=hp)
    alpha = cho_solve((L, True), y, check_finite=False)
    half_logdet = float(np.sum(np.log(np.diag(L))))
    if not gradient:
        return (blas.ddot(y, alpha), half_logdet) + (math.nan,) * 5
    _, info = lapack.dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverting the training system failed (dpotri info {info})")
    a_D_a = tr_D = 0.0
    for i in range(0, y.shape[0], _TRACE_STRIP):
        rows = slice(i, i + _TRACE_STRIP)
        D = np.tril(S[rows, : rows.stop], i - 1)  # the diagonal tile's upper triangle is Ky^-1
        KS = rbf_from_sq_dists(D, hp)
        KS *= D
        a_D_a += blas.ddot(alpha[rows], blas.dgemv(1.0, KS.T, alpha[: rows.stop], trans=1))
        tr_D += np.einsum("ij,ji->", KS, S[: rows.stop, rows])
    l2 = hp.length_scale**2
    return (blas.ddot(y, alpha), half_logdet, 2.0 * a_D_a / l2, 2.0 * tr_D / l2,
            blas.ddot(alpha, alpha), float(np.trace(S)), noise + jitter)


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


def _evidence(S: np.ndarray, y: np.ndarray, hp: Hyperparams, gradient: bool = True):
    """Log marginal likelihood and its gradient, from the inputs' squared distances S."""
    noise = hp.noise_variance
    noise_deriv = noise if noise > NOISE_VARIANCE_FLOOR else 0.0
    return _lml_and_gradient(_evidence_terms(S, y, hp, noise, gradient), y.shape[0], noise_deriv)


def _profiled_evidence(S: np.ndarray, y: np.ndarray, theta, gradient: bool = True):
    """(lml, gradient, Hyperparams) at theta = (log l, log r), r = noise / s2, and the best s2.

    For Ky = s2 * (K~ + r*I), K~ of unit variance, the evidence peaks at
    s2 = y^T (K~ + r*I)^-1 y / n with a zero s2 derivative, so one factorization
    gives the value and the l and noise entries. Where the floor clamps r * s2,
    both are the floored noise's, from a second factorization (chain rule via s2).
    Without gradient, the gradient is nan, and the lml the same bits from the factors alone.
    """
    log_l, log_r = (float(t) for t in theta)
    r, n = math.exp(log_r), y.shape[0]
    terms = _evidence_terms(S, y, Hyperparams(log_l, 0.0, 0.0), r, gradient)
    y_alpha, half_logdet, a_D_a, tr_D, a_a, tr_inv, nu = terms
    s2 = max(y_alpha / n, np.finfo(float).tiny)  # all-zero targets: no optimum, finite log
    hp = Hyperparams(log_l, math.log(s2), log_r + math.log(s2))
    if r * s2 > NOISE_VARIANCE_FLOOR:  # the same sums for Ky scaled by s2
        scaled = (y_alpha / s2, half_logdet + 0.5 * n * math.log(s2), a_D_a / s2, tr_D,
                  a_a / s2 / s2, tr_inv / s2, nu * s2)
        lml, grad = _lml_and_gradient(scaled, n, r * s2)
        return lml, grad[[0, 2]], hp
    lml, grad = _evidence(S, y, hp, gradient)
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
    """Assemble a GPModel at fixed hyperparameters (no optimization), its kernel built from X
    into a zero-filled mapping that numpy does not advise into huge pages (see GPModel)."""
    X, y = _validate_training_data(X, y)
    # Private, as an anonymous mapping already is where there is no MAP_PRIVATE (Windows).
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    K = np.frombuffer(mmap.mmap(-1, 8 * y.size**2, **private)).reshape(y.size, -1)
    L, _ = cholesky_with_jitter(K, hp.noise_variance, hp=hp, X=X)
    alpha = cho_solve((L, True), y, check_finite=False)
    half_logdet = float(np.sum(np.log(np.diag(L))))
    lml = -0.5 * blas.ddot(y, alpha) - half_logdet - 0.5 * y.shape[0] * _LOG_2PI
    flat = L.ravel(order="K")
    chol_l_fro = math.sqrt(blas.ddot(flat, flat))
    L_inv, info = lapack.dtrtri(L, lower=1, overwrite_c=1)  # in L's own buffer: no n x n copy
    if info != 0:
        raise NumericalError(f"the training factor is singular: diagonal {info - 1} is zero")
    return GPModel(hp, X, y, L_inv, alpha, lml, chol_l_fro, normalizer, train_subset_seed)


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

    One loop runs a search from each start, over every training row or, from
    2,000 rows on with two or more restarts, a seeded 500-row subset. In that
    case a full-set search from the first start (the guard, which is the
    one-restart search) replaces its results, joined by a full-set search from
    the best subset optimum (the polish) if one full-set evaluation there beats
    the guard's end. Synth seed 14 needs the polish, seed 1 the guard (README).
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

    with np.errstate(over="ignore"):  # two middle distances at the float maximum average to inf
        median_dist = math.sqrt(np.median(S[np.tri(n, k=-1, dtype=bool)], overwrite_input=True))
    if not 0.0 < median_dist < math.inf:
        median_dist = 1.0
    low, high = math.log(0.5 * median_dist), math.log(2.0 * median_dist)
    starts = [np.array([rng.uniform(low, high), math.log(0.1)]) for _ in range(restarts)]

    def evidence(S, y, theta, **kwargs):
        """``_profiled_evidence`` at theta; lml is nan where it is not computable."""
        try:
            return _profiled_evidence(S, y, theta, **kwargs)
        except (InputError, NumericalError, OverflowError, FloatingPointError):
            return math.nan, None, None

    def search(S, y, theta0):
        """(lml, theta, Hyperparams) of the best computable point L-BFGS-B evaluates from
        theta0, the earliest of ties; Hyperparams is None if no point was computable."""
        record = (-math.inf, np.array(theta0), None)

        def negative_evidence(theta):
            nonlocal record
            lml, grad, hp = evidence(S, y, theta)
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

        minimize(negative_evidence, theta0, jac=True, method="L-BFGS-B", options=LBFGS_OPTIONS)
        return record

    S_rows, y_rows = S, y
    if n >= _TWO_STAGE_MIN_N and restarts >= 2:
        # A subset drawn by a child generator of the seed.
        sub_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        sub = np.sort(sub_rng.choice(n, size=_COARSE_SUBSET_N, replace=False))
        S_rows, y_rows = S[np.ix_(sub, sub)], y[sub]
    records = [search(S_rows, y_rows, theta0) for theta0 in starts]
    two_stage, S_rows = S_rows is not S, None  # the subset's distances are freed here
    if two_stage:  # a guard against a basin only the subset has, then maybe a polish
        guard = search(S, y, starts[0])
        best = max(records, key=lambda record: record[0])[1]
        records = [guard]
        if evidence(S, y, best, gradient=False)[0] > guard[0]:  # false where it is nan
            records.append(search(S, y, best))
    _, _, hp = max(records, key=lambda record: record[0])
    if hp is None:
        raise NumericalError("evidence was non-finite at every restart")

    del S  # freed before the model's buffer is touched
    return build_model(X, y, hp, normalizer, seed)


def predict(model: GPModel, X_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation at each query row, as arrays.

    Queries must already be normalized with the model's statistics (the
    pipeline's job). The variance, read off L^-1 Kq^T, includes the learned
    observation noise and is clamped at zero. Rows go in blocks of _PREDICT_BLOCK.
    """
    Xq, _ = row_sq_norms(X_query, "query")
    prior = model.hp.signal_variance + model.hp.noise_variance
    mean = np.empty(Xq.shape[0])
    std = np.empty(Xq.shape[0])
    for start in range(0, Xq.shape[0], _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        Kq = kernel_matrix(Xq[block], model.X_train, model.hp)
        mean[block] = blas.dgemv(1.0, Kq.T, model.alpha, trans=1)
        W = blas.dtrmm(1.0, model.L_inv, Kq.T, lower=1, overwrite_b=1)  # in Kq's own buffer
        var = prior - np.einsum("ij,ij->j", W, W)
        del Kq, W  # the next block is built after this one is freed
        np.clip(var, 0.0, None, out=var)
        std[block] = np.sqrt(var)
    return mean, std

"""Exact Gaussian-process regression with evidence-based hyperparameter fitting.

Standard Cholesky formulation: the training system (K + noise*I) alpha = y
is factorized once per hyperparameter setting. The log marginal likelihood,
with the signal variance profiled out in closed form, and its analytic
log-space gradients drive two-variable L-BFGS searches (``minimize``, no
scipy.optimize), from the best-ranked points of a fixed start grid, over the
length-scale and the noise-to-signal ratio, and prediction reads the posterior
mean and standard deviation off the inverse of the training factor.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import _lapack
from .errors import InputError, NumericalError
from .kernel import (
    _STRIP,
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

# Query rows per predict block. At n = 2,000, 512-row blocks score as fast as
# 2,048-row ones with a quarter of the block memory; 256 rows were slower.
_PREDICT_BLOCK = 512

# Stop rules of every evidence search, taken from L-BFGS-B: steps, relative f reduction, max |g|.
LBFGS_OPTIONS = {"maxiter": 200, "ftol": 1e-6, "gtol": 1e-5}

# Start length-scales, as multiples of the median pairwise distance, that fit ranks by
# evidence, and the least training rows from which it searches from the best one alone.
_START_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)
_ONE_SEARCH_MIN_N = 2000


def minimize(fun, x0) -> SimpleNamespace:
    """Minimize ``fun(x) -> (f, gradient[, note])`` over two variables from x0 by L-BFGS with 10
    pairs (Nocedal & Wright 2006, Alg. 7.4) and Armijo backtracking, each trial cut to the
    quadratic's minimizer within [0.1, 0.5] of it (Alg. 3.1). A point whose f or gradient is not
    finite counts as f = inf, and no step is taken from such a start. As in L-BFGS-B, the first
    step is -g / ||g||, a pair with s^T y <= eps * -g^T s is skipped, 20 failed trials clear the
    pairs (or stop, if none) and ``LBFGS_OPTIONS`` holds the stop rules. The result's ``best`` is
    the note of the first point of least f whose f and gradient are finite, a trial the Armijo
    test refused included (None if there is none, or no note). 2-vectors are complex numbers,
    so the algebra runs in Python floats, never in numpy's BLAS."""
    dot = lambda u, v: u.real * v.real + u.imag * v.imag
    finite = []  # (f, note) of each point whose f and gradient are finite, in call order
    def evaluate(x):
        f, g, *note = fun(np.array([x.real, x.imag]))
        if not all(map(math.isfinite, (f, *g))):
            return math.inf, 0j
        finite.append((float(f), note[0] if note else None))
        return finite[-1][0], complex(*g)
    x, pairs, nit, reduction, stuck = complex(*x0), [], 0, math.inf, False
    (f, g), nfev = evaluate(x), 1
    while not (message := "no step lowers f" if stuck or f == math.inf
               else "max |g| <= gtol" if max(abs(g.real), abs(g.imag)) <= LBFGS_OPTIONS["gtol"]
               else "relative reduction of f <= ftol" if reduction <= LBFGS_OPTIONS["ftol"]
               else "maxiter iterations" if nit >= LBFGS_OPTIONS["maxiter"] else ""):
        d, alphas = -g, []  # the two-loop recursion: d = -H g
        for s, y in reversed(pairs):
            alphas.append(dot(s, d) / dot(s, y))
            d -= alphas[-1] * y
        d *= dot(*pairs[-1]) / dot(pairs[-1][1], pairs[-1][1]) if pairs else 1.0 / abs(g)
        for (s, y), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - dot(y, d) / dot(s, y)) * s
        slope, t = dot(g, d), 1.0
        for _ in range(20 if slope < 0 else 0):
            (f_t, g_t), nfev = evaluate(x + t * d), nfev + 1
            if f_t <= f + 1e-4 * t * slope:
                break
            t *= min(max(-slope * t / (2.0 * (f_t - f - slope * t)), 0.1), 0.5)
        else:
            stuck, pairs = not pairs, []
            continue
        s, y, reduction = t * d, g_t - g, (f - f_t) / max(abs(f), abs(f_t), 1.0)
        if dot(s, y) > -np.finfo(float).eps * dot(g, s):
            pairs = pairs[-9:] + [(s, y)]
        x, f, g, nit = x + s, f_t, g_t, nit + 1
    return SimpleNamespace(x=np.array([x.real, x.imag]), fun=f, nfev=nfev, nit=nit, message=message,
                           best=min(finite, key=lambda point: point[0], default=(0, None))[1])


@dataclass(frozen=True)
class GPModel:
    """Trained regressor state, never changed once built. ``L_inv`` holds L^-1 for the
    lower Cholesky factor L of K + (noise + ``jitter``)*I, the jitter that factoring took,
    inverted in L's own buffer; ``log_evidence`` is read off L before that. That buffer is
    a private anonymous mapping whose other triangle is never written, so unless transparent
    huge pages are ``always`` on, only the pages that hold some of L are resident.
    """

    hp: Hyperparams
    X_train: np.ndarray
    y_train: np.ndarray
    L_inv: np.ndarray
    alpha: np.ndarray
    log_evidence: float
    jitter: float
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
        L, info = _lapack.dpotrf(A.T, lower=1, clean=int(hp is None), overwrite_a=1)
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
    D = B if X is None else _sq_dists(X, out=B, triangle=True).T  # strict lower: the distances
    for i in range(0, B.shape[0], _STRIP):
        rows = slice(i, i + _STRIP)
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
    the mirrored columns (einsum). A product that overflows is inf, as the evidence then is.
    """
    L, jitter = cholesky_with_jitter(S, noise, hp=hp)
    alpha, _ = _lapack.dpotrs(L, y, lower=1)
    half_logdet = float(np.sum(np.log(np.diag(L))))
    with np.errstate(over="ignore"):
        y_alpha, a_a = float(y @ alpha), float(alpha @ alpha)
    if not gradient:
        return (y_alpha, half_logdet) + (math.nan,) * 5
    _, info = _lapack.dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverting the training system failed (dpotri info {info})")
    a_D_a = tr_D = 0.0
    for i in range(0, y.shape[0], _STRIP):
        rows = slice(i, i + _STRIP)
        D = np.tril(S[rows, : rows.stop], i - 1)  # the diagonal tile's upper triangle is Ky^-1
        KS = rbf_from_sq_dists(D, hp)
        KS *= D
        with np.errstate(over="ignore"):
            a_D_a += alpha[rows] @ (KS @ alpha[: rows.stop])
        tr_D += np.einsum("ij,ji->", KS, S[: rows.stop, rows])
    l2 = hp.length_scale**2
    return (y_alpha, half_logdet, 2.0 * a_D_a / l2, 2.0 * tr_D / l2,
            a_a, float(np.trace(S)), noise + jitter)


def _lml_and_gradient(terms: tuple, n: int, noise_deriv: float, s2: float = 1.0):
    """Evidence and its gradient by (log l, log s2, log noise) of s2 * Ky, from the
    ``_evidence_terms`` of Ky; s2 = 1 leaves their bits. Entry k is 0.5 * (alpha^T D_k alpha
    - tr(Ky^-1 D_k)) for the derivative D_k of Ky. Signal variance: D = K = Ky - nu*I, so no
    terms of size s2/jitter cancel. Noise: D = noise_deriv * I, 0 where the floor clamps it.
    """
    y_alpha, half_logdet, a_D_a, tr_D, a_a, tr_inv, nu = (
        terms[0] / s2, terms[1] + 0.5 * n * math.log(s2), terms[2] / s2, terms[3],
        terms[4] / s2 / s2, terms[5] / s2, terms[6] * s2)
    lml = -0.5 * y_alpha - half_logdet - 0.5 * n * _LOG_2PI
    grad = [a_D_a - tr_D, y_alpha - n - nu * (a_a - tr_inv), (a_a - tr_inv) * noise_deriv]
    return lml, 0.5 * np.array(grad)


def _profiled_evidence(S: np.ndarray, y: np.ndarray, theta, gradient: bool = True):
    """(lml, gradient, Hyperparams) at theta = (log l, log r), r = noise / s2, and the best s2.

    For Ky = s2 * (K~ + r*I), K~ of unit variance, the evidence peaks at
    s2 = y^T (K~ + r*I)^-1 y / n with a zero s2 derivative, so one factorization
    gives the value and the l and noise entries. Below the floor, the noise is the floor and
    s2 = floor / r scales the same factor's sums; the r entry is minus the s2 and jitter ones.
    Without gradient, the gradient is nan, and the lml the same bits from the factors alone.
    """
    log_l, log_r = (float(t) for t in theta)
    r, n = math.exp(log_r), y.shape[0]
    terms = _evidence_terms(S, y, Hyperparams(log_l, 0.0, 0.0), r, gradient)
    s2 = max(terms[0] / n, np.finfo(float).tiny)  # all-zero targets: no optimum, finite log
    if r * s2 > NOISE_VARIANCE_FLOOR:
        lml, grad = _lml_and_gradient(terms, n, r * s2, s2)
        return lml, grad[[0, 2]], Hyperparams(log_l, math.log(s2), log_r + math.log(s2))
    log_floor = math.log(NOISE_VARIANCE_FLOOR)
    hp = Hyperparams(log_l, log_floor - log_r, log_floor)
    s2 = hp.signal_variance
    lml, grad = _lml_and_gradient(terms, n, terms[-1] * s2 - hp.noise_variance, s2)
    return lml, np.array([grad[0], -grad[1] - grad[2]]), hp


def log_marginal_likelihood(X, y, hp: Hyperparams) -> tuple[float, np.ndarray]:
    """Evidence of (X, y) under ``hp`` and its gradient in log-space.

    Gradient order matches the fields of Hyperparams: (log length-scale,
    log signal variance, log noise variance).
    """
    X, y = _validate_training_data(X, y)
    noise = hp.noise_variance
    terms = _evidence_terms(pairwise_sq_dists(X), y, hp, noise)
    return _lml_and_gradient(terms, y.shape[0], noise if noise > NOISE_VARIANCE_FLOOR else 0.0)


def build_model(
    X,
    y,
    hp: Hyperparams,
    normalizer: "NormStats | None" = None,
    train_subset_seed: int = 0,
) -> GPModel:
    """Assemble a GPModel at fixed hyperparameters (no optimization) and its factor's jitter, the
    kernel built from X into a zero-filled mapping numpy does not advise into huge pages."""
    X, y = _validate_training_data(X, y)
    # Private, as an anonymous mapping already is where there is no MAP_PRIVATE (Windows).
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    K = np.frombuffer(mmap.mmap(-1, 8 * y.size**2, **private)).reshape(y.size, -1)
    L, jitter = cholesky_with_jitter(K, hp.noise_variance, hp=hp, X=X)
    alpha, _ = _lapack.dpotrs(L, y, lower=1)
    half_logdet = float(np.sum(np.log(np.diag(L))))
    with np.errstate(over="ignore"):  # an archive's alpha may overflow: load_model rejects it
        lml = -0.5 * float(y @ alpha) - half_logdet - 0.5 * y.shape[0] * _LOG_2PI
    L_inv, info = _lapack.dtrtri(L, lower=1, overwrite_c=1)  # in L's own buffer: no n x n copy
    if info != 0:
        raise NumericalError(f"the training factor is singular: diagonal {info - 1} is zero")
    return GPModel(hp, X, y, L_inv, alpha, lml, jitter, normalizer, train_subset_seed)


def _check_fit_options(max_train: int, restarts: int | None, seed: int) -> None:
    """InputError unless ``fit`` can take these; ``train`` checks them before reading rows."""
    if max_train < 2:
        raise InputError("max_train must be at least 2")
    if restarts is not None and restarts < 1:
        raise InputError("restarts must be at least 1")
    if seed < 0:
        raise InputError("seed must be non-negative")


def fit(
    X,
    y,
    *,
    max_train: int = 2000,
    restarts: int | None = None,
    seed: int = 0,
    normalizer: "NormStats | None" = None,
) -> GPModel:
    """Fit hyperparameters by maximizing the evidence, then freeze the model.

    Any finite targets are regressed. If there are more rows than
    ``max_train``, a uniform random subset is drawn with ``seed`` (recorded
    on the model). The searches run over theta = (log l, log r), r = noise / s2,
    with the signal variance s2 at its closed-form optimum for each theta.

    The evidence at r = 0.1 ranks the length-scales ``_START_GRID`` times the median
    pairwise distance, ties to the earlier, and one search runs from each of the top
    ``restarts`` computable ones (default 2 below ``_ONE_SEARCH_MIN_N`` rows, else 1). The
    median partitions the distances' own buffer, which is rebuilt in place: one n x n array.
    Each search (``minimize``, which backs off from a point whose evidence is not computable)
    reports the best point it evaluates, or else its start; the best record wins.
    """
    X, y = _validate_training_data(X, y)
    _check_fit_options(max_train, restarts, seed)

    if X.shape[0] > max_train:
        idx = np.sort(np.random.default_rng(seed).choice(X.shape[0], max_train, replace=False))
        X, y = X[idx], y[idx]
    S = pairwise_sq_dists(X)
    n = X.shape[0]
    if restarts is None:
        restarts = 2 if n < _ONE_SEARCH_MIN_N else 1

    pairs = n * (n - 1) // 2  # S holds n zeros and each pair's distance twice: sorted, entries
    k = n + 2 * (pairs // 2)  # k - 1 and k are the pairs' middle two (k alone for an odd count)
    S.reshape(-1).partition(k)  # in place, without numpy.ma: entry k - 1 is the largest below k
    median = S.flat[k] if pairs % 2 else (S.reshape(-1)[:k].max().item() + S.flat[k].item()) / 2
    median_dist = math.sqrt(median) if 0.0 < median < math.inf else 1.0
    pairwise_sq_dists(X, out=S)  # rebuilt in S's buffer: a new n x n one would stay on the heap

    def negative_evidence(theta, gradient=True):
        """(-lml, -gradient, record (lml, theta, Hyperparams)) of ``_profiled_evidence`` at
        theta; lml is nan where it is not computable."""
        try:
            lml, grad, hp = _profiled_evidence(S, y, theta, gradient=gradient)
        except (InputError, NumericalError, OverflowError, FloatingPointError):
            lml, grad, hp = math.nan, np.full(2, math.nan), None
        return -lml, -grad, (lml, theta, hp)

    starts = []  # the computable grid points' records
    for scale in _START_GRID:
        theta = np.array([math.log(scale * median_dist), math.log(0.1)])
        _, _, start = negative_evidence(theta, gradient=False)
        if math.isfinite(start[0]):
            starts.append(start)
    starts.sort(key=lambda start: -start[0])  # stable: a tie keeps the earlier grid point
    if not starts:
        raise NumericalError("evidence was non-finite at every restart")
    records = (minimize(negative_evidence, start[1]).best or start for start in starts[:restarts])
    _, _, hp = max(records, key=lambda record: record[0])

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
        mean[block] = Kq @ model.alpha
        W = _lapack.dtrmm(1.0, model.L_inv, Kq.T, lower=1, overwrite_b=1)  # in Kq's own buffer
        var = prior - np.einsum("ij,ij->j", W, W)
        del Kq, W  # the next block is built after this one is freed
        np.clip(var, 0.0, None, out=var)
        std[block] = np.sqrt(var)
    return mean, std

"""RBF kernel hyperparameters, pairwise distances, and gram-matrix assembly.

The kernel convention used throughout this package is

    k(x, y) = s2 * exp(-||x - y||^2 / (2 * l^2))

with a single isotropic length-scale ``l`` and signal variance ``s2``.
All hyperparameters (including the regression noise variance) are carried
as log-values so that optimization runs in an unconstrained space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .errors import InputError

# Learned noise variances below this value are clamped so the training
# system K + noise*I stays invertible when the optimizer pushes the
# noise toward zero.
NOISE_VARIANCE_FLOOR = 1e-8

# Quarter-scale squared distances are capped here, so that scaled back a
# distance beyond the float range is the float maximum, not inf.
_QUARTER_MAX = np.finfo(np.float64).max / 4

# Width of the column strips the self distances are mirrored in (256 rows: 16 KB of cache lines).
_MIRROR_BLOCK = 256


@dataclass(frozen=True)
class Hyperparams:
    """RBF kernel and noise hyperparameters, stored as log-values."""

    log_length_scale: float
    log_signal_variance: float
    log_noise_variance: float

    def __post_init__(self):
        # The kernel divides by l**2 and uses each variance as a float, so
        # l**2 must neither overflow nor be 0, and no variance may overflow.
        for name, power in (
            ("log_length_scale", 2),
            ("log_signal_variance", 1),
            ("log_noise_variance", 1),
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
            try:
                scale = math.exp(value) ** power
            except OverflowError:
                raise InputError(f"{name} {value!r} is too large: it overflows") from None
            if scale == 0.0 and power == 2:
                raise InputError(f"{name} {value!r} is too small: l**2 is 0")

    @property
    def length_scale(self) -> float:
        return math.exp(self.log_length_scale)

    @property
    def signal_variance(self) -> float:
        return math.exp(self.log_signal_variance)

    @property
    def noise_variance(self) -> float:
        """Noise variance with the positivity floor applied."""
        return max(math.exp(self.log_noise_variance), NOISE_VARIANCE_FLOOR)


def row_sq_norms(A, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A as a C-ordered float64 matrix, and the squared norms of its rows.

    Raises InputError unless A is a nonempty 2-d array, naming the first row
    whose squared norm is not finite, which ``pairwise_sq_dists`` cannot use.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise InputError(f"{name} rows must form a nonempty 2-d array, got shape {A.shape}")
    with np.errstate(over="ignore"):
        sq_norms = np.einsum("ij,ij->i", A, A)
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise InputError(
            f"{name} row {int(bad[0])} is non-finite or too large: its squared norm overflows"
        )
    return A, sq_norms


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances via the dot-product expansion.

    Uses ||a||^2 + ||b||^2 - 2 a.b with a clamp at zero to kill negative
    round-off. When ``B`` is omitted (or is the same array object as
    ``A``) the result is exactly symmetric with an exactly zero diagonal:
    the upper triangle is computed once and mirrored.

    The expansion is summed at a quarter of its scale and scaled back, both
    exact in binary, so rows whose squared norms ``row_sq_norms`` accepts
    cannot overflow it; a distance beyond the float range is capped at the
    float maximum, so the kernel value there is 0 and K * S stays finite.

    The products run on scipy's BLAS, the OpenBLAS its LAPACK uses, so
    numpy's separate thread pool never wakes. Each reads Fortran-ordered
    transpose views (no copy), applies the exact factor -1/2 itself and is
    added into the norm sum: one buffer, clipped, scaled and (self path) mirrored in place.
    """
    self_gram = B is None or B is A
    A, a_norms = row_sq_norms(A, "A")
    with np.errstate(over="ignore"):
        if self_gram:
            # Only the upper triangle of -A A^T / 2 is filled; the mirror overwrites the rest.
            S = np.add.outer(0.25 * a_norms, 0.25 * a_norms)
            S += blas.dsyrk(-0.5, A.T, trans=1, lower=1).T
            np.clip(S, 0.0, _QUARTER_MAX, out=S)
            S *= 4.0
            for i in range(0, S.shape[0], _MIRROR_BLOCK):
                cols = slice(i, i + _MIRROR_BLOCK)
                tile = np.triu(S[cols, cols], 1)
                S[cols, cols] = tile + tile.T
                S[cols.stop :, cols] = S[cols, cols.stop :].T
            return S
        B, b_norms = row_sq_norms(B, "B")
        if A.shape[1] != B.shape[1]:
            raise InputError(f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
        S = np.add.outer(0.25 * a_norms, 0.25 * b_norms)
        S += blas.dgemm(-0.5, B.T, A.T, trans_a=1).T
        np.clip(S, 0.0, _QUARTER_MAX, out=S)
        return np.multiply(S, 4.0, out=S)


def rbf_from_sq_dists(S: np.ndarray, hp: Hyperparams, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values for a precomputed squared-distance matrix.

    Built in ``out`` (which may be S) or a new array, in the operation order
    of ``s2 * exp(-0.5 * S / l**2)`` so the values are bitwise the same, but
    s2 = 1 is not multiplied. A quotient past the float range is -inf, so its value is 0.
    """
    K = np.multiply(S, -0.5, out=out)
    with np.errstate(over="ignore"):
        K /= hp.length_scale**2
    np.exp(K, out=K)
    if hp.signal_variance != 1.0:
        K *= hp.signal_variance
    return K


def kernel_matrix(A, B, hp: Hyperparams) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]), built in the buffer of the distances.

    Pass the same array object for both arguments to get the training
    gram matrix; that path guarantees exact symmetry and an exact
    ``signal_variance`` diagonal.
    """
    S = pairwise_sq_dists(A, B)
    return rbf_from_sq_dists(S, hp, out=S)

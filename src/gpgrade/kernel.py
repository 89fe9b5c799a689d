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


@dataclass(frozen=True)
class Hyperparams:
    """RBF kernel and noise hyperparameters, stored as log-values."""

    log_length_scale: float
    log_signal_variance: float
    log_noise_variance: float

    def __post_init__(self):
        for name in ("log_length_scale", "log_signal_variance", "log_noise_variance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")

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

    def to_log_array(self) -> np.ndarray:
        return np.array(
            [self.log_length_scale, self.log_signal_variance, self.log_noise_variance],
            dtype=np.float64,
        )

    @classmethod
    def from_log_array(cls, theta) -> "Hyperparams":
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (3,):
            raise InputError(f"expected 3 log-parameters, got shape {theta.shape}")
        return cls(float(theta[0]), float(theta[1]), float(theta[2]))


def _as_matrix(A, name: str) -> np.ndarray:
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise InputError(f"{name} must be a 2-d array, got ndim={A.ndim}")
    if A.size == 0:
        raise InputError(f"{name} must be nonempty")
    return A


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances via the dot-product expansion.

    Uses ||a||^2 + ||b||^2 - 2 a.b with a clamp at zero to kill negative
    round-off. When ``B`` is omitted (or is the same array object as
    ``A``) the result is exactly symmetric with an exactly zero diagonal:
    the upper triangle is computed once and mirrored.

    The products run on scipy's BLAS, the OpenBLAS its LAPACK uses, so
    numpy's separate thread pool never wakes. They read Fortran-ordered
    transpose views (no copy) and apply the exact factor -2 themselves,
    because numpy cannot scale their transposed results in place.
    """
    self_gram = B is None or B is A
    A = _as_matrix(A, "A")
    if self_gram:
        sq_norms = np.einsum("ij,ij->i", A, A)
        # Only the upper triangle of -2 A A^T is filled; the rest is dropped.
        S = sq_norms[:, None] + sq_norms[None, :] + blas.dsyrk(-2.0, A.T, trans=1, lower=1).T
        np.maximum(S, 0.0, out=S)
        upper = np.triu(S, 1)
        return upper + upper.T
    B = _as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InputError(
            f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    S = (
        np.einsum("ij,ij->i", A, A)[:, None]
        + np.einsum("ij,ij->i", B, B)[None, :]
        + blas.dgemm(-2.0, B.T, A.T, trans_a=1).T
    )
    np.maximum(S, 0.0, out=S)
    return S


def rbf_from_sq_dists(S: np.ndarray, hp: Hyperparams) -> np.ndarray:
    """Kernel values for a precomputed squared-distance matrix.

    Built in one new array, in the operation order of
    ``s2 * exp(-0.5 * S / l**2)`` so the values are bitwise the same.
    """
    K = np.multiply(S, -0.5)
    K /= hp.length_scale**2
    np.exp(K, out=K)
    K *= hp.signal_variance
    return K


def kernel_matrix(A, B, hp: Hyperparams) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]).

    Pass the same array object for both arguments to get the training
    gram matrix; that path guarantees exact symmetry and an exact
    ``signal_variance`` diagonal.
    """
    return rbf_from_sq_dists(pairwise_sq_dists(A, B), hp)


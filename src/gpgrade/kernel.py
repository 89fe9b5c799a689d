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

# Width of the column strips a triangle is mirrored in (256 rows: 16 KB of cache lines).
_MIRROR_BLOCK = 256

# Rows per strip in which pairwise_sq_dists adds the norm sum into the product.
_DIST_STRIP = 16


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


def row_sq_norms(A, name: str, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A as a C-ordered float64 matrix, and the squared norms of its rows.

    Raises InputError unless A is a nonempty 2-d array, naming the first row (counted from
    ``first``) whose squared norm is not finite, which ``pairwise_sq_dists`` cannot use.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise InputError(f"{name} rows must form a nonempty 2-d array, got shape {A.shape}")
    with np.errstate(over="ignore"):
        sq_norms = np.einsum("ij,ij->i", A, A)
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise InputError(
            f"{name} row {first + bad[0]} is non-finite or too large: its squared norm overflows"
        )
    return A, sq_norms


def _mirror_upper(M: np.ndarray) -> None:
    """Copy the strict upper triangle of square M onto its strict lower one, in place, in
    column strips of _MIRROR_BLOCK, and zero the diagonal."""
    for i in range(0, M.shape[0], _MIRROR_BLOCK):
        cols = slice(i, i + _MIRROR_BLOCK)
        for j in range(i, min(cols.stop, M.shape[0])):  # the diagonal tile, by disjoint copies
            M[j + 1 : cols.stop, j], M[j, j] = M[j, j + 1 : cols.stop], 0.0
        M[cols.stop :, cols] = M[cols, cols.stop :].T


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
    """
    S = _sq_dists(A, B)
    if B is None or B is A:
        _mirror_upper(S)
    return S


def _sq_dists(A, B=None, out: np.ndarray | None = None) -> np.ndarray:
    """``pairwise_sq_dists`` before the mirror; on the self path, into the C-ordered n x n out
    if given, of which only the upper triangle and the strips' diagonal tiles are written.

    The products run on scipy's BLAS, the OpenBLAS its LAPACK uses, so
    numpy's separate thread pool never wakes. Each reads Fortran-ordered
    transpose views (no copy), applies the exact factor -1/2 itself and
    writes its own buffer, the result's: the norm sum is added into it (the
    same sum, so the same bits, as the product added into the norm sum),
    clipped and scaled in strips of _DIST_STRIP rows through one small
    buffer; on the self path over the upper triangle only.
    """
    self_gram = B is None or B is A
    A, a_norms = row_sq_norms(A, "A")
    if self_gram:
        b_norms = a_norms
        c = None if out is None else out.T  # its Fortran lower triangle is out's upper one
        S = blas.dsyrk(-0.5, A.T, trans=1, lower=1, c=c, overwrite_c=1).T
    else:
        B, b_norms = row_sq_norms(B, "B")
        if A.shape[1] != B.shape[1]:
            raise InputError(f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
        S = blas.dgemm(-0.5, B.T, A.T, trans_a=1).T
    a_quarter, b_quarter = 0.25 * a_norms, 0.25 * b_norms
    strip = np.empty((min(_DIST_STRIP, S.shape[0]), S.shape[1]))
    with np.errstate(over="ignore"):
        for i in range(0, S.shape[0], _DIST_STRIP):
            rows = slice(i, i + _DIST_STRIP)
            cols = slice(i if self_gram else 0, None)
            part = S[rows, cols]
            norm_sum = strip[: part.shape[0], : part.shape[1]]
            np.add.outer(a_quarter[rows], b_quarter[cols], out=norm_sum)
            np.add(norm_sum, part, out=part)
            np.clip(part, 0.0, _QUARTER_MAX, out=part)
            part *= 4.0
    return S


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

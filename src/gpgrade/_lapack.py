"""LAPACK and BLAS routines from the OpenBLAS numpy has loaded, bound through ctypes, so that no
process imports scipy and numpy's ``@`` shares their library and thread pool. Each has its
``scipy.linalg`` namesake's keywords and results for the calls the package makes, on a Fortran
float64 array: the one given if it may be overwritten, else a copy. Where numpy's build names
another BLAS or lacks a routine, the names are scipy's own routines.
"""

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

# Fortran arguments: c a character (its hidden length, 1, follows them all), i an integer and
# d a double by reference, a an array's address. LAPACK's last is its info.
_SIGNATURES = {"dpotrf": "ciaii", "dpotri": "ciaii", "dtrtri": "cciaii",
               "dpotrs": "ciiaiaii", "dtrmm": "cccciidaiai", "dsyrk": "cciidaidai"}


def _bind():
    """call(routine, *arguments) -> the last argument after the call, on numpy's scipy-openblas;
    None where numpy's config names another BLAS or its library lacks a routine."""
    config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    ilp64 = "USE64BITINT" in config.get("openblas configuration", "")
    INT, suffix = (ctypes.c_int64, "_64_") if ilp64 else (ctypes.c_int32, "_")
    lib = ctypes.CDLL(_umath_linalg.__file__)  # the symbols resolve through its dependencies
    routines = {name: getattr(lib, f"scipy_{name}{suffix}", None) for name in _SIGNATURES}
    if config.get("name") != "scipy-openblas" or None in routines.values():
        return None
    kinds = {"c": (ctypes.c_char_p, str.encode), "a": (ctypes.c_void_p, lambda a: a.ctypes.data),
             "i": (ctypes.POINTER(INT), lambda v: ctypes.pointer(INT(v))),
             "d": (ctypes.POINTER(ctypes.c_double), lambda v: ctypes.pointer(ctypes.c_double(v)))}
    for name, signature in _SIGNATURES.items():
        lengths = [ctypes.c_size_t] * signature.count("c")
        routines[name].argtypes = [kinds[k][0] for k in signature] + lengths

    def call(name, *arguments):
        values = [kinds[k][1](v) for k, v in zip(_SIGNATURES[name], arguments, strict=True)]
        routines[name](*values, *[1] * _SIGNATURES[name].count("c"))
        return values[-1].contents.value

    return call


def _fortran(a, overwrite, *shape):
    """a as a Fortran-ordered float64 array, itself if it may be overwritten; ValueError unless
    its shape is ``shape``."""
    a = np.require(a, np.float64, "FW") if overwrite else np.array(a, np.float64, order="F")
    if a.shape != shape:
        raise ValueError(f"expected an array of shape {shape}, got {a.shape}")
    return a


def dpotrf(a, lower=0, clean=1, overwrite_a=0):
    """Cholesky factor of a in its lower (or upper) triangle, and info; clean zeroes the other."""
    c = _fortran(a, overwrite_a, len(a), len(a))
    info = _call("dpotrf", "UL"[lower], len(c), c, max(len(c), 1), 0)
    if clean:
        np.copyto(c.T if lower else c, 0.0, where=np.tri(len(c), k=-1, dtype=bool))
    return c, info


def dpotri(c, lower=0, overwrite_c=0):
    """The inverse of the matrix whose Cholesky factor is c, in c's triangle, and info."""
    c = _fortran(c, overwrite_c, len(c), len(c))
    return c, _call("dpotri", "UL"[lower], len(c), c, max(len(c), 1), 0)


def dtrtri(c, lower=0, overwrite_c=0):
    """The inverse of the triangular c, and info: a zero diagonal's index from 1."""
    c = _fortran(c, overwrite_c, len(c), len(c))
    return c, _call("dtrtri", "UL"[lower], "N", len(c), c, max(len(c), 1), 0)


def dpotrs(c, b, lower=0):
    """x solving A x = b for a vector b and the A whose Cholesky factor is c, and info."""
    c, x = _fortran(c, True, len(c), len(c)), _fortran(b, False, len(c))
    return x, _call("dpotrs", "UL"[lower], len(c), 1, c, max(len(c), 1), x, max(len(c), 1), 0)


def dtrmm(alpha, a, b, lower=0, overwrite_b=0):
    """alpha * a @ b for the triangular a and a matrix b, in b if it may be overwritten."""
    a, m = _fortran(a, True, len(a), len(a)), max(len(a), 1)
    b = _fortran(b, overwrite_b, len(a), np.shape(b)[-1])
    _call("dtrmm", "L", "UL"[lower], "N", "N", *b.shape, alpha, a, m, b, m)
    return b


def dsyrk(alpha, a, *, c, trans=0, lower=0, overwrite_c=0):
    """One triangle of alpha * a @ a.T (a.T @ a with trans), in c if it may be overwritten."""
    a = _fortran(a, True, *np.shape(a))
    n, k = a.shape[::-1] if trans else a.shape
    c = _fortran(c, overwrite_c, n, n)
    _call("dsyrk", "UL"[lower], "NT"[trans], n, k, alpha, a, max(len(a), 1), 0.0, c, max(n, 1))
    return c


_call = _bind()
if _call is None:  # the same surface from scipy
    from scipy.linalg.blas import dsyrk, dtrmm  # noqa: F811
    from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtri  # noqa: F811

"""Feature-file ingestion, normalization, synthesis, and model persistence.

On-disk formats:

* Feature CSV: header ``id,grade,f0,...,f{D-1}``, UTF-8, decimal-point
  reals, no quoting. Grades are integers 0..4.
* Model archive: a single binary file. A little-endian prefix of the
  8-byte ``GPGMODEL`` magic, the uint32 format version, the 32-byte sha256
  of the payload and the uint64 payload length, then the payload: a uint64
  header length, a JSON header and raw little-endian float64 array buffers.
  Writes are deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import blas

from . import gp
from .errors import InputError, ModelFormatError, ParseError
from .kernel import Hyperparams

STD_FLOOR = 1e-8

MODEL_MAGIC = b"GPGMODEL"
MODEL_FORMAT_VERSION = 1
# The archive prefix: magic, format version, payload sha256, payload length.
_PREFIX = struct.Struct("<8sI32sQ")

# Tolerance when comparing recomputed factor/solve digests on load.
_DIGEST_RTOL = 1e-10

# A lone surrogate is how a byte that is not UTF-8 reads under surrogateescape.
_UNSAFE_ID_CHARS = re.compile('[\0,"\r\n\ud800-\udfff]')
_UNSAFE_ID_TEXT = "a NUL, comma, quote, CR or LF, or text that is not UTF-8"


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics, computed on the training split."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        # apply_normalizer divides by std: a negative one would mirror a
        # feature, and one of 0 or NaN would make it non-finite.
        mean, std = np.asarray(self.mean), np.asarray(self.std)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise InputError("normalizer mean and std must be 1-d and equally long")
        finite = np.isfinite(mean).all() and np.isfinite(std).all()
        if not (finite and (std >= STD_FLOOR).all()):
            raise InputError(f"normalizer statistics must be finite, with std >= {STD_FLOOR}")


def load_feature_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a feature CSV in file order, validating every row.

    Returns ``(ids, X, grades)``: the id strings, the (n, D) float64
    feature matrix and the integer grade vector. Raises ParseError (with
    the offending 1-based line number) on a malformed header, inconsistent
    row width, an id holding a NUL, comma, quote, CR, LF or bytes that are
    not UTF-8, a non-integer or out-of-range grade, a non-finite feature
    value or a line csv cannot read.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    ids: list[str] = []
    rows: list[np.ndarray] = []
    grades: list[int] = []
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header", line=1) from None
        dim = len(header) - 2
        if dim < 1 or header != _csv_header(dim):
            raise ParseError("malformed header: expected 'id,grade,f0,...,f{D-1}'", line=1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 2:
                raise ParseError(
                    f"expected {dim + 2} fields, got {len(row)}", line=lineno
                )
            # Ids are echoed unquoted into the prediction CSV, so a field
            # separator, quote, line break or NUL in one would corrupt that file.
            if _UNSAFE_ID_CHARS.search(row[0]):
                raise ParseError(
                    f"id {row[0]!r} contains {_UNSAFE_ID_TEXT}", line=lineno
                )
            try:
                grade = int(row[1])
            except ValueError:
                raise ParseError(
                    f"non-integer grade {row[1]!r}", line=lineno
                ) from None
            if grade < 0 or grade > 4:
                raise ParseError(f"grade {grade} out of range 0..4", line=lineno)
            try:
                features = np.asarray(row[2:], dtype=np.float64)
            except ValueError:
                raise ParseError("non-numeric feature value", line=lineno) from None
            if not np.isfinite(features).all():
                raise ParseError("non-finite feature value", line=lineno)
            ids.append(row[0])
            rows.append(features)
            grades.append(grade)
    if not ids:
        raise ParseError("no records")
    return ids, np.stack(rows), np.array(grades)


def _csv_header(dim: int) -> list[str]:
    return ["id", "grade", *(f"f{i}" for i in range(dim))]


def _csv_rows(fh):
    """The csv.reader rows of fh, raising the reader's own errors as ParseError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def write_feature_csv(ids, X, grades, path) -> None:
    """Write rows in the feature CSV format (atomic, deterministic).

    Rejects, naming their shapes, inputs other than n ids, n grades and an
    (n, D) matrix with n, D >= 1. Rejects what ``load_feature_csv`` would
    reject, naming the first bad row: an id holding a NUL, comma, quote,
    CR, LF or a lone surrogate (not encodable as UTF-8), a grade that is
    not an integer 0..4, or a non-finite feature value.
    """
    X, grades = np.asarray(X, dtype=np.float64), np.asarray(grades)
    n = len(ids)
    if X.ndim != 2 or X.shape[1] < 1 or X.shape[0] != n or grades.shape != (n,):
        raise InputError(
            f"expected n ids, n grades and an (n, D >= 1) feature matrix, got "
            f"{n} ids, grades of shape {grades.shape} and X of shape {X.shape}"
        )
    if n == 0:
        raise InputError("no records to write")
    lines = [",".join(_csv_header(X.shape[1])) + "\n"]
    for row, (id_, grade, features) in enumerate(zip(ids, grades.tolist(), X.tolist())):
        if _UNSAFE_ID_CHARS.search(str(id_)):
            raise InputError(f"row {row}: id {id_!r} contains {_UNSAFE_ID_TEXT}")
        if type(grade) is not int or not 0 <= grade <= 4:
            raise InputError(f"row {row}: grade {grade!r} is not an integer 0..4")
        if not all(map(math.isfinite, features)):
            raise InputError(f"row {row}: non-finite feature value")
        values = ",".join(repr(v) for v in features)
        lines.append(f"{id_},{grade},{values}\n")
    _atomic_write(path, "".join(lines))


def fit_normalizer(X) -> NormStats:
    """Per-feature mean/std of the training matrix; std floored at 1e-8.

    Rejects the matrix, naming the first row at which a column's running
    sum of squares overflows, when the statistics are not finite.
    """
    X = _as_features(X)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = np.maximum(X.std(axis=0), STD_FLOOR)
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            row = int(np.argmax(~np.isfinite(np.cumsum(X * X, axis=0)).all(axis=1)))
            raise InputError(
                f"training row {row} is non-finite or too large: "
                "a feature's sum of squares overflows"
            )
    return NormStats(mean=mean, std=std)


def apply_normalizer(stats: NormStats, X) -> np.ndarray:
    """Z-score a feature matrix with frozen training statistics.

    Features too large for their scale become inf; ``gp.predict`` rejects them.
    """
    X = _as_features(X)
    if X.shape[1] != stats.mean.shape[0]:
        raise InputError(
            f"feature dimension {X.shape[1]} does not match normalizer "
            f"dimension {stats.mean.shape[0]}"
        )
    with np.errstate(over="ignore"):
        return (X - stats.mean) / stats.std


def _as_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InputError(f"expected a nonempty (n, D) feature matrix, got shape {X.shape}")
    return X


def synthesize_dataset(
    n_per_grade,
    D: int,
    separation: float,
    noise: float,
    seed: int,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Seeded synthetic stand-in for extracted image features.

    Grade ``g`` samples are drawn from an isotropic Gaussian centred at
    ``g * separation * u`` for a fixed unit direction ``u`` derived from
    the seed, so the grades embed on a one-dimensional manifold and the
    regress-then-threshold pipeline is learnable. Returns ``(ids, X,
    grades)`` in grade order, like ``load_feature_csv``.
    """
    n_per_grade = list(n_per_grade)
    if len(n_per_grade) != 5 or any(int(n) != n or n < 0 for n in n_per_grade):
        raise InputError("n_per_grade must be five non-negative integers")
    if D < 2:
        raise InputError("D must be at least 2")
    if not all(math.isfinite(v) and v > 0 for v in (separation, noise)):
        raise InputError("separation and noise must be finite and positive")
    if seed < 0:
        raise InputError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=D)
    u /= math.sqrt(blas.ddot(u, u))
    total = int(sum(n_per_grade))
    eps = rng.normal(size=(total, D))
    grades = np.repeat(np.arange(5), [int(n) for n in n_per_grade])
    X = (grades * separation)[:, None] * u + noise * eps
    ids = [f"synth-{idx:05d}" for idx in range(total)]
    return ids, X, grades


# ---------------------------------------------------------------------------
# model persistence


def _atomic_write(path, content: str | bytes) -> None:
    """Write text (as UTF-8) or bytes through a temp file and a rename."""
    path = Path(path)
    if isinstance(content, str):
        content = content.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(content)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp.exists():
            tmp.unlink()


def _model_digests(model: gp.GPModel) -> dict:
    L, alpha = model.chol_L.ravel(order="K"), model.alpha
    return {
        "chol_l_fro": math.sqrt(blas.ddot(L, L)),
        "alpha_l2": math.sqrt(blas.ddot(alpha, alpha)),
    }


def save_model(model: gp.GPModel, path) -> None:
    """Serialize a trained model to a versioned, checksummed archive.

    The Cholesky factor and solve vector are not stored; numeric digests
    of both are, so the load path can verify its recomputation.
    """
    arrays = [("X_train", model.X_train), ("y_train", model.y_train)]
    if model.normalizer is not None:
        arrays.append(("norm_mean", model.normalizer.mean))
        arrays.append(("norm_std", model.normalizer.std))
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "log_length_scale": model.hp.log_length_scale,
        "log_signal_variance": model.hp.log_signal_variance,
        "log_noise_variance": model.hp.log_noise_variance,
        "train_subset_seed": int(model.train_subset_seed),
        "has_normalizer": model.normalizer is not None,
        "digests": _model_digests(model),
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in arrays
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buffers = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
    payload = struct.pack("<Q", len(header_bytes)) + header_bytes + buffers
    checksum = hashlib.sha256(payload).digest()
    prefix = _PREFIX.pack(MODEL_MAGIC, MODEL_FORMAT_VERSION, checksum, len(payload))
    _atomic_write(path, prefix + payload)


# Allowed JSON types of each archive header entry that load_model reads.
# Exact types, because bool is an int subclass: a flag must not pass for a
# number, nor a number for a flag.
_NUMBER = (int, float)
_HEADER_TYPES = {
    "arrays": (list,),
    "digests": (dict,),
    "log_length_scale": _NUMBER,
    "log_signal_variance": _NUMBER,
    "log_noise_variance": _NUMBER,
    "has_normalizer": (bool,),
    "train_subset_seed": (int,),
}


def _array_shapes(header) -> dict[str, tuple[int, ...]]:
    """Check a decoded archive header; return each array's shape in file order."""
    if not isinstance(header, dict):
        raise ModelFormatError("archive header is not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        if type(header.get(key)) not in kind:
            raise ModelFormatError(f"archive header entry {key!r} is missing or mistyped")
    # Every other array's shape follows from the training matrix's (n, D).
    specs = header["arrays"]
    shape = specs[0].get("shape") if specs and isinstance(specs[0], dict) else None
    if type(shape) is not list or len(shape) != 2 or not all(
        type(s) is int and s >= 0 for s in shape
    ):
        raise ModelFormatError("archive does not start with a 2-d X_train array")
    n, dim = shape
    expected = {"X_train": (n, dim), "y_train": (n,)}
    if header["has_normalizer"]:
        expected.update(norm_mean=(dim,), norm_std=(dim,))
    if specs != [{"name": k, "shape": list(v)} for k, v in expected.items()]:
        raise ModelFormatError(
            f"archive arrays must be {expected} (name: shape), in that order"
        )
    return expected


def load_model(path) -> gp.GPModel:
    """Load a model archive; recompute and verify the factorized system.

    Raises ModelFormatError on a bad magic string, unknown format
    version, checksum mismatch, truncation, a header with missing,
    mistyped or inconsistent entries, hyperparameters, normalizer
    statistics or training rows that ``Hyperparams``, ``NormStats`` or
    ``gp.build_model`` reject, or when the recomputed factor/solve digests
    deviate from the saved ones.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    blob = path.read_bytes()
    if blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError(f"{path} is not a model archive")
    if len(blob) < _PREFIX.size:
        raise ModelFormatError("truncated archive: header incomplete")
    _, version, checksum, payload_len = _PREFIX.unpack_from(blob)
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    payload = blob[_PREFIX.size : _PREFIX.size + payload_len]
    if len(payload) != payload_len:
        raise ModelFormatError("truncated archive: payload incomplete")
    if hashlib.sha256(payload).digest() != checksum:
        raise ModelFormatError("checksum mismatch: archive payload is corrupt")

    try:
        (header_len,) = struct.unpack_from("<Q", payload, 0)
        header = json.loads(payload[8 : 8 + header_len].decode("utf-8"))
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable archive header: {exc}") from None

    cursor = 8 + header_len
    loaded = {}
    for name, shape in _array_shapes(header).items():
        nbytes = math.prod(shape) * 8
        raw = payload[cursor : cursor + nbytes]
        if len(raw) != nbytes:
            raise ModelFormatError("truncated archive: array data incomplete")
        loaded[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        cursor += nbytes

    try:
        hp = Hyperparams(
            header["log_length_scale"],
            header["log_signal_variance"],
            header["log_noise_variance"],
        )
        normalizer = None
        if header["has_normalizer"]:
            normalizer = NormStats(mean=loaded["norm_mean"], std=loaded["norm_std"])
        model = gp.build_model(
            loaded["X_train"],
            loaded["y_train"],
            hp,
            normalizer=normalizer,
            train_subset_seed=int(header["train_subset_seed"]),
        )
    except InputError as exc:
        raise ModelFormatError(f"archive does not rebuild: {exc}") from None
    recomputed = _model_digests(model)
    if set(header["digests"]) != set(recomputed):
        raise ModelFormatError(f"archive digests must be {sorted(recomputed)}")
    for key, got in recomputed.items():
        saved = header["digests"][key]
        if type(saved) not in _NUMBER or not math.isclose(
            got, saved, rel_tol=_DIGEST_RTOL, abs_tol=_DIGEST_RTOL
        ):
            raise ModelFormatError(
                f"digest {key} mismatch after recomputation: "
                f"saved {saved!r}, got {got!r}"
            )
    return model

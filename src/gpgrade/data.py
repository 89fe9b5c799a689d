"""Feature-file ingestion, normalization, synthesis, and model persistence.

On-disk formats:

* Feature CSV: header ``id,grade,f0,...,f{D-1}``, UTF-8 with or without a
  BOM, decimal-point reals, one line per record, csv quoting allowed within
  it (an id holds no quote, comma, NUL, CR or LF). Grades are integers 0..4.
* Model archive: a single binary file. A little-endian prefix of the
  8-byte ``GPGMODEL`` magic, the uint32 format version, the 32-byte sha256
  of the payload and the uint64 payload length, then the payload: a uint64
  header length, a JSON header and raw little-endian float64 array buffers.
  Writes are deterministic for identical inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import re
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

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
    value, a record of more than one line or a line csv cannot parse.

    The features are parsed into one matrix, sized before parsing: a record ends at an LF,
    a CR, a CRLF or the end of the file, and holds D + 1 commas. Rows it never fills cost no
    memory, and it is cut to the rows read. Scoring streams this loop in 512-row runs.
    np.loadtxt converts chunks of lines until one might read otherwise than the csv row loop,
    which reads on from there, so what is accepted and every error are the row loop's.
    """
    (run,) = _feature_runs(path)
    return run


@contextlib.contextmanager
def _reading(path: Path):
    """Raise InputError unless path is a regular file, and for an OSError in the reading block."""
    try:
        if not path.is_file():  # a directory or a device exists: it cannot be read as a file
            raise InputError(f"cannot read {path}: not a regular file" if path.exists()
                             else f"no such file: {path}")
        yield
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _feature_runs(path, run_rows: int | None = None):
    """Yield a feature CSV's records as validated ``(ids, X, grades)`` runs of run_rows rows
    (None: one run). The rows before a defect are yielded before its ParseError is raised,
    so a consumer that rejects one of them names the first defect in the file. Only one run
    is sized by counting line ends (then it holds at most the file's records): streamed runs
    read the file once. ``_fast_rows`` takes _CHUNK lines at a time until it declines some;
    the csv row loop, sole owner of what is accepted and of every error, reads on from there."""
    path = Path(path)
    encoding = {"encoding": "utf-8-sig", "errors": "surrogateescape"}  # a BOM is skipped
    with _reading(path), open(path, newline="", **encoding) as fh:
        size = os.fstat(fh.fileno()).st_size
        if run_rows is None:
            run_rows = 1  # a CRLF split across two chunks counts twice, which still bounds them
            for chunk in iter(lambda: fh.buffer.read(1 << 16), b""):
                run_rows += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header", line=1) from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
        dim = len(header) - 2
        if dim < 1 or header != _csv_header(dim):
            raise ParseError("malformed header: expected 'id,grade,f0,...,f{D-1}'", line=1)
        # More rows than the file has records (its header is one): such a run ends with the file.
        run_rows = min(run_rows, size // (dim + 1) + 1)
        offset = None  # set when the row loop takes over: its first line's number, less one
        for first in itertools.count(2, run_rows):  # the line of the run's first record
            X, ids, grades, error = np.empty((run_rows, dim)), [], [], None
            while offset is None and len(ids) < run_rows:  # the file's end: no lines, declined
                lines = list(itertools.islice(fh, min(run_rows - len(ids), _CHUNK)))
                if not _fast_rows(lines, X, ids, grades):
                    offset, reader = first + len(ids) - 1, csv.reader(itertools.chain(lines, fh))
            rows = () if offset is None else reader
            try:
                for lineno, row in zip(itertools.count(first + len(ids)), rows):
                    if len(row) != dim + 2:
                        raise ParseError(f"expected {dim + 2} fields, got {len(row)}", line=lineno)
                    # Ids are echoed unquoted into the prediction CSV, so a field
                    # separator, quote, line break or NUL in one would corrupt that file.
                    if _UNSAFE_ID_CHARS.search(row[0]):
                        raise ParseError(f"id {row[0]!r} contains {_UNSAFE_ID_TEXT}", line=lineno)
                    if offset + reader.line_num != lineno:  # a line break in a quoted field
                        raise ParseError("a record must be one line", line=lineno)
                    try:
                        grade = int(row[1])
                    except ValueError:
                        raise ParseError(f"non-integer grade {row[1]!r}", line=lineno) from None
                    if grade < 0 or grade > 4:
                        raise ParseError(f"grade {grade} out of range 0..4", line=lineno)
                    try:
                        X[len(ids)] = row[2:]  # converted as np.asarray(row[2:], float) converts
                    except ValueError:
                        raise ParseError("non-numeric feature value", line=lineno) from None
                    ids.append(row[0])
                    grades.append(grade)
                    if len(ids) == run_rows:
                        break
            except ParseError as exc:
                error = exc
            except csv.Error as exc:
                error = ParseError(str(exc), line=offset + reader.line_num)
            bad = np.flatnonzero(~np.isfinite(X[: len(ids)]).all(axis=1))  # once per run
            if bad.size:  # the first defect: above any parse error, and the rows above it go first
                error = ParseError("non-finite feature value", line=first + int(bad[0]))
                del ids[bad[0] :], grades[bad[0] :]
            X.resize((len(ids), dim), refcheck=False)
            if ids:
                yield ids, X, np.array(grades)
            if error is not None or first == 2 and not ids:
                raise error or ParseError("no records")
            if len(ids) < run_rows:
                return


# Lines per np.loadtxt call: a chunk's strings stay small beside one load's matrix, and
# longer chunks measured no faster.
_CHUNK = 128


def _fast_rows(lines, X, ids, grades) -> bool:
    """Append record lines to a run, features converted by np.loadtxt, and return True; or
    return False, the run unchanged, where the row loop might read a line otherwise: a line
    over the csv field limit, feature text with a quote, NUL or \\x1c-\\x1f (blanks to
    np.loadtxt, not to float), an id or grade the row loop rejects, or a row not of X's width.
    Finiteness is left to the run's check, which the row loop's rows meet too."""
    try:
        new_ids, new_grades, rests = zip(*(line.split(",", 2) for line in lines))
        new_grades, text = [int(grade) for grade in new_grades], "".join(rests)
        if (
            max(map(len, lines)) > csv.field_size_limit()
            or not text.lstrip("\r\n")  # np.loadtxt would warn on a chunk with no feature text
            or any(c in text for c in '"\0\x1c\x1d\x1e\x1f')
            or not 0 <= min(new_grades) <= max(new_grades) <= 4
            or _UNSAFE_ID_CHARS.search("".join(new_ids))
        ):
            return False
        values = np.loadtxt(rests, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
    except ValueError:  # no lines, fewer than three fields, or a grade or value not read
        return False
    if values.shape != (len(lines), X.shape[1]):  # np.loadtxt skips blank lines
        return False
    X[len(ids) : len(ids) + len(lines)] = values
    ids += new_ids
    grades += new_grades
    return True


def _csv_header(dim: int) -> list[str]:
    return ["id", "grade", *(f"f{i}" for i in range(dim))]


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
    """Z-score a feature matrix with frozen training statistics, into a new matrix.

    Features too large for their scale become inf; ``gp.predict`` rejects them.
    """
    return _normalize_in_place(stats, np.array(X, dtype=np.float64))


def _normalize_in_place(stats: NormStats, X) -> np.ndarray:
    """``apply_normalizer``'s values, written over a float64 matrix X, which is returned."""
    X = _as_features(X)
    if X.shape[1] != stats.mean.shape[0]:
        raise InputError(
            f"feature dimension {X.shape[1]} does not match normalizer "
            f"dimension {stats.mean.shape[0]}"
        )
    with np.errstate(over="ignore"):
        X -= stats.mean
        X /= stats.std
    return X


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
    total = int(sum(n_per_grade))
    if max(total, 1) * D * 8 > np.iinfo(np.intp).max:  # numpy cannot size it: a ValueError
        raise InputError(f"{total} records of {D} features are more than memory can address")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=D)
    u /= math.sqrt(u @ u)
    eps = rng.normal(size=(total, D))
    grades = np.repeat(np.arange(5), [int(n) for n in n_per_grade])
    with np.errstate(over="ignore", invalid="ignore"):
        X = (grades * separation)[:, None] * u + noise * eps
    if not np.isfinite(X).all():
        raise InputError("separation and noise are too large: a feature overflows")
    ids = [f"synth-{idx:05d}" for idx in range(total)]
    return ids, X, grades


# ---------------------------------------------------------------------------
# model persistence


def _writable(path) -> Path:
    """Path(path); InputError unless it names a file, not '.', '' or '/' nor a directory, in one."""
    path = Path(path)
    reason = ("not a file name" if not path.name
              else f"no directory {path.parent}" if not os.path.isdir(path.parent)  # no OSError
              else "Is a directory" if os.path.isdir(path) else None)
    if reason:
        raise InputError(f"cannot write {path}: {reason}")
    return path


def _atomic_write(path, content) -> None:
    """Write text (as UTF-8), bytes or an iterable of text chunks, each as it comes, through a
    temp file and a rename. If a chunk cannot be made, its exception propagates, no file left."""
    path = _writable(path)
    # A fresh name, created exclusively, so no existing path is overwritten or
    # removed; the mode follows the umask as a plain open's does.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    created = False
    try:
        with open(tmp, "xb") as fh:
            created = True
            for chunk in [content] if isinstance(content, (str, bytes)) else content:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
        created = False
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if created:
            tmp.unlink()


def _model_digests(model: gp.GPModel) -> dict:
    hp, alpha = model.hp, model.alpha
    trace = alpha.size * (hp.signal_variance + hp.noise_variance + model.jitter)
    with np.errstate(over="ignore"):  # inf: such a model's archive does not load
        return {"chol_l_fro": math.sqrt(trace), "alpha_l2": math.sqrt(alpha @ alpha)}


def save_model(model: gp.GPModel, path) -> None:
    """Serialize a trained model to a versioned, checksummed archive.

    The Cholesky factor and solve vector are not stored; digests of both are
    (||L||_F from the factor's trace, and ||alpha||), so the load path can verify its rebuild.
    """
    arrays = [("X_train", model.X_train), ("y_train", model.y_train)]
    if model.normalizer is not None:
        arrays.append(("norm_mean", model.normalizer.mean))
        arrays.append(("norm_std", model.normalizer.std))
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        **asdict(model.hp),
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
    **{field.name: _NUMBER for field in fields(Hyperparams)},
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
    ``gp.build_model`` reject, or when the digests of the rebuilt model,
    ||L||_F from its factor's trace and ||alpha||, deviate from the saved ones.
    """
    path = Path(path)
    with _reading(path):
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
        hp = Hyperparams(**{field.name: header[field.name] for field in fields(Hyperparams)})
        normalizer = None
        if header["has_normalizer"]:
            normalizer = NormStats(mean=loaded["norm_mean"], std=loaded["norm_std"])
        model = gp.build_model(loaded["X_train"], loaded["y_train"], hp, normalizer=normalizer,
                               train_subset_seed=int(header["train_subset_seed"]))
    except InputError as exc:
        raise ModelFormatError(f"archive does not rebuild: {exc}") from None
    recomputed = _model_digests(model)
    if set(header["digests"]) != set(recomputed):
        raise ModelFormatError(f"archive digests must be {sorted(recomputed)}")
    for key, got in recomputed.items():
        saved = header["digests"][key]
        if type(saved) is not float or not math.isclose(
            got, saved, rel_tol=_DIGEST_RTOL, abs_tol=_DIGEST_RTOL
        ):
            raise ModelFormatError(
                f"digest {key} mismatch after recomputation: "
                f"saved {saved!r}, got {got!r}"
            )
    return model

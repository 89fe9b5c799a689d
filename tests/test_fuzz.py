"""Property tests: the feature CSV round trip, the parse's fast path against its row loop,
the flip rule's monotonicity, midrank AUC against scipy's ranks, corrupted and resealed
archives, and query rows."""

import csv
import functools
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from gpgrade import (
    InputError,
    ModelFormatError,
    apply_normalizer,
    apply_uncertainty_flip,
    fit,
    fit_normalizer,
    load_feature_csv,
    load_model,
    predict,
    save_model,
    synthesize_dataset,
    write_feature_csv,
)
import gpgrade.data
from gpgrade.data import _feature_runs
from gpgrade.errors import ParseError
from gpgrade.metrics import roc_auc

from conftest import reseal

# Any id the loader accepts: no NUL, comma, quote, CR or LF, and encodable as UTF-8.
ids = st.text(st.characters(blacklist_characters='\0,"\r\n', blacklist_categories=("Cs",)))
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def feature_tables(draw):
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 5))
    return (
        draw(st.lists(ids, min_size=n, max_size=n)),
        np.array(draw(st.lists(finite, min_size=n * dim, max_size=n * dim))).reshape(n, dim),
        np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))),
    )


@settings(max_examples=60, deadline=None)
@given(table=feature_tables())
def test_feature_csv_round_trip(tmp_path_factory, table):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_feature_csv(*table, path)
    back_ids, back_X, back_grades = load_feature_csv(path)
    assert back_ids == table[0]
    assert back_X.tobytes() == table[1].tobytes()
    np.testing.assert_array_equal(back_grades, table[2])


# Field texts both routes read, and edits each of which is a defect or a text only one route
# might read: digit separators and full-width digits (the row loop's), comments, quotes,
# NUL, blanks np.loadtxt strips and float does not (\x1c-\x1f), separators, line ends,
# bytes that are not UTF-8 (surrogates here), blank lines and lines of blanks, and records
# cut or too wide.
ok_ids = st.sampled_from(["r", "id 7", "", "ü", "a#b", "\x1c"])
ok_grades = st.sampled_from(["0", "2", "4", " 3", "\t1"])
ok_numbers = st.sampled_from(
    ["0.5", "-3", "1e-300", "5e-324", "1.7976931348623157e308", " 2 ", "+.5", "\t7\x0b", "1E5"]
)
edits = st.one_of(
    st.tuples(st.just("id"), st.sampled_from(['"r"', '"a,b"', "a\0b", '"a\nb"', "\udcff"])),
    st.tuples(st.just("grade"), st.sampled_from(["5", "-1", "x", "1_0", "2.0", "２", '"2"', ""])),
    st.tuples(
        st.just("feature"),
        st.sampled_from(
            ["1_0", "１", "٣.5", "nan", "-inf", "1e400", "3#x", "0x10", "", "\x1c1", "1\x1f",
             "\x1d", "1 2", '"0.5"', "1\0", "#", ".", "1e5\x1e", "1\udcff"]
        ),  # fmt: skip
    ),
    st.tuples(
        st.just("insert"),
        st.sampled_from(
            ['"', "\0", "#", "_", "１", " ", ",", "\r", "\n", "\r\n", "\x1c", "\x1f", "\udcff",
             "\udcc3"]
        ),  # fmt: skip
    ),
    st.tuples(st.just("line"), st.sampled_from(["", "  ", "\t", "r,0,", "r,4,", "r,0", ",", "#"])),
    st.tuples(st.just("append"), st.sampled_from([",", ",0.5"])),
    st.tuples(st.just("cut"), st.just("")),
)


@st.composite
def feature_files(draw):
    """A header, then records of one to three features readable by both routes, up to three
    edits at records drawn at random, and each line ended by LF, CRLF or a lone CR, the last
    maybe by none, the whole in UTF-8 with surrogates as the bytes they escape, maybe after a
    BOM."""
    dim = draw(st.integers(1, 3))
    lines = ["id,grade," + ",".join(f"f{i}" for i in range(dim))]
    for _ in range(draw(st.integers(0, 9))):
        fields = [draw(ok_ids), draw(ok_grades)] + [draw(ok_numbers) for _ in range(dim)]
        lines.append(",".join(fields))
    for kind, text in draw(st.lists(edits, max_size=3)) if len(lines) > 1 else ():
        at = draw(st.integers(1, len(lines) - 1))
        fields = lines[at].split(",")
        if kind in ("id", "grade", "feature"):
            features = st.integers(2, max(2, len(fields) - 1))
            column = draw(features) if kind == "feature" else ["id", "grade"].index(kind)
            lines[at] = ",".join(fields[:column] + [text] + fields[column + 1 :])
        elif kind == "insert":
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + text + lines[at][cut:]
        elif kind == "line":
            lines[at] = text
        elif kind == "append":
            lines[at] += text
        else:
            lines[at] = lines[at].rsplit(",", 1)[0]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8", "surrogateescape")


def parse_outcome(path, run_rows):
    """Every run ``_feature_runs`` yields, as ids, feature bits and grades, then its error."""
    runs = []
    try:
        for ids, X, grades in _feature_runs(path, run_rows):
            runs.append((ids, X.shape, X.tobytes(), grades.tolist()))
    except ParseError as exc:
        return runs, str(exc)
    return runs, None


@settings(max_examples=400, deadline=None)
@given(
    text=feature_files(),
    run_rows=st.sampled_from([None, 1, 2, 3]),
    field_limit=st.sampled_from([csv.field_size_limit(), 8]),
)
def test_the_fast_path_reads_each_file_as_the_row_loop_does(
    tmp_path_factory, text, run_rows, field_limit
):
    """Each file is accepted with the same ids, grades and feature bits, or rejected with the
    same message and line, after the same runs, and neither route warns. Chunks of two lines,
    so a one-run load of three or more records has more than one, and a run may switch route
    in its middle. A field limit of 8 puts longer lines past it."""
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text)
    default_limit = csv.field_size_limit(field_limit)
    try:
        with mock.patch.object(gpgrade.data, "_CHUNK", 2), warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = parse_outcome(path, run_rows)
            with mock.patch.object(gpgrade.data, "_fast_rows", lambda *run: False):
                assert parse_outcome(path, run_rows) == fast
    finally:
        csv.field_size_limit(default_limit)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.booleans(), st.floats(min_value=0.0, allow_nan=False))),
    thresholds=st.tuples(finite, finite),
)
def test_raising_the_std_threshold_never_adds_a_referral(rows, thresholds):
    referable = np.array([r for r, _ in rows], dtype=bool)
    std = np.array([s for _, s in rows], dtype=np.float64)
    low, high = sorted(thresholds)
    at_low, _ = apply_uncertainty_flip(referable, std, low)
    at_high, flipped = apply_uncertainty_flip(referable, std, high)
    assert not (at_high & ~at_low).any()
    np.testing.assert_array_equal(flipped, at_high & ~referable)


# A handful of score values, so most draws tie: both zeros, subnormals
# (which compare unequal to zero), and ordinary and extreme magnitudes.
tie_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 2.5, 1e300])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(tie_values, st.booleans()), min_size=2, max_size=60),
    all_equal=st.booleans(),
)
def test_roc_auc_equals_the_rankdata_formula_bitwise(rows, all_equal):
    scores = np.array([s for s, _ in rows])
    labels = np.array([l for _, l in rows])
    if all_equal:
        scores[:] = scores[0]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        with pytest.raises(InputError):
            roc_auc(scores, labels)
        return
    expected = (float(rankdata(scores)[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )
    assert roc_auc(scores, labels) == expected
    if all_equal:
        assert expected == 0.5


@functools.cache
def small_model():
    """An n=30 model with a normalizer, fitted once per test run."""
    _, X_raw, grades = synthesize_dataset([6] * 5, 4, 6.0, 1.0, 3)
    stats = fit_normalizer(X_raw)
    X = apply_normalizer(stats, X_raw)
    return fit(X, grades.astype(np.float64), restarts=1, normalizer=stats)


@functools.cache
def archive_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.model"
        save_model(small_model(), path)
        return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_archive_raises_only_format_or_input_errors(tmp_path_factory, data):
    blob = bytearray(archive_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        blob[data.draw(st.integers(0, len(blob) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="xor"
        )
    path = tmp_path_factory.getbasetemp() / "corrupted.model"
    path.write_bytes(bytes(blob))
    with pytest.raises((ModelFormatError, InputError)):
        load_model(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_resealed_archive_is_rejected_or_predicts_finite_values(tmp_path_factory, data):
    """One payload byte flipped, then the checksum recomputed to match."""

    def flip(payload):
        payload = bytearray(payload)
        payload[data.draw(st.integers(0, len(payload) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="xor"
        )
        return bytes(payload)

    path = tmp_path_factory.getbasetemp() / "resealed.model"
    path.write_bytes(archive_bytes())
    reseal(path, flip)
    try:
        model = load_model(path)
    except InputError:  # ModelFormatError included
        return
    mean, std = predict(model, model.X_train)
    assert np.isfinite(mean).all() and np.isfinite(std).all()


query_values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [1e154, -1.4e154, 1e200, math.inf, math.nan]
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(query_values, min_size=4, max_size=4), min_size=1, max_size=6))
def test_query_rows_give_finite_outputs_or_an_input_error(rows):
    model = small_model()
    Xq = np.array(rows)
    sq_norms = [sum(v * v for v in row) for row in rows]
    bad = [i for i, sq in enumerate(sq_norms) if not math.isfinite(sq)]
    if bad:
        with pytest.raises(InputError, match=f"query row {bad[0]} "):
            predict(model, Xq)
        return
    mean, std = predict(model, Xq)
    assert np.isfinite(mean).all() and np.isfinite(std).all()
    assert (std >= 0.0).all()

"""Property tests: the feature CSV round trip, the flip rule's monotonicity,
midrank AUC against scipy's ranks, and corrupted archives and query rows."""

import functools
import math
import tempfile
from pathlib import Path

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
from gpgrade.metrics import roc_auc

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

"""Property tests: the feature CSV round trip and the flip rule's monotonicity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgrade import apply_uncertainty_flip, load_feature_csv, write_feature_csv

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

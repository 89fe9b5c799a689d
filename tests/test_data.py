"""Ingestion, normalization, synthesis, and model-archive tests."""

import errno
import io
import json
import math
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gpgrade.data
from gpgrade import (
    InputError,
    apply_normalizer,
    build_model,
    fit,
    fit_normalizer,
    load_feature_csv,
    load_model,
    predict,
    save_model,
    synthesize_dataset,
    write_feature_csv,
)
from gpgrade.data import (
    MODEL_MAGIC,
    STD_FLOOR,
    NormStats,
    _fast_rows,
    _feature_runs,
    _normalize_in_place,
)
from gpgrade.errors import ModelFormatError, ParseError
from gpgrade.gp import cholesky_with_jitter
from gpgrade.kernel import Hyperparams, kernel_matrix, pairwise_sq_dists

from conftest import duplicated_dyadic_rows, reseal, rewrite_header


def write_csv(path, rows, dim=4):
    header = "id,grade," + ",".join(f"f{i}" for i in range(dim))
    path.write_text("\n".join([header] + rows) + "\n")


def row(i, grade, dim=4, value=0.5):
    return f"r{i},{grade}," + ",".join(str(value + j) for j in range(dim))


class TestLoadFeatureCsv:
    def test_histogram_tally(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [row(i, 0) for i in range(3)] + [row(i + 3, 4) for i in range(2)]
        write_csv(path, rows)
        ids, X, grades = load_feature_csv(path)
        histogram = np.bincount(grades, minlength=5).tolist()
        assert histogram == [3, 0, 0, 0, 2]
        assert len(ids) == 5
        assert X.shape == (5, 4)
        assert sum(histogram) == len(ids)

    def test_order_preserving(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [row(i, i % 5) for i in range(10)])
        ids, X, grades = load_feature_csv(path)
        assert ids == [f"r{i}" for i in range(10)]
        assert grades.tolist() == [i % 5 for i in range(10)]
        np.testing.assert_array_equal(X[:, 1] - X[:, 0], np.ones(10))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [])
        with pytest.raises(ParseError, match="no records"):
            load_feature_csv(path)

    def test_screening_scale_histogram(self, tmp_path):
        """Grade mix shaped like a large screening test partition."""
        path = tmp_path / "big.csv"
        rows = (
            [row(i, 0, dim=2) for i in range(7407)]
            + [row(7407 + i, 1, dim=2) for i in range(689)]
            + [row(8096 + i, 4, dim=2) for i in range(694)]
        )
        write_csv(path, rows, dim=2)
        ids, _, grades = load_feature_csv(path)
        assert np.bincount(grades, minlength=5).tolist() == [7407, 689, 0, 0, 694]
        assert len(ids) == 8790

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load_feature_csv(tmp_path / "absent.csv")

    def test_directory_is_not_a_regular_file(self, tmp_path):
        with pytest.raises(InputError, match=f"^cannot read {tmp_path}: not a regular file$"):
            load_feature_csv(tmp_path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match="line 1: empty file"):
            load_feature_csv(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample,label,f0\nx,0,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_feature_csv(path)

    def test_wrong_feature_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,grade,feat0,feat1\nx,0,1.0,2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_feature_csv(path)

    def test_non_integer_grade_carries_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "r1,two,0.5,1.5,2.5,3.5"])
        with pytest.raises(ParseError, match="line 3"):
            load_feature_csv(path)

    def test_out_of_range_grade(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 5)])
        with pytest.raises(ParseError, match="line 2.*out of range"):
            load_feature_csv(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "r1,2,0.5,1.5"])
        with pytest.raises(ParseError, match="line 3"):
            load_feature_csv(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "r1,2,0.5,nan,2.5,3.5"])
        with pytest.raises(ParseError, match="line 3.*non-finite"):
            load_feature_csv(path)

    @pytest.mark.parametrize("field", ['"a,b"', '"a""b"', '"a\nb"', '"a\rb"'])
    def test_id_with_separator_quote_or_newline_rejected(self, tmp_path, field):
        """Such an id would be echoed unquoted into the prediction CSV."""
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), field + ",2,0.5,1.5,2.5,3.5"])
        with pytest.raises(ParseError, match="line 3.*comma, quote, CR or LF"):
            load_feature_csv(path)

    def test_id_with_nul_rejected(self, tmp_path):
        """Before Python 3.11 the csv module itself refuses the line."""
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "a\0b,2,0.5,1.5,2.5,3.5"])
        with pytest.raises(ParseError, match="line 3.*NUL"):
            load_feature_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("field", [1, 3], ids=["grade", "feature"])
    @pytest.mark.parametrize("run_rows", [None, 1], ids=["one-run", "streamed"])
    def test_a_line_break_in_a_quoted_field_names_the_record_s_first_line(
        self, tmp_path, newline, field, run_rows
    ):
        """A record is one line: read across lines, the record loaded, and every error after
        it named the wrong line. Here the bad ``x`` of line 5 used to be named as line 4."""
        record = ["r1", "2", "0.5", "1.5", "2.5", "3.5"]
        record[field] = f'"{record[field]}{newline}"'
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), ",".join(record), "r2,2,0.5,x,2.5,3.5"])
        with pytest.raises(ParseError, match="^line 3: a record must be one line$"):
            list(_feature_runs(path, run_rows))

    @pytest.mark.parametrize(
        "line, match",
        [
            (b"a\xffb,2,0.5,1.5,2.5,3.5", "line 3.*not UTF-8"),
            (b"r1,\xc3,0.5,1.5,2.5,3.5", "line 3.*non-integer grade"),
            (b"r1,2,0.5,\xed\xa0\x80,2.5,3.5", "line 3.*non-numeric"),
        ],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, line, match):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1)])
        path.write_bytes(path.read_bytes() + line + b"\n")
        with pytest.raises(ParseError, match=match):
            load_feature_csv(path)

    @pytest.mark.parametrize("trailing", [True, False], ids=["ended", "unended"])
    def test_lf_crlf_and_cr_endings_load_alike(self, tmp_path, trailing):
        ids, X, grades = synthesize_dataset([4] * 5, 3, 6.0, 1.0, 5)
        write_feature_csv(ids, X, grades, tmp_path / "lf.csv")
        text = (tmp_path / "lf.csv").read_bytes()
        text = text if trailing else text.rstrip(b"\n")
        loaded = []
        for name, newline in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            (tmp_path / name).write_bytes(text.replace(b"\n", newline))
            loaded.append(load_feature_csv(tmp_path / name))
        for back_ids, back_X, back_grades in loaded:
            assert back_ids == ids
            assert back_X.shape == X.shape and back_X.tobytes() == X.tobytes()
            assert back_grades.tolist() == grades.tolist()

    def test_first_error_in_file_order_wins_over_a_later_one(self, tmp_path):
        """Finiteness is checked after the row loop, but still reported in file order."""
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "r1,2,0.5,inf,2.5,3.5", row(2, 3), "r3,9,0.5,1.5,2.5,3.5"])
        with pytest.raises(ParseError, match="line 3.*non-finite"):
            load_feature_csv(path)
        write_csv(path, [row(0, 1), "r1,2,0.5,1.5,2.5,3.5", row(2, 3), "r3,0,-1e400,1,2,3"])
        with pytest.raises(ParseError, match="line 5.*non-finite"):
            load_feature_csv(path)

    def test_parses_into_one_matrix(self, tmp_path):
        """The peak is the feature matrix and little else: no per-row arrays, no stacked copy."""
        ids, X, grades = synthesize_dataset([1000] * 5, 64, 6.0, 1.0, 6)
        path = tmp_path / "big.csv"
        write_feature_csv(ids, X, grades, path)
        tracemalloc.start()
        try:
            _, back_X, _ = load_feature_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back_X.tobytes() == X.tobytes()
        assert peak <= 1.5 * X.nbytes

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 24, 30])
    def test_runs_partition_the_rows_of_one_load(self, tmp_path, n):
        """Runs of 8 start at row 0 and hold 8 rows, the last what is left, never none."""
        ids, X, grades = synthesize_dataset([n, 0, 0, 0, 0], 3, 6.0, 1.0, 2)
        write_feature_csv(ids, X, grades, tmp_path / "d.csv")
        runs = list(_feature_runs(tmp_path / "d.csv", 8))
        assert [len(run_ids) for run_ids, _, _ in runs] == [8] * (n // 8) + [n % 8] * (n % 8 > 0)
        assert [i for run_ids, _, _ in runs for i in run_ids] == ids
        assert np.concatenate([run_X for _, run_X, _ in runs]).tobytes() == X.tobytes()
        assert np.concatenate([g for _, _, g in runs]).tolist() == grades.tolist()

    @pytest.mark.parametrize("run_rows, passes", [(8, 1), (None, 2)], ids=["runs", "one-run"])
    def test_streamed_runs_read_the_file_once(self, tmp_path, monkeypatch, run_rows, passes):
        """Line ends are counted, in a pass of their own, only to size a single run."""
        ids, X, grades = synthesize_dataset([30] * 5, 3, 6.0, 1.0, 4)
        path = tmp_path / "d.csv"
        write_feature_csv(ids, X, grades, path)
        read = []

        class Counting(io.FileIO):
            def readinto(self, buffer):
                read.append(super().readinto(buffer))
                return read[-1]

        def counting_open(file, mode="r", **kwargs):
            assert mode == "r"
            return io.TextIOWrapper(io.BufferedReader(Counting(file)), **kwargs)

        monkeypatch.setattr(gpgrade.data, "open", counting_open, raising=False)
        runs = list(_feature_runs(path, run_rows))
        assert [i for run_ids, _, _ in runs for i in run_ids] == ids
        assert sum(read) == passes * path.stat().st_size

    def test_csv_module_error_names_the_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "x" * 200_000 + ",2,0.5,1.5,2.5,3.5"])
        with pytest.raises(ParseError, match="line 3.*field limit"):
            load_feature_csv(path)

    def test_header_the_csv_module_cannot_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,grade,f" + "0" * 131_072 + "\nr0,0,0.5\n")
        with pytest.raises(ParseError, match=r"^line 1: field larger than field limit \(131072\)$"):
            load_feature_csv(path)


class TestWhereNpLoadtxtReadsOtherwise:
    """The fast path converts a chunk with np.loadtxt only where the csv row loop would read
    each line alike; each line here np.loadtxt would read otherwise. It sits at line 7, in
    the second of three streamed runs of 4, so the row loop takes over in a later run and
    must still name the line counted over the whole file, after the rows above it."""

    def runs(self, tmp_path, line):
        """Each run's ids, feature bits and grades, then the ParseError's text or None."""
        records = [row(i, i % 5) for i in range(10)]
        records[5] = line
        path = tmp_path / "d.csv"
        write_csv(path, records)
        runs = []
        try:
            for ids, X, grades in _feature_runs(path, 4):
                runs.append((ids, X.tobytes(), grades.tolist()))
        except ParseError as exc:
            return runs, str(exc)
        return runs, None

    def rejected(self, tmp_path, line, message):
        """The rows above line 7 go first, in runs of 4 and 1; then the row loop's error."""
        runs, error = self.runs(tmp_path, line)
        assert [ids for ids, _, _ in runs] == [["r0", "r1", "r2", "r3"], ["r4"]]
        assert error == f"line 7: {message}"

    def test_a_blank_line_is_a_record_of_no_fields(self, tmp_path):
        """np.loadtxt skips a blank line."""
        self.rejected(tmp_path, "", "expected 6 fields, got 0")

    def test_a_hash_is_not_a_comment(self, tmp_path):
        """Unless comments=None, np.loadtxt reads ``3#x`` as 3."""
        self.rejected(tmp_path, "r5,0,0.5,1.5,2.5,3#x", "non-numeric feature value")

    def test_digit_separators_and_full_width_digits_read_as_float_reads_them(self, tmp_path):
        """np.loadtxt rejects ``1_0`` and full-width digits; the row loop reads them, with
        float's bits, and reads on to the end of the file."""
        runs, error = self.runs(tmp_path, "r5,0,1_0,\uff11.5,2.5,\u0663")
        assert error is None
        assert [i for ids, _, _ in runs for i in ids] == [f"r{i}" for i in range(10)]
        assert [len(ids) for ids, _, _ in runs] == [4, 4, 2]
        X = np.frombuffer(b"".join(bits for _, bits, _ in runs)).reshape(10, 4)
        assert X[5].tobytes() == np.array([10.0, 1.5, 2.5, 3.0]).tobytes()
        assert X[6].tobytes() == np.array([0.5, 1.5, 2.5, 3.5]).tobytes()

    def test_a_field_over_the_csv_field_limit(self, tmp_path):
        line = "x" * 200_000 + ",0,0.5,1.5,2.5,3.5"
        self.rejected(tmp_path, line, "field larger than field limit (131072)")

    def test_a_quoted_id_reads_as_the_unquoted_one(self, tmp_path):
        assert self.runs(tmp_path, '"r5",0,0.5,1.5,2.5,3.5') == self.runs(tmp_path, row(5, 0))

    @pytest.mark.parametrize("blank", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_file_separators_are_not_blanks(self, tmp_path, blank):
        """np.loadtxt strips them from a number as blanks; float does not."""
        self.rejected(tmp_path, f"r5,0,{blank}0.5,1.5,2.5,3.5{blank}", "non-numeric feature value")

    def test_a_blank_feature_text_among_other_records(self, tmp_path, monkeypatch):
        """np.loadtxt skips the blank feature text of ``r5,0,``, so its chunk converts one row
        short, and _fast_rows declines it unchanged; the file then reads as the row loop alone
        reads it (``_fast_rows`` declining every chunk)."""
        X, ids, grades = np.zeros((2, 4)), [], []
        assert not _fast_rows(["r5,0,\n", row(6, 1) + "\n"], X, ids, grades)
        assert (ids, grades, X.any()) == ([], [], False)
        outcome = self.runs(tmp_path, "r5,0,")
        assert outcome[1] == "line 7: expected 6 fields, got 3"
        monkeypatch.setattr(gpgrade.data, "_fast_rows", lambda *run: False)
        assert self.runs(tmp_path, "r5,0,") == outcome

    @pytest.mark.filterwarnings("error")
    def test_a_record_with_no_feature_text_warns_of_nothing(self, tmp_path):
        """On a chunk with no feature text np.loadtxt warns that the input holds no data, so
        the record here is the only one of its run: line 6, alone in the second run of 4."""
        path = tmp_path / "d.csv"
        write_csv(path, [row(i, 0) for i in range(4)] + ["r4,0,"])
        with pytest.raises(ParseError, match="^line 6: expected 6 fields, got 3$"):
            list(_feature_runs(path, 4))


class TestByteOrderMark:
    """A leading UTF-8 BOM is skipped: the file reads as without it, line numbers unchanged."""

    def test_loads_as_without_it(self, tmp_path):
        ids, X, grades = synthesize_dataset([3] * 5, 4, 6.0, 1.0, 0)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_feature_csv(ids, X, grades, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        back_ids, back_X, back_grades = load_feature_csv(marked)
        assert back_ids == ids
        assert back_X.tobytes() == X.tobytes()
        assert back_grades.tolist() == grades.tolist()

    @pytest.mark.parametrize("run_rows", [None, 1], ids=["one-run", "streamed"])
    def test_line_numbers_are_unchanged(self, tmp_path, run_rows):
        path = tmp_path / "d.csv"
        write_csv(path, [row(0, 1), "r1,two,0.5,1.5,2.5,3.5"])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(ParseError, match="^line 3: non-integer grade 'two'$"):
            list(_feature_runs(path, run_rows))


class TestWriteFeatureCsv:
    def test_round_trip(self, tmp_path):
        ids, X, grades = synthesize_dataset([3, 3, 3, 3, 3], 4, 6.0, 1.0, 0)
        path = tmp_path / "out.csv"
        write_feature_csv(ids, X, grades, path)
        back_ids, back_X, back_grades = load_feature_csv(path)
        assert np.bincount(back_grades, minlength=5).tolist() == [3, 3, 3, 3, 3]
        assert back_ids == ids
        np.testing.assert_array_equal(back_grades, grades)
        np.testing.assert_array_equal(back_X, X)

    @pytest.mark.parametrize(
        "ids, X, grades, match",
        [
            (["a,b", "c"], np.zeros((2, 2)), [1, 2], "row 0: id 'a,b'"),
            (["a", 'q"'], np.zeros((2, 2)), [1, 2], "row 1: id"),
            (["a", "b\nc"], np.zeros((2, 2)), [1, 2], "row 1: id"),
            (["a", "b\rc"], np.zeros((2, 2)), [1, 2], "row 1: id"),
            (["a", "b\0"], np.zeros((2, 2)), [1, 2], "row 1: id"),
            (["a", "b\ud800"], np.zeros((2, 2)), [1, 2], "row 1: id.*not UTF-8"),
            (["a", "c"], np.zeros((2, 2)), [1, 7], "row 1: grade 7 "),
            (["a", "c"], np.zeros((2, 2)), [-1, 0], "row 0: grade -1 "),
            (["a", "c"], np.zeros((2, 2)), [1.0, 2.5], "row 0: grade 1.0 "),
            (["a", "c"], np.zeros((2, 2)), np.array([True, False]), "row 0: grade True "),
            (["a", "c"], np.array([[0.0, 1.0], [np.nan, 0.0]]), [1, 2], "row 1: non-finite"),
            (["a", "c"], np.array([[0.0, -np.inf], [0.0, 0.0]]), [1, 2], "row 0: non-finite"),
        ],
    )
    def test_rejects_what_the_loader_rejects(self, tmp_path, ids, X, grades, match):
        with pytest.raises(InputError, match=match):
            write_feature_csv(ids, X, grades, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_no_rows_rejected(self, tmp_path):
        with pytest.raises(InputError, match="no records to write"):
            write_feature_csv([], np.zeros((0, 2)), [], tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_misaligned_inputs_rejected(self, tmp_path):
        ids, X, grades = synthesize_dataset([3] * 5, 4, 6.0, 1.0, 0)
        with pytest.raises(InputError):
            write_feature_csv(ids[:-1], X, grades, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "ids, X, grades, match",
        [
            (["a", "b"], np.zeros(2), [1, 2], r"2 ids, .* X of shape \(2,\)"),
            (["a", "b"], np.zeros((2, 2, 1)), [1, 2], r"X of shape \(2, 2, 1\)"),
            (["a", "b"], np.zeros((2, 2)), [1, 2, 3], r"2 ids, grades of shape \(3,\)"),
            (["a", "b"], np.zeros((3, 2)), [1, 2], r"2 ids, .* X of shape \(3, 2\)"),
            (["a", "b"], np.zeros((2, 0)), [1, 2], r"X of shape \(2, 0\)"),
        ],
        ids=["1-d X", "3-d X", "grades longer", "rows longer", "no feature columns"],
    )
    def test_shapes_that_do_not_describe_a_file_rejected(self, tmp_path, ids, X, grades, match):
        with pytest.raises(InputError, match=match):
            write_feature_csv(ids, X, grades, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


class TestAtomicWrite:
    def test_missing_directory_is_an_input_error(self, tmp_path):
        out = tmp_path / "nodir" / "x.csv"
        with pytest.raises(InputError, match="nodir"):
            write_feature_csv(["a"], np.zeros((1, 2)), [0], out)
        assert list(tmp_path.iterdir()) == []

    def test_directory_target_is_rejected_before_a_temp_file(self, tmp_path):
        out = tmp_path / "adir"
        out.mkdir()
        with pytest.raises(InputError, match="adir: Is a directory"):
            write_feature_csv(["a"], np.zeros((1, 2)), [0], out)
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch, existing):
        """The rename fails after the temp file is written (a full disk): InputError, no temp
        file left, and an existing target keeps its old bytes."""
        out = tmp_path / "x.csv"
        if existing:
            out.write_bytes(b"old")
        written = []

        def no_space(src, dst):
            written.append(Path(src).read_text())
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))

        monkeypatch.setattr(gpgrade.data.os, "replace", no_space)
        with pytest.raises(InputError) as raised:
            write_feature_csv(["a"], np.zeros((1, 2)), [0], out)
        assert str(raised.value) == f"cannot write {out}: No space left on device"
        assert written and written[0].startswith("id,grade,")
        assert list(tmp_path.iterdir()) == ([out] if existing else [])
        assert not existing or out.read_bytes() == b"old"


class TestNormalizer:
    def test_zscore_on_training_set(self):
        _, X, _ = synthesize_dataset([10] * 5, 6, 6.0, 1.0, 1)
        stats = fit_normalizer(X)
        raw = X.copy()
        Z = apply_normalizer(stats, X)
        assert X.tobytes() == raw.tobytes()  # a new matrix; the command line normalizes in place
        assert _normalize_in_place(stats, raw) is raw and raw.tobytes() == Z.tobytes()
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[7.0, float(i)] for i in range(5)])
        stats = fit_normalizer(X)
        Z = apply_normalizer(stats, X)
        np.testing.assert_array_equal(Z[:, 0], np.zeros(5))

    def test_train_stats_differ_from_test_fit(self):
        rng = np.random.default_rng(21)
        train = rng.normal(size=(20, 3))
        test = 3.0 + rng.normal(size=(20, 3))
        train_stats = fit_normalizer(train)
        test_stats = fit_normalizer(test)
        via_train = apply_normalizer(train_stats, test)
        via_test = apply_normalizer(test_stats, test)
        assert not np.allclose(via_train, via_test)

    def test_inverse_recovers_raw_features(self):
        _, X, _ = synthesize_dataset([8] * 5, 5, 6.0, 1.0, 2)
        stats = fit_normalizer(X)
        Z = apply_normalizer(stats, X)
        back = Z * stats.std + stats.mean
        np.testing.assert_allclose(back, X, atol=1e-9)

    def test_feature_too_large_for_its_scale_is_infinite_without_warning(self, recwarn):
        stats = fit_normalizer(np.array([[0.0], [0.5]]))
        Z = apply_normalizer(stats, np.array([[1.7e308], [1.0]]))
        assert Z[0, 0] == np.inf and Z[1, 0] == 3.0
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "row",
        [[1e160, 0.0, 0.0, 0.0], [1.7e308] * 4],
        ids=["one-column", "every-column"],
    )
    def test_overflowing_row_is_named_without_warning(self, recwarn, row):
        _, X, _ = synthesize_dataset([20] * 5, 4, 6.0, 1.0, 1)
        with pytest.raises(InputError, match="training row 100 "):
            fit_normalizer(np.vstack([X, row]))
        assert len(recwarn) == 0

    def test_row_of_1e150_still_fits(self):
        _, X, _ = synthesize_dataset([20] * 5, 4, 6.0, 1.0, 1)
        stats = fit_normalizer(np.vstack([X, [1e150] * 4]))
        assert np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()
        assert np.isfinite(apply_normalizer(stats, X)).all()

    @pytest.mark.parametrize(
        "mean, std",
        [
            (np.zeros(3), np.ones(2)),
            (np.zeros((1, 2)), np.ones((1, 2))),
            (np.zeros(2), np.array([1.0, -1.0])),
            (np.zeros(2), np.array([1.0, 0.0])),
            (np.zeros(2), np.array([1.0, 0.5 * STD_FLOOR])),
            (np.zeros(2), np.array([np.nan, 1.0])),
            (np.zeros(2), np.array([np.inf, 1.0])),
            (np.array([0.0, np.nan]), np.ones(2)),
            (np.array([-np.inf, 0.0]), np.ones(2)),
        ],
        ids=[
            "lengths differ", "2-d", "std -1", "std 0", "std below the floor",
            "std NaN", "std inf", "mean NaN", "mean -inf",
        ],
    )
    def test_statistics_that_cannot_scale_rejected(self, mean, std):
        with pytest.raises(InputError, match="normalizer"):
            NormStats(mean=mean, std=std)

    def test_dimension_mismatch(self):
        _, X, _ = synthesize_dataset([2] * 5, 4, 6.0, 1.0, 3)
        stats = fit_normalizer(X)
        with pytest.raises(InputError):
            apply_normalizer(stats, np.zeros((2, 7)))
        with pytest.raises(InputError):
            fit_normalizer(np.zeros((0, 4)))


class TestSynthesizeDataset:
    def test_counts_and_histogram(self):
        ids, X, grades = synthesize_dataset([10, 10, 10, 10, 10], 4, 6.0, 1.0, 0)
        assert len(ids) == 50
        assert X.shape == (50, 4)
        assert np.bincount(grades, minlength=5).tolist() == [10] * 5

    def test_uneven_counts(self):
        _, _, grades = synthesize_dataset([1, 2, 3, 4, 5], 3, 6.0, 1.0, 0)
        assert np.bincount(grades, minlength=5).tolist() == [1, 2, 3, 4, 5]

    def test_nearest_neighbor_separability(self):
        """With separation well above noise, a leave-one-out 1-NN oracle
        recovers almost every grade."""
        _, X, grades = synthesize_dataset([50] * 5, 8, 6.0, 1.0, 0)
        S = pairwise_sq_dists(X)
        np.fill_diagonal(S, np.inf)
        nearest = np.argmin(S, axis=1)
        accuracy = float(np.mean(grades[nearest] == grades))
        assert accuracy >= 0.95

    def test_same_seed_byte_identical_export(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            ids, X, grades = synthesize_dataset([10] * 5, 6, 6.0, 1.0, 42)
            write_feature_csv(ids, X, grades, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seeds_differ(self):
        _, a, _ = synthesize_dataset([5] * 5, 4, 6.0, 1.0, 0)
        _, b, _ = synthesize_dataset([5] * 5, 4, 6.0, 1.0, 1)
        assert not np.allclose(a, b)

    def test_grade_centroids_nearly_collinear(self):
        _, X, grades = synthesize_dataset([50] * 5, 6, 6.0, 1.0, 7)
        centroids = np.stack([X[grades == g].mean(axis=0) for g in range(5)])
        t = np.arange(5.0)
        design = np.stack([np.ones(5), t], axis=1)
        coef, *_ = np.linalg.lstsq(design, centroids, rcond=None)
        residual = np.linalg.norm(centroids - design @ coef, axis=1).max()
        assert residual < 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            synthesize_dataset([1, 2, 3], 4, 6.0, 1.0, 0)
        with pytest.raises(InputError):
            synthesize_dataset([1] * 5, 1, 6.0, 1.0, 0)
        with pytest.raises(InputError):
            synthesize_dataset([1] * 5, 4, 0.0, 1.0, 0)
        with pytest.raises(InputError):
            synthesize_dataset([1] * 5, 4, 6.0, -1.0, 0)

    @pytest.mark.parametrize(
        "separation, noise, seed",
        [
            (math.nan, 1.0, 0),
            (math.inf, 1.0, 0),
            (6.0, math.nan, 0),
            (6.0, math.inf, 0),
            (6.0, 1.0, -1),
        ],
    )
    def test_rejects_non_finite_scale_and_negative_seed(self, separation, noise, seed):
        with pytest.raises(InputError):
            synthesize_dataset([1] * 5, 4, separation, noise, seed)

    @pytest.mark.parametrize("n_per_grade, D", [([0] * 5, 2**60), ([0, 0, 0, 0, 2**62], 2),
                                                ([1] * 5, 10**20)], ids=["u", "rows", "dim"])
    def test_rejects_sizes_past_the_address_space(self, n_per_grade, D):
        """Past 2**63 - 1 bytes, numpy cannot size the array (a ValueError): nothing is drawn."""
        with pytest.raises(InputError, match="more than memory can address"):
            synthesize_dataset(n_per_grade, D, 6.0, 1.0, 0)


def trained_model(seed=0):
    _, X_raw, grades = synthesize_dataset([8] * 5, 5, 6.0, 1.0, seed)
    stats = fit_normalizer(X_raw)
    X = apply_normalizer(stats, X_raw)
    y = grades.astype(np.float64)
    return fit(X, y, restarts=2, seed=seed, normalizer=stats), X


class TestModelArchive:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        model, X = trained_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(50)
        queries = rng.normal(size=(20, X.shape[1]))
        before_mean, before_std = predict(model, queries)
        after_mean, after_std = predict(loaded, queries)
        np.testing.assert_array_equal(after_mean, before_mean)
        np.testing.assert_array_equal(after_std, before_std)

    def test_round_trip_preserves_fields(self, tmp_path):
        model, _ = trained_model(seed=4)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.hp == model.hp
        assert loaded.train_subset_seed == model.train_subset_seed
        np.testing.assert_array_equal(loaded.X_train, model.X_train)
        np.testing.assert_array_equal(loaded.y_train, model.y_train)
        np.testing.assert_array_equal(loaded.normalizer.mean, model.normalizer.mean)
        np.testing.assert_array_equal(loaded.normalizer.std, model.normalizer.std)

    def test_works_without_normalizer(self, tmp_path):
        rng = np.random.default_rng(51)
        model = build_model(
            rng.normal(size=(6, 3)), rng.normal(size=6), Hyperparams(0.0, 0.0, -2.0)
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).normalizer is None

    def test_corrupt_payload_byte_fails_checksum(self, tmp_path):
        model, _ = trained_model(seed=5)
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        model, _ = trained_model(seed=6)
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(MODEL_MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(ModelFormatError, match="not a model archive"):
            load_model(path)

    def test_truncated_archive_rejected(self, tmp_path):
        model, _ = trained_model(seed=7)
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError, match="truncated|incomplete"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            load_model(tmp_path / "absent.model")

    def test_directory_is_not_a_regular_file(self, tmp_path):
        with pytest.raises(InputError, match=f"^cannot read {tmp_path}: not a regular file$"):
            load_model(tmp_path)

    def test_save_is_deterministic(self, tmp_path):
        model, _ = trained_model(seed=8)
        save_model(model, tmp_path / "a.model")
        save_model(model, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def digest_rows(jittered):
    """200 training rows, targets and hyperparameters whose factor takes no jitter, or, on
    ``duplicated_dyadic_rows``, an escalated one."""
    if jittered:
        X, hp, rng = duplicated_dyadic_rows()
    else:
        rng = np.random.default_rng(34)
        X, hp = rng.normal(size=(200, 5)), Hyperparams(math.log(1.5), math.log(1.5), -2.0)
    return X, rng.normal(size=X.shape[0]), hp


def copying_factor(X, hp):
    """||L||_F and the jitter of the copying path's factor of the training system."""
    L, jitter = cholesky_with_jitter(kernel_matrix(X, X, hp), hp.noise_variance)
    return float(np.linalg.norm(L)), jitter


class TestModelDigests:
    """``chol_l_fro`` is ||L||_F from the factor's trace, sqrt(n * (s2 + noise + jitter))."""

    @pytest.mark.parametrize("jittered", [False, True], ids=["no jitter", "jitter"])
    def test_chol_l_fro_is_the_norm_of_the_copying_factor(self, jittered):
        X, y, hp = digest_rows(jittered)
        model = build_model(X, y, hp)
        norm, jitter = copying_factor(X, hp)
        assert model.jitter == jitter
        assert (jitter > 0.0) == jittered
        derived = gpgrade.data._model_digests(model)["chol_l_fro"]
        assert derived == pytest.approx(norm, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("jittered", [False, True], ids=["no jitter", "jitter"])
    def test_an_archive_with_the_measured_norm_loads(self, tmp_path, monkeypatch, jittered):
        """An archive whose digest is ||L||_F measured on the factor, as archives were written
        before the digest was derived from the jitter."""
        X, y, hp = digest_rows(jittered)
        model = build_model(X, y, hp)
        digests = gpgrade.data._model_digests
        measured = {**digests(model), "chol_l_fro": copying_factor(X, hp)[0]}
        monkeypatch.setattr(gpgrade.data, "_model_digests", lambda model: measured)
        save_model(model, tmp_path / "m.model")
        monkeypatch.undo()
        loaded = load_model(tmp_path / "m.model")
        assert (loaded.hp, loaded.jitter) == (model.hp, model.jitter)
        for got, want in zip(predict(loaded, X[:20]), predict(model, X[:20])):
            np.testing.assert_array_equal(got, want)

    def test_a_norm_off_by_1e_9_is_rejected(self, tmp_path):
        X, y, hp = digest_rows(jittered=True)
        save_model(build_model(X, y, hp), tmp_path / "m.model")

        def scale(header):
            header["digests"]["chol_l_fro"] *= 1 + 1e-9

        rewrite_header(tmp_path / "m.model", scale)
        with pytest.raises(ModelFormatError, match="digest chol_l_fro mismatch"):
            load_model(tmp_path / "m.model")


def rewrite_array(path, name, edit):
    """Apply ``edit`` in place to the archive array ``name`` and re-seal the checksum."""

    def edit_payload(payload):
        (header_len,) = struct.unpack_from("<Q", payload, 0)
        offset = 8 + header_len
        for spec in json.loads(payload[8:offset])["arrays"]:
            size = math.prod(spec["shape"])
            if spec["name"] == name:
                array = np.frombuffer(payload, "<f8", size, offset).reshape(spec["shape"]).copy()
                edit(array)
                return payload[:offset] + array.tobytes() + payload[offset + 8 * size :]
            offset += 8 * size
        raise KeyError(name)

    reseal(path, edit_payload)


def shape_of(name, shape):
    def edit(header):
        for spec in header["arrays"]:
            if spec["name"] == name:
                spec["shape"] = shape

    return edit


BAD_HEADERS = {
    "arrays missing": lambda h: h.pop("arrays"),
    "arrays mistyped": lambda h: h.update(arrays="X_train"),
    "digests missing": lambda h: h.pop("digests"),
    "digests mistyped": lambda h: h.update(digests=[1.0, 2.0]),
    "digest unknown": lambda h: h["digests"].update(extra=1.0),
    "digest missing": lambda h: h["digests"].pop("alpha_l2"),
    "digest mistyped": lambda h: h["digests"].update(alpha_l2="1.0"),
    **{
        field.name.removeprefix("log_").replace("_", " ") + " missing": (
            lambda h, key=field.name: h.pop(key)
        )
        for field in fields(Hyperparams)
    },
    "signal variance mistyped": lambda h: h.update(log_signal_variance="0.5"),
    "noise variance mistyped": lambda h: h.update(log_noise_variance=None),
    "has_normalizer missing": lambda h: h.pop("has_normalizer"),
    "has_normalizer mistyped": lambda h: h.update(has_normalizer=1),
    "seed missing": lambda h: h.pop("train_subset_seed"),
    "seed mistyped": lambda h: h.update(train_subset_seed=True),
    "header emptied": lambda h: h.clear(),
    "array unknown": lambda h: h["arrays"][0].update(name="X_test"),
    "array missing": lambda h: h["arrays"].pop(),
    "array entry mistyped": lambda h: h["arrays"].__setitem__(1, "y_train"),
    "shape malformed": shape_of("X_train", [-40, 5]),
    "X not 2-d": shape_of("X_train", [200]),
    "X rows disagree with y": shape_of("y_train", [39]),
    "normalizer width disagrees with D": shape_of("norm_mean", [4]),
    "length scale not a number": lambda h: h.update(log_length_scale=float("nan")),
    "length scale squared overflows": lambda h: h.update(log_length_scale=400.0),
    "length scale overflows": lambda h: h.update(log_length_scale=1000.0),
    "length scale squared is 0": lambda h: h.update(log_length_scale=-400.0),
    "signal variance overflows": lambda h: h.update(log_signal_variance=1000.0),
    "noise variance overflows": lambda h: h.update(log_noise_variance=1000.0),
    "diagonal sum overflows": lambda h: h.update(log_signal_variance=709.0),
    "diagonal sum overflows near the float limit": lambda h: h.update(log_signal_variance=709.7),
    # Integers that no float holds: float conversion raises OverflowError, not a rejection.
    **{
        f"{field.name.removeprefix('log_').replace('_', ' ')} {text}": (
            lambda h, key=field.name, value=sign * 10**400: h.update({key: value})
        )
        for field in fields(Hyperparams)
        for sign, text in ((1, "10**400"), (-1, "-10**400"))
    },
    "digest 10**400": lambda h: h["digests"].update(alpha_l2=10**400),
}


class TestArchiveHeader:
    def test_rewrite_keeps_a_valid_archive_loadable(self, tmp_path):
        model, _ = trained_model(seed=9)
        path = tmp_path / "m.model"
        save_model(model, path)
        rewrite_header(path, lambda header: None)
        assert load_model(path).hp == model.hp

    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_bad_header_rejected(self, tmp_path, edit):
        model, _ = trained_model(seed=9)
        path = tmp_path / "m.model"
        save_model(model, path)
        rewrite_header(path, edit)
        with pytest.raises(ModelFormatError):
            load_model(path)


def set_entry(index, value):
    def edit(array):
        array[index] = value

    return edit


# Array edits a resealed archive must be rejected for, with the message expected.
BAD_ARRAYS = {
    "std -1": ("norm_std", set_entry(1, -1.0), "normalizer statistics"),
    "std 0": ("norm_std", set_entry(1, 0.0), "normalizer statistics"),
    "std NaN": ("norm_std", set_entry(1, np.nan), "normalizer statistics"),
    "std inf": ("norm_std", set_entry(1, np.inf), "normalizer statistics"),
    "mean NaN": ("norm_mean", set_entry(0, np.nan), "normalizer statistics"),
    "mean inf": ("norm_mean", set_entry(0, -np.inf), "normalizer statistics"),
    "row 1e200": ("X_train", set_entry((0, 0), 1e200), "training row 0 is non-finite or too large"),
    "row inf": ("X_train", set_entry((3, 1), np.inf), "training row 3 is non-finite"),
    "row near the float limit": ("X_train", set_entry((0, 0), 1.3e154), "digest"),
    "target NaN": ("y_train", set_entry(2, np.nan), "training targets must be finite"),
    # y^T alpha and alpha^T alpha overflow: inf, without a warning, and the digest differs.
    "target 1e300": ("y_train", set_entry(2, 1e300), "digest alpha_l2 mismatch"),
}


class TestResealedArchive:
    """Archives whose payload was altered and whose checksum was recomputed."""

    @pytest.fixture
    def path(self, tmp_path):
        model, _ = trained_model(seed=9)
        path = tmp_path / "m.model"
        save_model(model, path)
        return path

    @pytest.mark.parametrize("name, edit, match", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
    def test_bad_array_rejected(self, path, name, edit, match):
        rewrite_array(path, name, edit)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    def test_unchanged_arrays_load(self, path):
        rewrite_array(path, "norm_std", lambda array: None)
        assert load_model(path).normalizer.std.min() >= STD_FLOOR

    @pytest.mark.parametrize(
        "header, match",
        [(b"{not json", "unreadable archive header"), (b"[1, 2]", "not a JSON object")],
    )
    def test_header_that_is_not_a_json_object(self, path, header, match):
        def replace_header(payload):
            (header_len,) = struct.unpack_from("<Q", payload, 0)
            return struct.pack("<Q", len(header)) + header + payload[8 + header_len :]

        reseal(path, replace_header)
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    def test_truncated_array_data(self, path):
        reseal(path, lambda payload: payload[:-8])
        with pytest.raises(ModelFormatError, match="array data incomplete"):
            load_model(path)

"""End-to-end command-line tests, run in-process through cli.main."""

import csv
import errno
import io
import json
import math
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpgrade import cli, data, gp
from gpgrade.errors import NumericalError
from gpgrade.kernel import Hyperparams

from conftest import rewrite_header


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic train/test pair plus a trained model archive."""
    root = tmp_path_factory.mktemp("cliws")
    train_csv = root / "train.csv"
    test_csv = root / "test.csv"
    model = root / "fundus.model"
    assert run(["synth", "--out", train_csv, "--seed", 0, "--n-per-grade", 20]) == 0
    assert run(["synth", "--out", test_csv, "--seed", 1, "--n-per-grade", 20]) == 0
    assert (
        run(
            [
                "train",
                "--train-csv",
                train_csv,
                "--model",
                model,
                "--restarts",
                2,
                "--seed",
                0,
            ]
        )
        == 0
    )
    return {"root": root, "train": train_csv, "test": test_csv, "model": model}


@pytest.fixture(scope="module")
def console(tmp_path_factory):
    """The README walk-through's files and model (250 rows, --restarts 3), 2,250 query rows
    (five runs of 512) of 8 and of 64 features, and 150 rows on a half-integer grid, each
    odd one a copy of the one before, with a model whose factor took jitter."""
    root = tmp_path_factory.mktemp("console")
    for name, seed, count, dim in [("train", 0, 50, 8), ("test", 1, 50, 8), ("big", 2, 450, 8),
                                   ("big64", 2, 450, 64)]:
        argv = ["synth", "--out", root / f"{name}.csv", "--seed", seed, "--n-per-grade", count]
        assert run([*argv, "--dim", dim]) == 0
    train = ["train", "--seed", 0, "--train-csv"]
    assert run([*train, root / "train.csv", "--model", root / "dr.model", "--restarts", 3]) == 0
    X = 0.5 * np.random.default_rng(0).integers(-4, 5, size=(150, 2))
    X[1::2] = X[0::2]
    grades = np.clip(np.round(X[:, 0] + 2), 0, 4).astype(int)
    data.write_feature_csv([f"d{i:03d}" for i in range(150)], X, grades, root / "dup.csv")
    # At s2 = e^20 and the noise floor the model's factor escalates the jitter, the model
    # keeps it, and the archive's digest, from the factor's trace, counts it.
    _, X, grades = data.load_feature_csv(root / "dup.csv")
    stats = data.fit_normalizer(X)
    X, hp = data.apply_normalizer(stats, X), Hyperparams(0.0, 20.0, math.log(1e-8))
    model = gp.build_model(X, grades.astype(float), hp, normalizer=stats)
    data.save_model(model, root / "dup_jitter.model")
    assert data.load_model(root / "dup_jitter.model").jitter > 0.0
    return root


# Every flag of each subcommand, in usage order. predict, evaluate and sweep
# share the first four.
SCORING_FLAGS = ["--test-csv", "--model", "--out", "--grade-threshold"]
FLAGS = {
    "train": ["--train-csv", "--model", "--max-train", "--restarts", "--seed"],
    "predict": [*SCORING_FLAGS, "--std-threshold"],
    "evaluate": [*SCORING_FLAGS, "--std-threshold"],
    "sweep": [*SCORING_FLAGS, "--std-thresholds"],
    "synth": ["--out", "--seed", "--n-per-grade", "--dim", "--separation", "--noise"],
}


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_single_count_applies_to_all_grades(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["synth", "--out", out, "--n-per-grade", 7]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 35
        grades = [int(r["grade"]) for r in rows]
        assert [grades.count(g) for g in range(5)] == [7] * 5

    def test_five_counts(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["synth", "--out", out, "--n-per-grade", "1,2,3,4,5"]) == 0
        assert len(read_csv_rows(out)) == 15

    def test_bad_count_exits_one(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["synth", "--out", out, "--n-per-grade", "many"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_count_arity_exits_one(self, tmp_path):
        assert run(["synth", "--out", tmp_path / "s.csv", "--n-per-grade", "1,2"]) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["synth", "--out", out, "--seed", 9, "--n-per-grade", 5]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_printed_evidence_matches_full_evaluation(self, workspace, capsys, tmp_path):
        """train reports the hyperparameters, and its lml line is read off the stored factor,
        bit for bit."""
        path = tmp_path / "m.model"
        assert run(["train", "--train-csv", workspace["train"], "--model", path]) == 0
        out = capsys.readouterr().out
        assert "length_scale" in out and "noise_variance" in out
        model = data.load_model(path)
        lml, _ = gp.log_marginal_likelihood(model.X_train, model.y_train, model.hp)
        assert f"log_marginal_likelihood {lml!r}" in out.splitlines()

    def test_missing_csv_exits_one(self, tmp_path, capsys):
        code = run(
            ["train", "--train-csv", tmp_path / "nope.csv", "--model", tmp_path / "m"]
        )
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_directory_csv_exits_one(self, tmp_path, capsys):
        """A path that exists but is no regular file is unreadable, not missing."""
        assert run(["train", "--train-csv", tmp_path, "--model", tmp_path / "m"]) == 1
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: not a regular file\n"
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exits_two(self, workspace, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalError("factorization failed")

        monkeypatch.setattr(cli.gp, "fit", boom)
        code = run(
            [
                "train",
                "--train-csv",
                workspace["train"],
                "--model",
                tmp_path / "m.model",
            ]
        )
        assert code == 2
        assert "numerical error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in FLAGS])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: gpgrade")
        if argv[0] in FLAGS:
            usage = out.split("\n\n")[0]
            assert re.findall(r"--[a-z-]+", usage) == FLAGS[argv[0]]

    @pytest.mark.parametrize(
        "flags, searches", [([], 2), (["--restarts", 3], 3)], ids=["default", "three"]
    )
    def test_restarts_sets_the_number_of_searches(
        self, workspace, tmp_path, monkeypatch, flags, searches
    ):
        """100 training rows, below the one-search threshold: two searches by default."""
        calls = []
        minimize = gp.minimize

        def counting(*args, **kwargs):
            calls.append(args[1])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(gp, "minimize", counting)
        model = tmp_path / "m.model"
        assert run(["train", "--train-csv", workspace["train"], "--model", model, *flags]) == 0
        assert len(calls) == searches

    @pytest.mark.parametrize("csv, archive, flags, searches", [
        ("train", "dr.model", ["--restarts", 3], 3), ("benchmark_archive", None, [], 1),
        ("dup", None, ["--restarts", 3], 6),
    ], ids=["readme", "2000-rows", "duplicated-rows"])
    def test_same_seed_writes_the_same_archive(
        self, request, console, tmp_path, monkeypatch, csv, archive, flags, searches
    ):
        """The trainings this test runs make ``searches`` searches in all. The second training
        of the shared benchmark-shape archive runs one, the default from 2,000 rows on. On
        the duplicated rows the noise reaches its floor, and factorizations inside fit
        escalate the jitter."""
        if csv == "benchmark_archive":
            made = request.getfixturevalue(csv)
            train_csv, archives = made["train"], [made["model"]]
        else:
            train_csv, archives = console / f"{csv}.csv", [console / archive] if archive else []
        calls, minimize = [], gp.minimize
        monkeypatch.setattr(gp, "minimize", lambda *a, **k: calls.append(1) or minimize(*a, **k))
        while len(archives) < 2:
            archives.append(tmp_path / f"{len(archives)}.model")
            argv = ["train", "--train-csv", train_csv, "--model", archives[-1]]
            assert run([*argv, *flags, "--seed", 0]) == 0
        assert archives[0].read_bytes() == archives[1].read_bytes()
        assert len(calls) == searches

    def test_train_help_follows_the_start_grid_constants(self, capsys, monkeypatch):
        monkeypatch.setattr(gp, "_START_GRID", (0.25, 1.0, 4.0))
        monkeypatch.setattr(gp, "_ONE_SEARCH_MIN_N", 3000)
        monkeypatch.setenv("COLUMNS", "1000")  # one line per flag: no wrap inside the rule
        with pytest.raises(SystemExit):
            run(["train", "--help"])
        lines = capsys.readouterr().out.splitlines()
        rule = ("searches, one from each of the length-scales 0.25, 1, 4 x the median distance "
                "with the most evidence; default 2 below 3,000 rows, else 1")
        assert sum(rule in line for line in lines) == 1


class TestPredict:
    def test_writes_one_row_per_record(self, workspace, tmp_path):
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", workspace["test"], "--model", workspace["model"]]
        assert run([*argv, "--out", out]) == 0
        assert out.read_text().splitlines()[0] == "id,mean,std,referable,flipped"
        rows = read_csv_rows(out)
        source = read_csv_rows(workspace["test"])
        assert len(rows) == len(source)
        assert [r["id"] for r in rows] == [r["id"] for r in source]
        for r in rows:
            assert float(r["std"]) >= 0.0
            assert r["referable"] in ("true", "false")
            assert r["flipped"] in ("true", "false")

    def test_missing_model_exits_one(self, workspace, tmp_path):
        code = run(
            [
                "predict",
                "--test-csv",
                workspace["test"],
                "--model",
                tmp_path / "absent.model",
                "--out",
                tmp_path / "p.csv",
            ]
        )
        assert code == 1


class TestEvaluate:
    def evaluate(self, workspace, out, extra=()):
        code = run(
            [
                "evaluate",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                out,
                *extra,
            ]
        )
        assert code == 0
        return json.loads(out.read_text())

    def test_report_keys_and_consistency(self, workspace, tmp_path):
        doc = self.evaluate(workspace, tmp_path / "report.json")
        for key in (
            "grade_threshold",
            "std_threshold",
            "n_flipped",
            "n",
            "tp",
            "fp",
            "tn",
            "fn",
            "sensitivity",
            "specificity",
            "auc",
            "group_stats",
        ):
            assert key in doc
        assert doc["n"] == doc["tp"] + doc["fp"] + doc["tn"] + doc["fn"]
        assert doc["n"] == len(read_csv_rows(workspace["test"]))
        assert (tmp_path / "report.boxstats.txt").read_text().startswith("group\t")

    def test_counts_reconcile_with_predict_csv(self, workspace, tmp_path):
        doc = self.evaluate(workspace, tmp_path / "report.json")
        preds = tmp_path / "preds.csv"
        run(
            [
                "predict",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                preds,
            ]
        )
        rows = read_csv_rows(preds)
        positives = sum(1 for r in rows if r["referable"] == "true")
        flipped = sum(1 for r in rows if r["flipped"] == "true")
        assert positives == doc["tp"] + doc["fp"]
        assert flipped == doc["n_flipped"]

    def test_huge_flip_threshold_means_no_flips(self, workspace, tmp_path):
        doc = self.evaluate(
            workspace, tmp_path / "r.json", extra=["--std-threshold", "1e9"]
        )
        assert doc["n_flipped"] == 0

    def test_evaluating_training_set_is_strong(self, workspace, tmp_path):
        out = tmp_path / "train-report.json"
        code = run(
            [
                "evaluate",
                "--test-csv",
                workspace["train"],
                "--model",
                workspace["model"],
                "--out",
                out,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["auc"] is not None and doc["auc"] > 0.9


class TestSweep:
    def test_rows_and_monotone_sensitivity(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                out,
                "--std-thresholds",
                "0.3,1e9",
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        assert [float(r["std_threshold"]) for r in rows] == [0.3, 1e9]
        assert int(rows[1]["n_flipped"]) == 0
        assert int(rows[0]["n_flipped"]) >= int(rows[1]["n_flipped"])

        def sens(row):
            return None if row["sensitivity"] == "undefined" else float(row["sensitivity"])

        low, high = sens(rows[0]), sens(rows[1])
        if low is not None and high is not None:
            assert low >= high

    def test_rows_reconcile_with_predict(self, workspace, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        pred_out = tmp_path / "preds.csv"
        threshold = "0.3"
        run(
            [
                "sweep",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                sweep_out,
                "--std-thresholds",
                threshold,
            ]
        )
        run(
            [
                "predict",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                pred_out,
                "--std-threshold",
                threshold,
            ]
        )
        row = read_csv_rows(sweep_out)[0]
        source = {r["id"]: r for r in read_csv_rows(workspace["test"])}
        tp = fp = tn = fn = 0
        for r in read_csv_rows(pred_out):
            actual = int(source[r["id"]]["grade"]) >= 2
            predicted = r["referable"] == "true"
            if predicted and actual:
                tp += 1
            elif predicted and not actual:
                fp += 1
            elif not predicted and not actual:
                tn += 1
            else:
                fn += 1
        assert (tp, fp, tn, fn) == tuple(int(row[k]) for k in ("tp", "fp", "tn", "fn"))

    @pytest.mark.parametrize("grades", ["all", "0-1 only"])
    def test_rows_agree_with_evaluate(self, workspace, tmp_path, grades):
        """Each sweep row scores as ``evaluate`` does at that threshold; with
        no referable labels the sensitivity is undefined in both."""
        test_csv = workspace["test"]
        if grades == "0-1 only":
            test_csv = tmp_path / "low.csv"
            synth = ["synth", "--out", test_csv, "--seed", 1, "--n-per-grade", "20,20,0,0,0"]
            assert run(synth) == 0
        common = ["--test-csv", test_csv, "--model", workspace["model"]]
        thresholds = ["0.3", "0.84", "1e9"]
        sweep_out = tmp_path / "sweep.csv"
        sweep = ["sweep", *common, "--out", sweep_out, "--std-thresholds", ",".join(thresholds)]
        assert run(sweep) == 0
        rows = read_csv_rows(sweep_out)
        assert len(rows) == len(thresholds)
        for t, row in zip(thresholds, rows):
            out = tmp_path / f"report-{t}.json"
            assert run(["evaluate", *common, "--out", out, "--std-threshold", t]) == 0
            doc = json.loads(out.read_text())
            for key in ("tp", "fp", "tn", "fn", "n_flipped"):
                assert int(row[key]) == doc[key], (t, key)
            for key in ("sensitivity", "specificity"):
                expected = "undefined" if doc[key] is None else repr(doc[key])
                assert row[key] == expected, (t, key)
            if grades == "0-1 only":
                assert row["sensitivity"] == "undefined"


class TestRejections:
    """Bad input exits 1 with a one-line ``error:`` message and no artifact."""

    def assert_rejected(self, argv, out, capsys, match):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert match in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("predict", "--std-threshold", "nan"),
            ("predict", "--grade-threshold", "inf"),
            ("evaluate", "--std-threshold", "-inf"),
            ("evaluate", "--grade-threshold", "nan"),
            ("sweep", "--std-thresholds", "0.5,nan"),
            ("sweep", "--std-thresholds", "inf"),
            ("sweep", "--grade-threshold", "nan"),
        ],
    )
    def test_non_finite_threshold(
        self, workspace, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        """Rejected before the archive is rebuilt and the test file scored."""
        def no_load(path):
            raise AssertionError(f"{command} loaded {path} before checking {flag}")

        monkeypatch.setattr(data, "load_model", no_load)
        out = tmp_path / "out"
        argv = [command, "--test-csv", workspace["test"], "--model", workspace["model"]]
        argv += ["--out", out, f"{flag}={value}"]
        if command == "sweep" and flag != "--std-thresholds":
            argv += ["--std-thresholds", "0.5"]
        self.assert_rejected(argv, out, capsys, "must be finite")

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["train", "--train-csv", "TRAIN", "--model", "OUT", "--seed", "abc"], "'abc'"),
            (["train", "--model", "OUT"], "required: --train-csv"),
            (["train", "--train-csv", "TRAIN", "--model", "OUT", "--bogus"], "--bogus"),
            (["frobnicate", "--out", "OUT"], "invalid choice: 'frobnicate'"),
            (["synth", "--out", "OUT", "--dim", "2.5"], "invalid int value"),
            (["predict", "--out", "OUT", "--std-threshold", "high"], "invalid float value"),
            ([], "required: command"),
        ],
        ids=["bad-int", "missing-flag", "unknown-flag", "unknown-command", "float-for-int",
             "bad-float", "no-command"],
    )
    def test_malformed_command_line(self, workspace, tmp_path, capsys, argv, match):
        """argparse's own errors exit 1 like any bad input, not 2 like a numerical failure."""
        out = tmp_path / "out"
        argv = [{"OUT": out, "TRAIN": workspace["train"]}.get(a, a) for a in argv]
        self.assert_rejected(argv, out, capsys, match)

    @pytest.mark.parametrize(
        "flag, value, match",
        [
            ("--separation", "nan", "finite"),
            ("--noise", "inf", "finite"),
            ("--seed", "-1", "seed"),
            ("--dim", "99999999999999999999", "more than memory can address"),
            ("--n-per-grade", "0,0,0,0,99999999999999999999", "more than memory can address"),
            ("--separation", "1e308", "separation and noise are too large"),
            ("--noise", "1e308", "separation and noise are too large"),
        ],
    )
    def test_bad_synth_argument(self, tmp_path, capsys, flag, value, match):
        out = tmp_path / "synth.csv"
        self.assert_rejected(["synth", "--out", out, f"{flag}={value}"], out, capsys, match)

    @pytest.mark.parametrize("message, match", [
        ("Unable to allocate 291. TiB for an array with shape (5000000000000, 8)",
         "Unable to allocate 291. TiB"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_failed_allocation_is_an_input_error(self, tmp_path, capsys, monkeypatch,
                                                 message, match):
        """A size the machine cannot hold (--n-per-grade 1000000000000) exits 1, no traceback.

        The failure is simulated: nothing is allocated.
        """
        def too_large(*args):
            raise MemoryError(message)

        monkeypatch.setattr(data, "synthesize_dataset", too_large)
        out = tmp_path / "synth.csv"
        argv = ["synth", "--out", out, "--n-per-grade", 10**12]
        self.assert_rejected(argv, out, capsys, match)

    @pytest.mark.parametrize("command, unreadable", [("train", "train"), ("predict", "model")])
    def test_unreadable_input(self, workspace, tmp_path, capsys, monkeypatch, command, unreadable):
        """An input that exists but cannot be opened is an input error, not a traceback.

        The denial is simulated: running as root, ``chmod 000`` would not stop a read.
        """
        blocked = workspace[unreadable]

        def denied(real):
            def call(path, *args, **kwargs):
                if Path(path) == blocked:
                    raise PermissionError(errno.EACCES, "Permission denied", str(path))
                return real(path, *args, **kwargs)

            return call

        monkeypatch.setattr(data, "open", denied(open), raising=False)
        monkeypatch.setattr(Path, "read_bytes", denied(Path.read_bytes))
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--train-csv", blocked, "--model", out]
        else:
            argv = ["predict", "--test-csv", workspace["test"], "--model", blocked, "--out", out]
        self.assert_rejected(argv, out, capsys, f"cannot read {blocked}: Permission denied")

    @pytest.mark.parametrize("flag, value, match", [
        ("--seed", -1, "seed must be non-negative"),
        ("--max-train", 1, "max_train must be at least 2"),
        ("--restarts", 0, "restarts must be at least 1"),
    ], ids=["seed", "max-train", "restarts"])
    def test_train_checks_its_flags_before_reading_rows(
        self, workspace, tmp_path, capsys, monkeypatch, flag, value, match
    ):
        def no_read(path):
            raise AssertionError(f"train read {path} before checking {flag}")

        monkeypatch.setattr(data, "load_feature_csv", no_read)
        out = tmp_path / "m.model"
        argv = ["train", "--train-csv", workspace["train"], "--model", out, flag, value]
        self.assert_rejected(argv, out, capsys, match)
        assert list(tmp_path.iterdir()) == []

    def test_id_with_comma(self, workspace, tmp_path, capsys):
        lines = workspace["test"].read_text().splitlines(keepends=True)
        test_csv = tmp_path / "test.csv"
        test_csv.write_text(lines[0] + '"a,b"' + lines[1][lines[1].index(",") :])
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", test_csv, "--model", workspace["model"], "--out", out]
        self.assert_rejected(argv, out, capsys, "line 2")

    def test_id_that_is_not_utf8(self, workspace, tmp_path, capsys):
        lines = workspace["test"].read_bytes().splitlines(keepends=True)
        test_csv = tmp_path / "test.csv"
        test_csv.write_bytes(lines[0] + b"\xff" + lines[1][lines[1].index(b",") :])
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", test_csv, "--model", workspace["model"], "--out", out]
        self.assert_rejected(argv, out, capsys, "not UTF-8")

    @pytest.mark.parametrize("defect, match", [
        ("no-features", "line 1: malformed header"),
        ("line-break", "line 2: a record must be one line"),
    ], ids=["no-features", "line-break"])
    def test_query_file_without_features_or_with_a_two_line_record(
        self, console, tmp_path, capsys, defect, match
    ):
        """A header without feature columns; a quoted line break in the first record's last
        feature."""
        header, first = (console / "test.csv").read_text().splitlines()[:2]
        head, last = first.rsplit(",", 1)
        test_csv = tmp_path / "query.csv"
        test_csv.write_text("id,grade\nx,0\n" if defect == "no-features" else
                            f'{header}\n{head},"{last}\n"\n')
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", test_csv, "--model", console / "dr.model", "--out", out]
        self.assert_rejected(argv, out, capsys, match)

    def test_header_the_csv_module_cannot_read(self, workspace, tmp_path, capsys):
        """predict has opened its temp file when the header fails to parse."""
        test_csv = tmp_path / "test.csv"
        test_csv.write_text("id,grade,f" + "0" * 131_072 + "\nr0,0,0.5\n")
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", test_csv, "--model", workspace["model"], "--out", out]
        self.assert_rejected(argv, out, capsys, "line 1: field larger than field limit (131072)")
        assert list(tmp_path.iterdir()) == [test_csv]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_query_row_too_large(self, workspace, tmp_path, capsys, command):
        dim = len(workspace["test"].read_text().splitlines()[0].split(",")) - 2
        test_csv = tmp_path / "test.csv"
        test_csv.write_text(
            workspace["test"].read_text() + "huge,0," + ",".join(["1.7e308"] * dim) + "\n"
        )
        out = tmp_path / "out"
        argv = [command, "--test-csv", test_csv, "--model", workspace["model"], "--out", out]
        self.assert_rejected(argv, out, capsys, "query row 100 ")

    @pytest.mark.parametrize(
        "value, columns", [("1e160", 1), ("1.7e308", None)], ids=["one-column", "every-column"]
    )
    def test_training_row_too_large(self, workspace, tmp_path, capsys, value, columns):
        dim = len(workspace["train"].read_text().splitlines()[0].split(",")) - 2
        columns = columns or dim
        features = [value] * columns + ["0"] * (dim - columns)
        train_csv = tmp_path / "train.csv"
        train_csv.write_text(
            workspace["train"].read_text() + "big,0," + ",".join(features) + "\n"
        )
        out = tmp_path / "m.model"
        argv = ["train", "--train-csv", train_csv, "--model", out]
        self.assert_rejected(argv, out, capsys, "training row 100 ")

    def test_archive_hyperparameter_overflows(self, workspace, tmp_path, capsys):
        model = tmp_path / "m.model"
        model.write_bytes(workspace["model"].read_bytes())
        rewrite_header(model, lambda header: header.update(log_length_scale=400.0))
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", workspace["test"], "--model", model, "--out", out]
        self.assert_rejected(argv, out, capsys, "log_length_scale")

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "sweep"])
    def test_output_in_missing_directory(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("train fitted before checking its output directory")

        monkeypatch.setattr(gp, "fit", no_fit)
        out = tmp_path / "nodir" / "out"
        if command == "train":
            argv = ["train", "--train-csv", workspace["train"], "--model", out]
        else:
            argv = [command, "--test-csv", workspace["test"], "--model", workspace["model"]]
            argv += ["--out", out]
        if command == "sweep":
            argv += ["--std-thresholds", "0.5"]
        self.assert_rejected(argv, out, capsys, str(out))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["predict", "evaluate", "sweep"])
    def test_scoring_checks_its_output_directory_before_loading(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        def no_load(path):
            raise AssertionError(f"{command} loaded {path} before checking its output directory")

        monkeypatch.setattr(data, "load_model", no_load)
        out = tmp_path / "nodir" / "out"
        argv = [command, "--test-csv", workspace["test"], "--model", workspace["model"]]
        argv += ["--out", out, "--std-thresholds=0.5"] if command == "sweep" else ["--out", out]
        self.assert_rejected(argv, out, capsys, f"cannot write {out}: no directory {out.parent}")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def writing_to(out, command, workspace, monkeypatch):
        """argv for ``command`` writing ``out``, with gp.fit, data.load_model and
        data.synthesize_dataset made to fail."""
        def no_work(*args):
            raise AssertionError(f"{command} did work before checking its output path")

        for module, name in ((gp, "fit"), (data, "load_model"), (data, "synthesize_dataset")):
            monkeypatch.setattr(module, name, no_work)
        scoring = ["--test-csv", workspace["test"], "--model", workspace["model"], "--out", out]
        argv = {"train": ["--train-csv", workspace["train"], "--model", out],
                "synth": ["--n-per-grade", 3, "--out", out],
                "sweep": [*scoring, "--std-thresholds", "0.5"]}.get(command, scoring)
        return [command, *argv]

    @pytest.mark.parametrize("out", [".", "", "/"], ids=["dot", "empty", "root"])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "sweep", "synth"])
    def test_output_without_a_file_name(
        self, workspace, tmp_path, capsys, monkeypatch, command, out
    ):
        """'.', '' and '/' name a directory: exit 1, nothing written in it, and no rows fitted
        or drawn or archive loaded first."""
        monkeypatch.chdir(tmp_path)
        before = sorted(Path(out).resolve().iterdir())
        assert run(self.writing_to(out, command, workspace, monkeypatch)) == 1
        assert capsys.readouterr().err == f"error: cannot write {Path(out)}: not a file name\n"
        assert sorted(Path(out).resolve().iterdir()) == before

    @pytest.mark.parametrize(
        "command, blocked",
        [("train", "r.json"), ("predict", "r.json"), ("evaluate", "r.json"),
         ("evaluate", "r.boxstats.txt"), ("sweep", "r.json"), ("synth", "r.json")],
    )
    def test_output_that_is_a_directory(
        self, workspace, tmp_path, capsys, monkeypatch, command, blocked
    ):
        """An existing directory as the output, or as evaluate's box-stats file: exit 1, the
        directory left as it was, and no rows fitted or drawn or archive loaded first."""
        (tmp_path / blocked).mkdir()
        (tmp_path / blocked / "kept").write_text("kept")
        assert run(self.writing_to(tmp_path / "r.json", command, workspace, monkeypatch)) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path / blocked}: Is a directory\n"
        assert [path.name for path in tmp_path.iterdir()] == [blocked]
        assert [path.name for path in (tmp_path / blocked).iterdir()] == ["kept"]
        assert (tmp_path / blocked / "kept").read_text() == "kept"

    def test_evaluate_removes_its_report_when_the_box_stats_fail(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """The box stats cannot be renamed into place (a full disk) after the report was: exit
        1, and neither file nor a temp file is left."""
        replace, listed = data.os.replace, []

        def box_stats_fail(src, dst):
            if not Path(dst).name.endswith(".boxstats.txt"):
                return replace(src, dst)
            listed.extend(path.name for path in tmp_path.iterdir())
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))

        monkeypatch.setattr(data.os, "replace", box_stats_fail)
        argv = ["evaluate", "--test-csv", workspace["test"], "--model", workspace["model"]]
        argv += ["--out", tmp_path / "r.json"]
        assert run(argv) == 1
        box = tmp_path / "r.boxstats.txt"
        assert capsys.readouterr().err == f"error: cannot write {box}: No space left on device\n"
        assert "r.json" in listed  # the report was in place when the box stats failed
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, match", [
        (",", "at least one value"), (" , ", "at least one value"),
        ("0.5,high", "bad --std-thresholds"),
    ])
    def test_unusable_threshold_list(self, workspace, tmp_path, capsys, value, match):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--test-csv", workspace["test"], "--model", workspace["model"]]
        argv += ["--out", out, f"--std-thresholds={value}"]
        self.assert_rejected(argv, out, capsys, match)

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_archive_without_normalizer(self, workspace, tmp_path, capsys, command):
        trained = data.load_model(workspace["model"])
        model = tmp_path / "m.model"
        data.save_model(gp.build_model(trained.X_train, trained.y_train, trained.hp), model)
        out = tmp_path / "out"
        argv = [command, "--test-csv", workspace["test"], "--model", model, "--out", out]
        self.assert_rejected(argv, out, capsys, "no normalization statistics")

    def test_archive_header_without_arrays(self, workspace, tmp_path, capsys):
        model = tmp_path / "m.model"
        model.write_bytes(workspace["model"].read_bytes())
        rewrite_header(model, lambda header: header.pop("arrays"))
        out = tmp_path / "r.json"
        argv = ["evaluate", "--test-csv", workspace["test"], "--model", model, "--out", out]
        self.assert_rejected(argv, out, capsys, "'arrays'")


class TestStreamedScoring:
    """Scoring parses, normalizes and predicts the test CSV one run of gp._PREDICT_BLOCK rows
    at a time. Runs of 8 here, so the workspace's 100 test rows make 13, the last of 4."""

    @pytest.fixture(autouse=True)
    def runs_of_eight(self, monkeypatch):
        monkeypatch.setattr(gp, "_PREDICT_BLOCK", 8)

    def with_records(self, workspace, tmp_path, replaced):
        """The workspace test CSV with record i (0-based, on line i + 2) replaced: by
        ``(grade, first feature)`` of the right width, or by a line as it is."""
        lines = workspace["test"].read_text().splitlines(keepends=True)
        dim = len(lines[0].split(",")) - 2
        for i, record in replaced.items():
            if isinstance(record, tuple):
                grade, first = record
                record = f"r{i},{grade}," + ",".join([first] + ["0.5"] * (dim - 1))
            lines[i + 1] = record + "\n"
        path = tmp_path / "test.csv"
        path.write_text("".join(lines))
        return path

    def reject(self, workspace, capsys, test_csv, match, command="predict"):
        out = test_csv.with_name("out")
        argv = [command, "--test-csv", test_csv, "--model", workspace["model"], "--out", out]
        TestRejections().assert_rejected(argv, out, capsys, match)

    def test_rows_score_with_the_bits_of_one_predict_call(self, workspace, tmp_path):
        out = tmp_path / "preds.csv"
        argv = ["predict", "--test-csv", workspace["test"], "--model", workspace["model"]]
        assert run(argv + ["--out", out]) == 0
        model = data.load_model(workspace["model"])
        _, X, _ = data.load_feature_csv(workspace["test"])
        mean, std = gp.predict(model, data.apply_normalizer(model.normalizer, X))
        rows = read_csv_rows(out)
        assert [r["mean"] for r in rows] == [repr(m) for m in mean.tolist()]
        assert [r["std"] for r in rows] == [repr(s) for s in std.tolist()]

    @pytest.mark.parametrize(
        "record, match",
        [
            ((2, "0.5"), None),
            (("two", "0.5"), "line 12: non-integer grade 'two'"),
            ("r10,2,0.5", "line 12: expected"),
            ((2, "nan"), "line 12: non-finite feature value"),
            ((2, "-1e400"), "line 12: non-finite feature value"),
            ((2, "1.7e308"), "query row 10 is non-finite or too large"),
            (('"2\n"', "0.5"), "line 12: a record must be one line"),
            ((2, '"0.5\r\n"'), "line 12: a record must be one line"),
        ],
        ids=[
            "valid", "grade", "width", "nan", "overflowing-text", "overflowing-row",
            "line-break-in-grade", "line-break-in-feature",
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_defect_in_the_second_run_is_named_over_the_whole_file(
        self, workspace, tmp_path, capsys, record, match, command
    ):
        test_csv = self.with_records(workspace, tmp_path, {10: record})
        if match is None:
            out = tmp_path / "out"
            argv = [command, "--test-csv", test_csv, "--model", workspace["model"]]
            assert run(argv + ["--out", out]) == 0
        else:
            self.reject(workspace, capsys, test_csv, match, command)
            assert list(tmp_path.iterdir()) == [test_csv]  # no --out and no temp file

    @pytest.mark.parametrize(
        "replaced, match",
        [
            ({3: (0, "1.7e308"), 10: "r10,0"}, "query row 3 "),
            ({9: (0, "1.7e308"), 12: "r12,0"}, "query row 9 "),
            ({9: "r9,0", 12: (0, "1.7e308")}, "line 11: expected"),
            ({3: (0, "1.7e308"), 10: (0, "nan")}, "query row 3 "),
            ({3: (0, "nan"), 10: (0, "1.7e308")}, "line 5: non-finite"),
            ({9: (0, "1.7e308"), 12: (0, "nan")}, "query row 9 "),
            ({9: (0, "nan"), 12: (0, "1.7e308")}, "line 11: non-finite"),
        ],
        ids=[
            "runs-1-and-2", "same-run", "malformed-first", "then-non-finite",
            "non-finite-first", "same-run-then-non-finite", "same-run-non-finite-first",
        ],
    )
    def test_the_first_defect_in_file_order_is_reported(
        self, workspace, tmp_path, capsys, replaced, match
    ):
        """All of a file's parse errors used to beat any overflowing row; now the first
        defect in the file is reported, in one run or across two."""
        self.reject(workspace, capsys, self.with_records(workspace, tmp_path, replaced), match)

    def test_a_defect_in_the_third_run_leaves_no_file(self, workspace, tmp_path, capsys):
        """predict has written two runs to its temp file when the third fails to parse."""
        test_csv = self.with_records(workspace, tmp_path, {20: "r20,2,0.5"})
        self.reject(workspace, capsys, test_csv, "line 22: expected")
        assert list(tmp_path.iterdir()) == [test_csv]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_a_read_error_after_the_first_run_is_reported_as_one(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        """Not as a failure to write --out, which predict has opened by then."""
        test_csv = tmp_path / "test.csv"
        test_csv.write_bytes(workspace["test"].read_bytes())
        lines = test_csv.read_bytes().splitlines(keepends=True)
        second_run = sum(map(len, lines[:10]))  # the header, 8 records and one more

        class Failing(io.FileIO):
            def readinto(self, buffer):  # 64 bytes at a time, none past the second run's start
                if self.tell() >= second_run:
                    raise OSError(errno.EIO, "Input/output error")
                return super().readinto(memoryview(buffer)[:64])

        def failing_open(file, mode="r", **kwargs):
            if mode != "r":
                return open(file, mode, **kwargs)
            return io.TextIOWrapper(io.BufferedReader(Failing(file)), **kwargs)

        predict, scored = gp.predict, []
        monkeypatch.setattr(data, "open", failing_open, raising=False)
        monkeypatch.setattr(gp, "predict", lambda *a: scored.append(1) or predict(*a))
        match = f"cannot read {test_csv}: Input/output error"
        self.reject(workspace, capsys, test_csv, match, command)
        assert scored == [1]
        assert list(tmp_path.iterdir()) == [test_csv]


@pytest.mark.parametrize("edit", ["bom", "quoted-id", "crlf"])
@pytest.mark.parametrize("shape", ["runs-of-8", "2000-rows"])
def test_an_edited_file_scores_as_the_plain_file(request, tmp_path, monkeypatch, shape, edit):
    """A leading BOM is skipped; CRLF line ends split the runs alike; a quoted id in the
    second run is read by the csv row loop from there to the end of the file. Each scores
    with the bits of the plain file: the workspace's 100 test rows in runs of 8, and 2,250
    rows in runs of 512 through the shared benchmark-shape archive."""
    if shape == "runs-of-8":
        monkeypatch.setattr(gp, "_PREDICT_BLOCK", 8)
        workspace = request.getfixturevalue("workspace")
        plain, model, quoted = workspace["test"], workspace["model"], 11
    else:
        plain = request.getfixturevalue("console") / "big64.csv"
        model, quoted = request.getfixturevalue("benchmark_archive")["model"], 600
    lines = plain.read_bytes().splitlines(keepends=True)
    if edit == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif edit == "crlf":
        lines = [line.replace(b"\n", b"\r\n") for line in lines]
    else:
        record_id, rest = lines[quoted].split(b",", 1)
        lines[quoted] = b'"' + record_id + b'",' + rest
        assert sum(b'"' in line for line in lines) == 1
    edited = tmp_path / "edited.csv"
    edited.write_bytes(b"".join(lines))
    outs = []
    for test_csv in (plain, edited):
        out = tmp_path / f"{test_csv.stem}.preds.csv"
        assert run(["predict", "--test-csv", test_csv, "--model", model, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("files, command, test_csv, model, lines", [
    ("workspace", "evaluate", "test.csv", "fundus.model", None),
    ("console", "evaluate", "test.csv", "dr.model", None),
    ("console", "sweep", "test.csv", "dr.model", 4),
    ("console", "predict", "big.csv", "dr.model", 2251),
    ("console", "predict", "big64.csv", "benchmark_archive", 2251),
    ("console", "evaluate", "big64.csv", "benchmark_archive", None),
    ("console", "predict", "dup.csv", "dup_jitter.model", 151),
], ids=["workspace-evaluate", "readme-evaluate", "readme-sweep", "readme-predict-big",
        "2000-rows-predict-big", "2000-rows-evaluate-big", "jitter-predict"])
def test_same_inputs_score_to_the_same_bytes(
    request, tmp_path, files, command, test_csv, model, lines
):
    """Twice the same command, the same bytes: the README walk-through's model, the shared
    benchmark-shape archive on five 512-row runs, and the model whose factor took jitter."""
    root = request.getfixturevalue(files)
    root = root["root"] if files == "workspace" else root
    model = request.getfixturevalue(model)["model"] if model == "benchmark_archive" else root / model
    outs = []
    for name in ("a", "b"):
        argv = [command, "--test-csv", root / test_csv, "--model", model]
        argv += ["--std-thresholds", "0.5,0.84,1.2"] if command == "sweep" else []
        assert run([*argv, "--out", tmp_path / name]) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    assert lines is None or outs[0].count(b"\n") == lines


@pytest.fixture(scope="module")
def scoring_memory(tmp_path_factory):
    """Per shape, made once: query files of fewer and of more rows of 64 features, and at
    n = 100 an archive. n = 100 with 2,000 and 8,000 rows, or the benchmark's n = 2,000 (the
    shared archive) with the first 2,000 of 20,000 rows and all of them."""
    made = {}

    def files(shape):
        if shape in made:
            return made[shape]
        made[shape] = root = tmp_path_factory.mktemp("scoring_memory")
        if shape == "n=2,000":
            more = data.synthesize_dataset([4000] * 5, 64, 6.0, 1.0, 1)
            fewer = [part[:2000] for part in more]
        else:
            _, X, grades = data.synthesize_dataset([20] * 5, 64, 6.0, 1.0, 0)
            stats = data.fit_normalizer(X)
            X, y = data.apply_normalizer(stats, X), grades.astype(float)
            model = gp.build_model(X, y, Hyperparams(2.4, 0.0, -2.0), normalizer=stats)
            data.save_model(model, root / "m.model")
            fewer, more = (data.synthesize_dataset([k] * 5, 64, 6.0, 1.0, 1) for k in (400, 1600))
        data.write_feature_csv(*fewer, root / "fewer.csv")
        data.write_feature_csv(*more, root / "more.csv")
        return root

    return files


@pytest.mark.parametrize("shape, command, growth", [
    ("n=100", "predict", (-math.inf, 48_000)), ("n=100", "evaluate", (-math.inf, 6000 * 32)),
    ("n=100", "sweep", (-math.inf, 6000 * 32)), ("n=2,000", "predict", (-0.25e6, 0.25e6)),
    ("n=2,000", "evaluate", None),
], ids=["predict-48000", "evaluate-192000", "sweep-192000", "n=2,000-predict", "n=2,000-evaluate"])
def test_scoring_keeps_only_what_its_output_needs(
    request, scoring_memory, tmp_path, shape, command, growth
):
    """predict writes each run as it is scored, so more query rows leave its traced peak
    where it was; evaluate and sweep keep three arrays (17 B a row) and no ids. At the
    benchmark's shape, evaluate holds L^-1, one kernel block and one 512-row run of features."""
    root = scoring_memory(shape)
    model = root / "m.model"
    if shape == "n=2,000":
        model = request.getfixturevalue("benchmark_archive")["model"]
    peaks = []  # a growth compares the two files' peaks; the bound reads only the larger's
    for rows in ("fewer", "more") if growth else ("more",):
        argv = [command, "--test-csv", root / f"{rows}.csv"]
        argv += ["--model", model, "--out", tmp_path / "out"]
        argv += ["--std-thresholds=0.5,0.84,1.2"] if command == "sweep" else []
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    if growth is None:
        assert peaks[-1] < 1.45 * 2000 * 2000 * 8
    else:
        assert growth[0] < peaks[1] - peaks[0] < growth[1]


class TestAtomicWrite:
    """An existing ``<out>.tmp`` is left alone: outputs go through a fresh temp name."""

    @pytest.mark.parametrize("command, kind", [("synth", "directory"), ("synth", "file"),
                                               ("predict", "directory")],
                             ids=["directory", "file", "predict-directory"])
    def test_stale_temp_name_is_untouched(self, request, tmp_path, capsys, command, kind):
        """Also for predict, with the README walk-through's model."""
        argv = [command, "--n-per-grade", 3]
        if command == "predict":
            console = request.getfixturevalue("console")
            argv = [command, "--test-csv", console / "test.csv", "--model", console / "dr.model"]
        clean = tmp_path / "clean.csv"
        assert run([*argv, "--out", clean]) == 0
        work = tmp_path / "work"
        work.mkdir()
        stale = work / "preds.csv.tmp"
        if kind == "directory":
            stale.mkdir()
            (stale / "inside").write_text("keep")
        else:
            stale.write_text("someone else's file")
        before = {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
        out = work / "preds.csv"
        assert run([*argv, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == clean.read_bytes()
        assert stale.is_dir() == (kind == "directory")
        after = {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
        assert after == {**before, Path("preds.csv"): clean.read_bytes()}
        assert sorted(p.name for p in work.iterdir()) == ["preds.csv", "preds.csv.tmp"]
        plain = tmp_path / "plain"
        with open(plain, "w"):
            pass
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

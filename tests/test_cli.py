"""End-to-end command-line tests, run in-process through cli.main."""

import csv
import json

import pytest

from gpgrade import cli, data, gp
from gpgrade.errors import NumericalError


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
    def test_reports_hyperparameters(self, workspace, capsys, tmp_path):
        model = tmp_path / "m.model"
        code = run(
            [
                "train",
                "--train-csv",
                workspace["train"],
                "--model",
                model,
                "--restarts",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert model.exists()
        assert "log_marginal_likelihood" in out
        assert "length_scale" in out
        assert "noise_variance" in out

    def test_printed_evidence_matches_full_evaluation(self, workspace, capsys, tmp_path):
        """The lml line is read off the stored factor, bit for bit."""
        path = tmp_path / "m.model"
        assert run(["train", "--train-csv", workspace["train"], "--model", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = next(line for line in lines if line.startswith("log_marginal_likelihood "))
        model = data.load_model(path)
        lml, _ = gp.log_marginal_likelihood(model.X_train, model.y_train, model.hp)
        assert printed == f"log_marginal_likelihood {lml!r}"

    def test_missing_csv_exits_one(self, tmp_path, capsys):
        code = run(
            ["train", "--train-csv", tmp_path / "nope.csv", "--model", tmp_path / "m"]
        )
        assert code == 1
        assert "no such file" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gpgrade")


class TestPredict:
    def test_writes_one_row_per_record(self, workspace, tmp_path):
        out = tmp_path / "preds.csv"
        code = run(
            [
                "predict",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                out,
            ]
        )
        assert code == 0
        rows = read_csv_rows(out)
        source = read_csv_rows(workspace["test"])
        assert len(rows) == len(source)
        assert [r["id"] for r in rows] == [r["id"] for r in source]
        for r in rows:
            assert float(r["std"]) >= 0.0
            assert r["referable"] in ("true", "false")
            assert r["flipped"] in ("true", "false")

    def test_header_layout(self, workspace, tmp_path):
        out = tmp_path / "preds.csv"
        run(
            [
                "predict",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                out,
            ]
        )
        assert out.read_text().splitlines()[0] == "id,mean,std,referable,flipped"

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

    def test_same_inputs_byte_identical_reports(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.evaluate(workspace, a)
        self.evaluate(workspace, b)
        assert a.read_bytes() == b.read_bytes()

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

    def test_empty_threshold_list_exits_one(self, workspace, tmp_path):
        code = run(
            [
                "sweep",
                "--test-csv",
                workspace["test"],
                "--model",
                workspace["model"],
                "--out",
                tmp_path / "s.csv",
                "--std-thresholds",
                " , ",
            ]
        )
        assert code == 1


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
        ],
    )
    def test_non_finite_threshold(self, workspace, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        argv = [command, "--test-csv", workspace["test"], "--model", workspace["model"]]
        argv += ["--out", out, f"{flag}={value}"]
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
        ],
    )
    def test_bad_synth_argument(self, tmp_path, capsys, flag, value, match):
        out = tmp_path / "synth.csv"
        self.assert_rejected(["synth", "--out", out, f"{flag}={value}"], out, capsys, match)

    def test_negative_train_seed(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.model"
        argv = ["train", "--train-csv", workspace["train"], "--model", out, "--seed", -3]
        self.assert_rejected(argv, out, capsys, "seed")

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
        from test_data import rewrite_header

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

    @pytest.mark.parametrize("blocked", ["r.json", "r.boxstats.txt"])
    def test_evaluate_leaves_neither_file_when_one_cannot_be_written(
        self, workspace, tmp_path, capsys, blocked
    ):
        (tmp_path / blocked).mkdir()
        argv = ["evaluate", "--test-csv", workspace["test"], "--model", workspace["model"]]
        argv += ["--out", tmp_path / "r.json"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and blocked in err
        assert [path.name for path in tmp_path.iterdir()] == [blocked]
        assert list((tmp_path / blocked).iterdir()) == []

    @pytest.mark.parametrize(
        "value, match", [(",", "at least one value"), ("0.5,high", "bad --std-thresholds")]
    )
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
        from test_data import rewrite_header

        model = tmp_path / "m.model"
        model.write_bytes(workspace["model"].read_bytes())
        rewrite_header(model, lambda header: header.pop("arrays"))
        out = tmp_path / "r.json"
        argv = ["evaluate", "--test-csv", workspace["test"], "--model", model, "--out", out]
        self.assert_rejected(argv, out, capsys, "'arrays'")

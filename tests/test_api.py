"""The public surface: a name joins or leaves ``gpgrade.__all__`` only on purpose."""

import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import gpgrade
from gpgrade import cli

from conftest import barred_scipy, run_probe

PUBLIC_NAMES = [
    "BoxStats",
    "EvalReport",
    "GPGradeError",
    "GPModel",
    "GRADE_THRESHOLD_DEFAULT",
    "Hyperparams",
    "InputError",
    "ModelFormatError",
    "NormStats",
    "NumericalError",
    "ParseError",
    "STD_THRESHOLD_DEFAULT",
    "apply_normalizer",
    "apply_uncertainty_flip",
    "binarize",
    "box_stats_table",
    "build_model",
    "evaluate",
    "fit",
    "fit_normalizer",
    "load_feature_csv",
    "load_model",
    "predict",
    "save_model",
    "synthesize_dataset",
    "write_feature_csv",
]


def test_all_is_pinned():
    assert sorted(gpgrade.__all__) == PUBLIC_NAMES


def test_src_stays_within_its_line_budget():
    """``wc -l src/gpgrade/*.py`` is at most the bound (ROADMAP item 10, less code). A change
    that has to grow ``src/`` raises the bound and says why in CHANGES.md."""
    src = Path(__file__).resolve().parents[1] / "src" / "gpgrade"
    assert sum(path.read_bytes().count(b"\n") for path in src.glob("*.py")) <= 1714


def test_every_public_name_resolves():
    for name in gpgrade.__all__:
        assert getattr(gpgrade, name, None) is not None, name


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The README's python block runs on the CSVs of its own synth commands."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synth_lines = [
        line for line in readme.splitlines() if line.startswith("gpgrade synth ")
    ]
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    monkeypatch.chdir(tmp_path)
    assert len(synth_lines) == 2
    for line in synth_lines:
        assert cli.main(shlex.split(line)[1:]) == 0
    exec(compile(example, "README.md", "exec"), {})
    assert "sensitivity" in capsys.readouterr().out


def test_readme_module_rows_stay_short():
    """Each row of the README's module table is at most 150 words: API and contract only."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## What is in the box\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `gpgrade")]
    assert len(rows) == 6
    for row in rows:
        assert len(row.split()) <= 150, row.split("|")[1]


# Runs in a fresh interpreter: import the CLI, run the arguments, and report
# which scipy modules each step left loaded, and whether the run loaded numpy.ma.
_IMPORT_PROBE = """
import json, sys
heavy = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
import gpgrade.cli
after_import = heavy()
status = gpgrade.cli.main(sys.argv[1:])
print(json.dumps({"after_import": after_import, "status": status, "after_run": heavy(),
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


@pytest.mark.parametrize("command", ["train", "predict", "evaluate", "sweep"])
def test_cli_import_and_command_skip_scipy_stats_and_optimize(tmp_path, command):
    """No scipy module loads where numpy's OpenBLAS is bound, and on the scipy.linalg
    fallback neither scipy.stats nor scipy.optimize does. train takes its median distance
    without numpy.ma (evaluate and sweep still load it through np.quantile)."""
    csv, model, out = tmp_path / "d.csv", tmp_path / "m.model", tmp_path / "p.csv"
    assert cli.main(["synth", "--out", str(csv), "--n-per-grade", "4", "--dim", "3"]) == 0
    assert cli.main(["train", "--train-csv", str(csv), "--model", str(model), "--restarts", "1"]) == 0
    args = {
        "train": ["train", "--train-csv", str(csv), "--model", str(out)],
        "predict": ["predict", "--test-csv", str(csv), "--model", str(model), "--out", str(out)],
        "evaluate": ["evaluate", "--test-csv", str(csv), "--model", str(model), "--out", str(out)],
        "sweep": ["sweep", "--test-csv", str(csv), "--model", str(model), "--out", str(out),
                  "--std-thresholds", "0.5,1"],
    }[command]
    report = run_probe(_IMPORT_PROBE, *args)
    assert report["status"] == 0
    fallback = gpgrade._lapack._call is None
    assert barred_scipy(report["after_import"], fallback) == []
    assert barred_scipy(report["after_run"], fallback) == []
    assert out.is_file()
    if command == "train":
        assert not report["numpy.ma"]

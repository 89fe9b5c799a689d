"""The public surface: a name joins or leaves ``gpgrade.__all__`` only on purpose."""

import re
import shlex
from pathlib import Path

import gpgrade
from gpgrade import cli

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
    "confusion",
    "evaluate",
    "fit",
    "fit_normalizer",
    "load_feature_csv",
    "load_model",
    "predict",
    "save_model",
    "sens_spec",
    "synthesize_dataset",
    "write_feature_csv",
]


def test_all_is_pinned():
    assert sorted(gpgrade.__all__) == PUBLIC_NAMES


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

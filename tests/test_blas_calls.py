"""One BLAS at run time: numpy's OpenBLAS, with no scipy in the process.

numpy's wheel ships the LAPACK routines the package needs in its own OpenBLAS, and
``gpgrade._lapack`` binds them through ctypes. Importing ``scipy.linalg`` cost every process
about 0.2 s and 24 MB and loaded a second OpenBLAS with a second thread pool. So no module
imports scipy, except ``_lapack``'s fallback (``if _call is None:``) for numpy builds that
link another BLAS, and a train and an evaluate leave no scipy module loaded (on the fallback,
``scipy.linalg`` and its own imports, never scipy.stats or scipy.optimize).

Importing ``scipy.stats`` costs about a second and ``scipy.optimize`` about a third of one, so
no module imports either, not even inside a function or the fallback: training runs the
package's own two-variable search.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import gpgrade
from gpgrade import _lapack, cli, fit, predict

from conftest import barred_scipy, run_probe

SOURCES = sorted(Path(gpgrade.__file__).parent.glob("*.py"))


def _imported_modules(node) -> list[str]:
    """Dotted module names an import statement loads (``from scipy import stats`` -> scipy.stats)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy anywhere but in the body of an ``if _call is None:``, the fallback."""
    tree = ast.parse(source)
    fallback = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test) == "_call is None"
        for statement in block.body
        for node in ast.walk(statement)
    }
    return [
        f"line {node.lineno}: {module}"
        for node in ast.walk(tree)
        if id(node) not in fallback
        for module in _imported_modules(node)
        if module.split(".")[0] == "scipy"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "import scipy",
        "import scipy.linalg",
        "from scipy.linalg import blas",
        "from scipy import linalg",
        "def f():\n    from scipy.linalg import lapack",
        "import scipy.stats",
        "from scipy.optimize import minimize",
        "try:\n    from scipy.optimize import minimize\nexcept ImportError:\n    pass",
        "if other is None:\n    from scipy.linalg import blas",
        "if _call is None:\n    pass\nelse:\n    from scipy.linalg import blas",
    ],
)
def test_guard_finds_scipy_imports(snippet):
    assert scipy_imports(snippet) != []


@pytest.mark.parametrize(
    "snippet",
    [
        "if _call is None:\n    from scipy.linalg import blas",
        "if _call is None:  # the fallback\n    import scipy.linalg.blas\n    from scipy import linalg",
        "import numpy\nname = 'scipy.linalg'",
    ],
)
def test_guard_allows(snippet):
    assert scipy_imports(snippet) == []


def heavy_scipy_imports(source: str) -> list[str]:
    """Imports of scipy.stats or scipy.optimize anywhere."""
    return [
        f"line {node.lineno}: {module}"
        for node in ast.walk(ast.parse(source))
        for module in _imported_modules(node)
        if module.startswith(("scipy.stats", "scipy.optimize"))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_heavy_scipy_imports(path):
    assert heavy_scipy_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "import scipy.stats",
        "from scipy.stats import rankdata",
        "from scipy import stats",
        "def f():\n    from scipy.stats import rankdata",
        "import scipy.optimize",
        "from scipy.optimize import minimize",
        "from scipy import optimize",
        "try:\n    from scipy.optimize import minimize\nexcept ImportError:\n    pass",
    ],
)
def test_guard_finds_heavy_scipy_imports(snippet):
    assert heavy_scipy_imports(snippet) != []


def test_guard_finds_optimize_inside_a_function():
    assert heavy_scipy_imports("def f():\n    from scipy.optimize import minimize") != []


@pytest.mark.parametrize(
    "modules, fallback, barred",
    [
        (["numpy", "scipy", "scipy.linalg"], False, ["scipy", "scipy.linalg"]),
        (["numpy", "scipy", "scipy.linalg"], True, []),
        (["scipy.linalg", "scipy.stats", "scipy.optimize._minimize"], True,
         ["scipy.stats", "scipy.optimize._minimize"]),
        (["scipyx", "numpy.linalg"], False, []),
    ],
)
def test_barred_scipy(modules, fallback, barred):
    assert barred_scipy(modules, fallback) == barred


# Runs each argument list through the CLI, then reports every scipy module loaded.
_SCIPY_PROBE = """
import json, sys
import gpgrade.cli
status = [gpgrade.cli.main(args) for args in json.loads(sys.argv[1])]
print(json.dumps({"status": status, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_train_then_evaluate_load_no_scipy(tmp_path):
    csv, model = tmp_path / "d.csv", tmp_path / "m.model"
    assert cli.main(["synth", "--out", str(csv), "--n-per-grade", "6", "--dim", "3"]) == 0
    commands = [
        ["train", "--train-csv", str(csv), "--model", str(model), "--restarts", "2"],
        ["evaluate", "--test-csv", str(csv), "--model", str(model), "--out", str(tmp_path / "r.json")],
    ]
    report = run_probe(_SCIPY_PROBE, json.dumps(commands))
    assert report["status"] == [0, 0]
    assert barred_scipy(report["scipy"], fallback=_lapack._call is None) == []


# Makes every symbol lookup fail, so _lapack falls back to scipy; then fits and predicts.
_FALLBACK_PROBE = """
import ctypes, json, sys

class NoSymbols(ctypes.CDLL):
    def __getattr__(self, name):
        raise AttributeError(name)

ctypes.CDLL = NoSymbols
from gpgrade import _lapack
from test_blas_calls import small_fit

report = small_fit()
print(json.dumps({"bound": _lapack._call is not None, **report,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def small_fit() -> dict:
    """A fit of 60 rows and a predict of 20 others, as JSON-ready lists."""
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(60, 3)), np.sin(rng.normal(size=60))
    model = fit(X, y, restarts=2)
    mean, std = predict(model, rng.normal(size=(20, 3)))
    hp = [model.hp.log_length_scale, model.hp.log_signal_variance, model.hp.log_noise_variance]
    return {"lml": model.log_evidence, "hp": hp, "mean": mean.tolist(), "std": std.tolist()}


def test_fallback_runs_on_scipy_and_agrees():
    """Where the symbols are missing, the same surface from scipy.linalg fits and predicts alike."""
    tests = str(Path(__file__).resolve().parent)
    report = run_probe(f"import sys; sys.path.insert(0, {tests!r})\n" + _FALLBACK_PROBE)
    assert report.pop("bound") is False
    scipy_modules = report.pop("scipy")
    assert "scipy.linalg" in scipy_modules
    assert barred_scipy(scipy_modules, fallback=True) == []
    expected = small_fit()
    assert report.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_allclose(report[key], value, rtol=1e-10, atol=1e-10, err_msg=key)


# Each wrapper with one mis-shaped argument (a tuple is a random Fortran array of that shape),
# the shape it expected and the one it got.
_MISSHAPED = [
    ("dpotrf", [(3, 4)], {"overwrite_a": 1}, (3, 3), (3, 4)),
    ("dpotri", [(3, 4)], {"overwrite_c": 1}, (3, 3), (3, 4)),
    ("dtrtri", [(3, 4)], {"overwrite_c": 1}, (3, 3), (3, 4)),
    ("dpotrs", [(3, 3), (4,)], {}, (3,), (4,)),
    ("dtrmm", [1.0, (3, 3), (4, 2)], {"overwrite_b": 1}, (3, 2), (4, 2)),
    ("dsyrk", [1.0, (3, 3)], {"c": (3, 4), "overwrite_c": 1}, (3, 3), (3, 4)),
]


@pytest.mark.skipif(_lapack._call is None, reason="the scipy fallback checks shapes itself")
@pytest.mark.parametrize("name, arguments, keywords, expected, got", _MISSHAPED,
                         ids=[row[0] for row in _MISSHAPED])
def test_wrapper_rejects_a_misshaped_array_before_the_call(
    monkeypatch, name, arguments, keywords, expected, got
):
    """A wrongly shaped array never reaches a LAPACK pointer: ValueError naming both shapes, no
    routine called, and every input left as it was, even one the wrapper may overwrite."""
    def no_call(*arguments):
        raise AssertionError(f"{arguments[0]} was called")

    rng = np.random.default_rng(8)

    def made(value):
        return np.asfortranarray(rng.normal(size=value)) if isinstance(value, tuple) else value

    arguments = [made(value) for value in arguments]
    keywords = {key: made(value) for key, value in keywords.items()}
    arrays = [a for a in [*arguments, *keywords.values()] if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in arrays]
    monkeypatch.setattr(_lapack, "_call", no_call)
    with pytest.raises(ValueError) as raised:
        getattr(_lapack, name)(*arguments, lower=1, **keywords)
    assert str(raised.value) == f"expected an array of shape {expected}, got {got}"
    assert [a.tobytes() for a in arrays] == before

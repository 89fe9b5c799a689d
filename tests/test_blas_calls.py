"""Every matrix product in the package runs on scipy's BLAS, and its imports stay lean.

The numpy and scipy wheels each load their own OpenBLAS, each with its own
worker threads. After a numpy product, numpy's workers keep spinning on
the CPUs that scipy's LAPACK factorization runs on next, which slows it
about twofold. The package therefore sends every BLAS call through
``scipy.linalg.blas``, and this test keeps numpy's products out.

Importing ``scipy.stats`` costs about a second and ``scipy.optimize`` about
a third of one, so no module imports either, not even inside a function:
training runs the package's own two-variable search.
"""

import ast
from pathlib import Path

import pytest

import gpgrade

SOURCES = sorted(Path(gpgrade.__file__).parent.glob("*.py"))
NUMPY_PRODUCTS = {"dot", "matmul", "vdot", "inner", "tensordot", "linalg"}


def numpy_blas_uses(source: str) -> list[str]:
    """``@`` products and numpy product or linalg calls in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and (
            node.attr == "dot"
            or (
                node.attr in NUMPY_PRODUCTS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            )
        ):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if "linalg" in node.module or names & NUMPY_PRODUCTS:
                found.append(f"line {node.lineno}: from {node.module} import")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_blas(path):
    assert numpy_blas_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "c = a @ b",
        "a @= b",
        "c = np.dot(a, b)",
        "c = a.dot(b)",
        "c = np.matmul(a, b)",
        "c = np.vdot(a, b)",
        "c = np.inner(a, b)",
        "c = np.tensordot(a, b, 1)",
        "c = np.linalg.norm(a)",
        "from numpy.linalg import norm",
        "from numpy import dot",
    ],
)
def test_guard_finds_numpy_products(snippet):
    assert numpy_blas_uses(snippet) != []


def _imported_modules(node) -> list[str]:
    """Dotted module names an import statement loads (``from scipy import stats`` -> scipy.stats)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


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

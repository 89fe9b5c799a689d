"""Run one gpgrade CLI command with the public functions of its modules timed.

Usage: python3 bench/traced_cli.py TRACE_JSON GPGRADE_ARG...

Every public function defined in gpgrade's cli, data, kernel, gp,
diagnosis and metrics modules is wrapped, and so is the ``minimize`` that
gp calls. A wrapper replaces the function at every module attribute that
holds it, because callers reach a function through their own module's
name for it (``gpgrade.gp.pairwise_sq_dists``, not only
``gpgrade.kernel.pairwise_sq_dists``). A span's self time is its duration
minus that of its direct child spans. Spans are aggregated in memory per
function and per module and written to TRACE_JSON when the command
returns, with the counts taken at the same boundaries, the names of the
functions found and the counting hooks that failed, so that a metric whose
function was renamed, removed or changed can be reported as absent.

The exit status is that of the command.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("cli", "data", "kernel", "gp", "diagnosis", "metrics")


def blas_info() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        name = version = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": name, "version": version, "threads": threads}


class Tracer:
    """Spans aggregated per function and per module, and named counters."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, seconds covered by children]
        self.spans: dict[str, dict] = {}
        self.layers: dict[str, dict] = {}
        self.counts: dict[str, float] = {}
        self.broken_hooks: set[str] = set()

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self.stack)

    def call_hook(self, name, hook, result, args) -> None:
        # A hook that no longer fits its function (say, a changed return
        # type) must not break the command; its counters are then reported
        # as absent.
        try:
            hook(self, result, args)
        except Exception:
            self.broken_hooks.add(name)

    def wrap(self, name, fn, hook=None, span=True):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                self.call_hook(name, hook, result, args)
                return result
            parent = self.stack[-1] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                stats = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - frame[1]
                totals = self.layers.setdefault(layer, {"outer_s": 0.0, "self_s": 0.0})
                totals["self_s"] += elapsed - frame[1]
                if parent is None or not parent[0].startswith(layer + "."):
                    totals["outer_s"] += elapsed
            if hook is not None:
                self.call_hook(name, hook, result, args)
            return result

        traced.__trace_name__ = name
        return traced


def _on_cholesky(tracer, result, args):
    if tracer.inside("gp.fit"):
        tracer.count("gp.evidence_evals")
    if result[1] != 0:
        tracer.count("gp.jitter_escalations")


def _on_minimize(tracer, result, args):
    tracer.count("gp.optimizer_nfev", int(result.nfev))


def _on_load_feature_csv(tracer, result, args):
    records = result[0] if isinstance(result, tuple) else result
    tracer.count("data.rows_parsed", len(records))


def _on_predict(tracer, result, args):
    tracer.count("gp.predict_rows", len(args[1]))


def _on_flip(tracer, result, args):
    import numpy as np

    flipped = np.asarray(result.flipped)
    tracer.count("diagnosis.decisions", int(flipped.size))
    tracer.count("diagnosis.flipped", int(flipped.sum()))


def _on_kernel(tracer, result, args):
    if not tracer.inside("kernel.") and hasattr(result, "nbytes"):
        tracer.count("kernel.computed_bytes", int(result.nbytes))


HOOKS = {
    "gp.cholesky_with_jitter": _on_cholesky,
    "data.load_feature_csv": _on_load_feature_csv,
    "gp.predict": _on_predict,
    "diagnosis.apply_uncertainty_flip": _on_flip,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions of gpgrade's modules; return their names."""
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module(f"gpgrade.{short}")
        except ImportError:
            pass
    replacements = {}
    for short, module in modules.items():
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            hook = HOOKS.get(name, _on_kernel if short == "kernel" else None)
            replacements[id(fn)] = tracer.wrap(name, fn, hook)
    gp = modules.get("gp")
    if gp is not None and callable(getattr(gp, "minimize", None)):
        replacements[id(gp.minimize)] = tracer.wrap("gp.minimize", gp.minimize, _on_minimize, span=False)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    return sorted(fn.__trace_name__ for fn in replacements.values())


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import gpgrade.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    wrapped = install(tracer)
    start = time.perf_counter()
    try:
        status = gpgrade.cli.main(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    run_s = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "run_s": run_s,
                "spans": tracer.spans,
                "layers": tracer.layers,
                "counts": tracer.counts,
                "wrapped": wrapped,
                "broken_hooks": sorted(tracer.broken_hooks),
                "blas": blas_info(),
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

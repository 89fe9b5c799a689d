"""End-to-end benchmark of the gpgrade command line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one real ``gpgrade`` process, run from ``src/`` with
BLAS limited to the CPUs this process may use. Operations run in a closed
loop with one client: the next one starts only after the previous one has
exited, as a batch user works. After the first operation, another one
starts only while it is expected to end inside the ``--seconds`` window.

Workloads (all inputs from ``inputs.draw`` under ``--seed``, D=64):

* ``train-2000``: ``gpgrade train`` on 2000 rows at default flags. The
  evidence loop in ``gp.fit`` does nearly all the work.
* ``screen-20k``: ``gpgrade evaluate`` of 20,000 query rows against a
  fixed-hyperparameter n=2000 archive. CSV parsing, the predict kernel
  blocks and triangular solves share the time: bulk throughput. ``fit``
  does no work here.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the operations run once more under ``traced_cli.py`` and the
last line reports per-layer metrics. Every output is checked: the first
output for an input against the dense-inverse oracle in ``inputs.py``, and
every later output for the same input byte for byte against the first.
The line before the result records the environment and run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

N_CPU = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy loads so the benchmark's own BLAS obeys the same limit.
os.environ.update({var: str(N_CPU) for var in BLAS_VARS})

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from traced_cli import blas_info  # noqa: E402

SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
# The ``gpgrade`` console script, plus a report of the process's own peak
# resident set at exit. VmHWM is read rather than the rusage of the child,
# because Linux folds the parent's peak into a child's ru_maxrss at exec.
ENTRY_POINT = """
import atexit, sys
def report_peak_rss():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\npeak_rss_kb {kb}\\n")
atexit.register(report_peak_rss)
from gpgrade.cli import main
sys.exit(main())
"""

# Output checks.
VALUE_TOL = 1e-7
AMBIGUOUS = 1e-6
AUC_FLOOR = 0.9
# A fitted archive must reach the evidence of the reference hyperparameters
# (less LML_SLACK nats), and the evidence gradient there must be flat: a
# converged fit reads about 0.03, a fit cut to three iterations about 4.
LML_SLACK = 1.0
GRADIENT_TOL = 0.5

SAMPLE_ROWS = 64


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: str(blas_threads) for var in BLAS_VARS})
    return env


class Op:
    """One finished gpgrade process."""

    def __init__(self, wall_s, status, log):
        self.wall_s, self.status, self.log = wall_s, status, log
        peaks = [line.split()[1] for line in log.splitlines() if line.startswith("peak_rss_kb ")]
        self.rss_mb = int(peaks[-1]) / 1024.0 if peaks else 0.0


def run_gpgrade(args, out_dir: Path, trace_path=None, blas_threads=N_CPU) -> Op:
    if trace_path is None:
        cmd = [sys.executable, "-c", ENTRY_POINT, *args]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), *args]
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "log.txt"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(blas_threads), cwd=ROOT
        )
        # A blocking wait, not wait(timeout=...): that one polls with sleeps
        # of up to 50 ms, which would quantize the measured times.
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
    return Op(wall_s, proc.returncode, log_path.read_text(errors="replace"))


def _normalized(rows, mean, std):
    return (rows.X - mean) / std


class Workload:
    """Inputs, one operation's arguments, and the checks of its output.

    ``key`` names an input: the first output for a key is verified against
    the oracle, later outputs for it must be byte-identical to that one.
    """

    rows_per_op: int
    n_query: int
    output = ""

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.first: dict = {}
        self.scored: dict = {}

    def warmed_up(self) -> None:
        """Called after each set-up's warm-up operation has succeeded."""

    def check(self, key, out_dir: Path):
        path = out_dir / self.output
        if not path.is_file():
            return f"no output file {self.output}"
        blob = path.read_bytes()
        if key in self.first:
            if blob != self.first[key]:
                return f"output for input {key!r} differs from the first one"
            return None
        error = self.verify(key, path)
        if error is None:
            self.first[key] = blob
        return error

    def quality(self) -> dict:
        return inputs.screening_quality(*self.scored[0])


class Train(Workload):
    rows_per_op = inputs.N_TRAIN
    output = "model.bin"
    n_query = 2000
    # One plain and one traced train share an input; the single-thread
    # pass may round differently, so it is verified on its own.
    trace_plan = [("plain", 0), ("traced", 0), ("single_thread", 1)]

    def setup(self):
        self.train, self.heldout = inputs.draw(self.seed, self.n_query)
        inputs.write_csv(self.work / "train.csv", self.train)
        inputs.write_csv(self.work / "warm.csv", self.train.take(0, 40))
        return ["train", "--train-csv", str(self.work / "warm.csv"), "--model", str(self.work / "warm.bin")]

    def args(self, key, out_dir):
        return ["train", "--train-csv", str(self.work / "train.csv"), "--model", str(out_dir / self.output)]

    def verify(self, key, path):
        from gpgrade import data
        from gpgrade.errors import GPGradeError

        try:
            model = data.load_model(path)
        except GPGradeError as exc:
            return f"archive does not load: {exc}"
        mean, std = inputs.zscore_stats(self.train.X)
        X = _normalized(self.train, mean, std)
        y = self.train.grades.astype(np.float64)
        if model.X_train.shape != X.shape or not np.allclose(model.X_train, X, rtol=0, atol=1e-12):
            return "archive training inputs differ from the normalized train rows"
        if not np.array_equal(model.y_train, y):
            return "archive training targets differ from the train grades"
        hp = model.hp
        oracle = inputs.Oracle(X, y, hp.length_scale, hp.signal_variance, hp.noise_variance)
        ref = inputs.Oracle(X, y, *(math.exp(v) for v in inputs.ARCHIVE_LOG_HP))
        gradient = oracle.lml_gradient()
        self.lml, self.lml_reference, self.lml_gradient = oracle.lml, ref.lml, gradient.tolist()
        if not oracle.lml >= ref.lml - LML_SLACK:
            return f"fit stopped at evidence {oracle.lml!r}, below {ref.lml!r} at the reference point"
        if not np.abs(gradient).max() <= GRADIENT_TOL:
            return f"evidence gradient {gradient.tolist()} at the fitted point is not flat"
        norm = model.normalizer
        mean_q, std_q = oracle.predict(_normalized(self.heldout, norm.mean, norm.std))
        referable, _ = inputs.decide(mean_q, std_q)
        self.scored[key] = (mean_q, referable, self.heldout.grades)
        return None


class Screen(Workload):
    """``gpgrade evaluate`` of the query rows against a shared archive.

    The archive is built at fixed hyperparameters with gpgrade's own
    ``gp.build_model`` and ``data.save_model``, so this workload neither
    pays for nor depends on ``fit``. The warm-up of each set-up is a
    ``gpgrade predict`` of the first SAMPLE_ROWS query rows; those
    predictions are checked row by row against the oracle, and must be
    byte-identical across set-ups.
    """

    rows_per_op = n_query = 20000
    output = "report.json"
    trace_plan = [("plain", 0), ("traced", 0)] * 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.samples: list[bytes] = []

    def setup(self):
        from gpgrade import data, gp
        from gpgrade.kernel import Hyperparams

        self.train, self.query = inputs.draw(self.seed, self.n_query)
        self.norm = inputs.zscore_stats(self.train.X)
        model = gp.build_model(
            _normalized(self.train, *self.norm),
            self.train.grades.astype(np.float64),
            Hyperparams(*inputs.ARCHIVE_LOG_HP),
            normalizer=data.NormStats(*self.norm),
        )
        self.archive = self.work / "archive.bin"
        data.save_model(model, self.archive)
        inputs.write_csv(self.work / "queries.csv", self.query)
        inputs.write_csv(self.work / "sample.csv", self.query.take(0, SAMPLE_ROWS))
        self._oracle = None
        return [
            "predict", "--test-csv", str(self.work / "sample.csv"),
            "--model", str(self.archive), "--out", str(self.work / "sample_out.csv"),
        ]

    def warmed_up(self):
        self.samples.append((self.work / "sample_out.csv").read_bytes())

    def oracle(self):
        if self._oracle is None:
            self._oracle = inputs.Oracle(
                _normalized(self.train, *self.norm),
                self.train.grades.astype(np.float64),
                *(math.exp(v) for v in inputs.ARCHIVE_LOG_HP),
            )
        return self._oracle

    def args(self, key, out_dir):
        return [
            "evaluate", "--test-csv", str(self.work / "queries.csv"),
            "--model", str(self.archive), "--out", str(out_dir / self.output),
        ]

    def verify(self, key, path):
        error = self.verify_sample()
        if error is not None:
            return error
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return f"report is not JSON: {exc}"
        mean, std = self.oracle().predict(_normalized(self.query, *self.norm))
        referable, flipped = inputs.decide(mean, std)
        labels = self.query.grades >= 2
        # Rows this close to a threshold may fall either way.
        near = (abs(mean - inputs.GRADE_THRESHOLD) < AMBIGUOUS) | (abs(std - inputs.STD_THRESHOLD) < AMBIGUOUS)
        slack = int(near.sum())
        expected = {
            "n": len(self.query),
            "tp": int((referable & labels).sum()),
            "fp": int((referable & ~labels).sum()),
            "tn": int((~referable & ~labels).sum()),
            "fn": int((~referable & labels).sum()),
            "n_flipped": int(flipped.sum()),
        }
        for field, want in expected.items():
            got = report.get(field)
            if not isinstance(got, int) or abs(got - want) > (0 if field == "n" else slack):
                return f"report {field} is {got!r}, oracle gives {want}"
        auc = inputs.roc_auc(mean, labels)
        for field in ("auc", "sensitivity", "specificity"):
            if not isinstance(report.get(field), float):
                return f"report {field} is {report.get(field)!r}"
        if abs(report["auc"] - auc) > AMBIGUOUS or report["auc"] < AUC_FLOOR:
            return f"report auc {report['auc']!r}, oracle gives {auc!r} (floor {AUC_FLOOR})"
        self.report = report
        self.scored[key] = (mean, referable, self.query.grades)
        return None

    def verify_sample(self):
        if len(set(self.samples)) != 1:
            return "set-up predictions of the same rows are not byte-identical"
        rows = self.query.take(0, SAMPLE_ROWS)
        lines = self.samples[0].decode("utf-8").splitlines()
        if not lines or lines[0] != "id,mean,std,referable,flipped":
            return "prediction header is wrong"
        try:
            fields = [line.split(",") for line in lines[1:]]
            ids = [f[0] for f in fields]
            mean = np.array([float(f[1]) for f in fields])
            std = np.array([float(f[2]) for f in fields])
            referable = np.array([f[3] == "true" for f in fields])
            flipped = np.array([f[4] == "true" for f in fields])
        except (IndexError, ValueError):
            return "prediction rows are malformed"
        if ids != rows.ids:
            return "prediction ids differ from the sampled ids"
        want_mean, want_std = self.oracle().predict(_normalized(rows, *self.norm))
        err = max(np.abs(mean - want_mean).max(), np.abs(std - want_std).max())
        if not err <= VALUE_TOL:
            return f"predictions differ from the oracle by {err!r}"
        want_referable, want_flipped = inputs.decide(mean, std)
        if not (np.array_equal(referable, want_referable) and np.array_equal(flipped, want_flipped)):
            return "referable/flipped columns disagree with the default thresholds"
        return None

    def quality(self):
        return {field: self.report[field] for field in ("auc", "sensitivity", "specificity")}


WORKLOADS = {"train-2000": Train, "screen-20k": Screen}


def set_up(workload: Workload, work: Path) -> float:
    start = time.perf_counter()
    warm = workload.setup()
    op = run_gpgrade(warm, work / "warm")
    elapsed = time.perf_counter() - start
    if op.status != 0:
        raise RuntimeError(f"warm-up gpgrade {warm[0]} exited {op.status}:\n{op.log}")
    workload.warmed_up()
    return elapsed


class Runner:
    """Runs operations, then checks them all, and keeps the tallies.

    Checks run after the operations so that they take no time from the
    measured window.
    """

    def __init__(self, workload: Workload, work: Path):
        self.workload, self.work = workload, work
        self.ops: dict[str, list[Op]] = {}
        self.done: list[tuple] = []
        self.traces: dict[str, list[dict]] = {}
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.done)

    def run(self, mode: str, key) -> None:
        out_dir = self.work / "ops" / str(self.attempted)
        op = run_gpgrade(
            self.workload.args(key, out_dir),
            out_dir,
            trace_path=out_dir / "trace.json" if mode != "plain" else None,
            blas_threads=1 if mode == "single_thread" else N_CPU,
        )
        self.done.append((mode, key, out_dir, op))
        self.ops.setdefault(mode, []).append(op)

    def closed_loop(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.run("plain", 0)
            expected = statistics.median(op.wall_s for op in self.ops["plain"])
            if time.perf_counter() - start + expected > seconds:
                return

    @property
    def quality(self) -> dict:
        return self.workload.quality() if 0 in self.workload.scored else {}

    def check_all(self) -> None:
        for i, (mode, key, out_dir, op) in enumerate(self.done):
            error = f"exit status {op.status}: {op.log[-500:]}" if op.status != 0 else None
            if error is None:
                error = self.workload.check(key, out_dir)
            trace_path = out_dir / "trace.json"
            if error is None and mode != "plain":
                if trace_path.is_file():
                    self.traces.setdefault(mode, []).append(json.loads(trace_path.read_text()))
                else:
                    error = "the traced run wrote no trace"
            if error is not None:
                self.failures.append(f"op {i} ({mode}): {error}")


def end_to_end(runner: Runner, setups: list[float]) -> dict:
    ops = runner.ops["plain"]
    walls = [op.wall_s for op in ops]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1000.0 * statistics.median(walls), "ms"),
        "rows_per_s": (runner.workload.rows_per_op * len(ops) / sum(walls), "1/s"),
        "peak_rss_mb": (max(op.rss_mb for op in ops), "MB"),
        "auc": (runner.quality.get("auc", 0.0), "ratio"),
    }


# Per-layer metrics: name -> (unit, kind, functions, field). SPAN sums a
# field of the functions' spans, LAYER takes a field of one module's totals,
# COUNT takes the counter ``field`` that the functions' hooks feed. Each is
# averaged over the traced operations.
SPAN, LAYER, COUNT = "span", "layer", "count"
PER_LAYER = {
    "cli.self_s": ("s", LAYER, ("cli",), "self_s"),
    "data.load_feature_csv_s": ("s", SPAN, ("data.load_feature_csv",), "total_s"),
    "data.rows_parsed": ("count", COUNT, ("data.load_feature_csv",), "data.rows_parsed"),
    "data.load_model_self_s": ("s", SPAN, ("data.load_model",), "self_s"),
    "data.save_model_s": ("s", SPAN, ("data.save_model",), "total_s"),
    "data.normalize_s": ("s", SPAN, ("data.fit_normalizer", "data.apply_normalizer"), "total_s"),
    "kernel.pairwise_sq_dists_s": ("s", SPAN, ("kernel.pairwise_sq_dists",), "total_s"),
    "kernel.rbf_from_sq_dists_s": ("s", SPAN, ("kernel.rbf_from_sq_dists",), "total_s"),
    "kernel.kernel_matrix_s": ("s", SPAN, ("kernel.kernel_matrix",), "total_s"),
    "kernel.computed_bytes": ("bytes", COUNT, ("kernel.kernel_matrix",), "kernel.computed_bytes"),
    "gp.fit_s": ("s", SPAN, ("gp.fit",), "total_s"),
    "gp.fit_self_s": ("s", SPAN, ("gp.fit",), "self_s"),
    "gp.evidence_evals": ("count", COUNT, ("gp.fit", "gp.cholesky_with_jitter"), "gp.evidence_evals"),
    "gp.optimizer_nfev": ("count", COUNT, ("gp.minimize",), "gp.optimizer_nfev"),
    "gp.log_marginal_likelihood_calls": ("count", SPAN, ("gp.log_marginal_likelihood",), "calls"),
    "gp.cholesky_s": ("s", SPAN, ("gp.cholesky_with_jitter",), "total_s"),
    "gp.jitter_escalations": ("count", COUNT, ("gp.cholesky_with_jitter",), "gp.jitter_escalations"),
    "gp.build_model_s": ("s", SPAN, ("gp.build_model",), "total_s"),
    "gp.predict_s": ("s", SPAN, ("gp.predict",), "total_s"),
    "gp.predict_self_s": ("s", SPAN, ("gp.predict",), "self_s"),
    "gp.predict_rows": ("count", COUNT, ("gp.predict",), "gp.predict_rows"),
    "diagnosis.decide_s": ("s", LAYER, ("diagnosis",), "outer_s"),
    "diagnosis.decisions": ("count", COUNT, ("diagnosis.apply_uncertainty_flip",), "diagnosis.decisions"),
    "diagnosis.flipped": ("count", COUNT, ("diagnosis.apply_uncertainty_flip",), "diagnosis.flipped"),
    "metrics.evaluate_s": ("s", SPAN, ("metrics.evaluate",), "total_s"),
    "metrics.roc_auc_s": ("s", SPAN, ("metrics.roc_auc",), "total_s"),
}


def per_layer(runner: Runner) -> tuple[dict, list[str]]:
    """Per-layer metrics, and those whose functions no longer exist.

    An absent metric reads 0.
    """
    traces = runner.traces.get("traced", [])
    n = max(len(traces), 1)
    wrapped = {name for t in traces for name in t["wrapped"]}
    modules = {name.split(".", 1)[0] for name in wrapped}
    counted = wrapped - {name for t in traces for name in t["broken_hooks"]}

    def mean(values):
        return sum(values) / n

    metrics = {"cli.import_s": (mean(t["import_s"] for t in traces), "s")}
    absent = []
    for metric, (unit, kind, functions, field) in PER_LAYER.items():
        if kind == SPAN:
            value = mean(t["spans"].get(f, {}).get(field, 0) for t in traces for f in functions)
        elif kind == LAYER:
            value = mean(t["layers"].get(functions[0], {}).get(field, 0.0) for t in traces)
        else:
            value = mean(t["counts"].get(field, 0) for t in traces)
        found = {SPAN: wrapped, LAYER: modules, COUNT: counted}[kind]
        if traces and not set(functions) <= found:
            absent.append(metric)
        metrics[metric] = (value, unit)
    evals = metrics["gp.evidence_evals"][0]
    metrics["gp.evidence_useful_ratio"] = (
        metrics["gp.optimizer_nfev"][0] / evals if evals else 0.0,
        "ratio",
    )
    single = runner.traces.get("single_thread", [])
    metrics["gp.fit_single_thread_s"] = (
        statistics.median(t["spans"].get("gp.fit", {}).get("total_s", 0.0) for t in single) if single else 0.0,
        "s",
    )
    plain = [op.wall_s for op in runner.ops.get("plain", [])]
    traced = [op.wall_s for op in runner.ops.get("traced", [])]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) if plain and traced else 0.0,
        "ratio",
    )
    return metrics, absent


def environment(args, workload: Workload, runner: Runner) -> dict:
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gpgrade").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    child_blas = sorted({json.dumps(t["blas"], sort_keys=True) for ts in runner.traces.values() for t in ts})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "usable_cpus": N_CPU,
        "blas": blas_info(),
        "traced_child_blas": [json.loads(b) for b in child_blas],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "n_train": inputs.N_TRAIN,
        "dim": inputs.D,
        "n_query": workload.n_query,
        "rows_per_op": workload.rows_per_op,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gpgrade" / "cli.py").is_file():
        print(f"error: no gpgrade sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gpgrade

    if Path(gpgrade.__file__).resolve().parent != SRC / "gpgrade":
        print(f"error: imported gpgrade from {gpgrade.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        try:
            setups = [set_up(workload, work) for _ in range(1 if args.trace else SETUP_REPEATS)]
        except RuntimeError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        runner = Runner(workload, work)
        if args.trace:
            for mode, key in workload.trace_plan:
                runner.run(mode, key)
            runner.check_all()
            metrics, absent = per_layer(runner)
        else:
            runner.closed_loop(args.seconds)
            runner.check_all()
            metrics, absent = end_to_end(runner, setups), []
        walls = sorted(op.wall_s for op in runner.ops.get("plain", []))
        detail = {
            "ops": {mode: [op.wall_s for op in ops] for mode, ops in runner.ops.items()},
            "op_p90_ms": 1000.0 * walls[math.ceil(0.9 * len(walls)) - 1] if len(walls) >= 100 else None,
            "setup_s": setups,
            "error_rate": len(runner.failures) / runner.attempted,
            "failures": runner.failures[:5],
            "quality": runner.quality,
            "absent": absent,
            "lml": getattr(workload, "lml", None),
            "lml_reference": getattr(workload, "lml_reference", None),
            "lml_gradient": getattr(workload, "lml_gradient", None),
            "report_n_flipped": getattr(workload, "report", {}).get("n_flipped"),
        }
        print(json.dumps({"environment": environment(args, workload, runner), "detail": detail}))
        print(
            json.dumps(
                {
                    "correct": not runner.failures,
                    "attempted": runner.attempted,
                    "failed": len(runner.failures),
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

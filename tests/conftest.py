"""Fixtures and helpers that more than one test module uses: the benchmark-shape archive,
trained once a session, and helpers that run code in a fresh interpreter, edit archives,
draw rows and read the process's pages."""

import ctypes
import hashlib
import json
import math
import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

import gpgrade
from gpgrade import cli
from gpgrade.data import MODEL_MAGIC
from gpgrade.kernel import NOISE_VARIANCE_FLOOR, Hyperparams

# Runs ``gpgrade`` on its arguments under tracemalloc and prints, as its last line, the exit
# status, tracemalloc's peak, and the bytes of VmRSS just before the run and of VmHWM after it.
TRACED_CLI = """
import json, sys, tracemalloc
from gpgrade import cli

def status(key):  # None where there is no such line, or no /proc
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next((int(line.split()[1]) * 1024 for line in fh if line.startswith(key)), None)
    except OSError:
        return None

tracemalloc.start()
rss = status("VmRSS:")
code = cli.main(sys.argv[1:])
print(json.dumps({"status": code, "peak": tracemalloc.get_traced_memory()[1],
                  "rss": rss, "hwm": status("VmHWM:")}))
"""


def run_probe(code: str, *args, env: dict | None = None) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter on this package, in
    ``env`` (this process's environment if None)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(gpgrade.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def blas_threads() -> str:
    """The thread count of numpy's OpenBLAS in this process, where the library reports it,
    else the CPU count: a child run at this count computes this process's bits."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return str(get())
    return str(os.cpu_count())


@pytest.fixture(scope="session")
def benchmark_archive(tmp_path_factory):
    """The benchmark's shape, trained once: ``gpgrade synth --seed 0 --n-per-grade 400 --dim
    64`` writes 2,000 rows of 64 features, and ``gpgrade train`` with default flags archives
    them in a fresh process (``TRACED_CLI``), at this process's OpenBLAS thread count and with
    no malloc settings in its environment. ``peak``, ``rss`` and ``hwm`` are the child's
    (``TRACED_CLI``; the last two None where /proc/self/status lacks them)."""
    root = tmp_path_factory.mktemp("benchmark")
    train, model = root / "train.csv", root / "train.model"
    synth = ["synth", "--out", train, "--seed", 0, "--n-per-grade", 400, "--dim", 64]
    assert cli.main([str(arg) for arg in synth]) == 0
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["OPENBLAS_NUM_THREADS"] = blas_threads()
    report = run_probe(TRACED_CLI, "train", "--train-csv", train, "--model", model, env=env)
    assert report.pop("status") == 0
    return {"root": root, "train": train, "model": model, **report}


def huge_pages_always() -> bool:
    """Whether transparent huge pages back every anonymous mapping, touched or not."""
    path = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    return path.exists() and "[always]" in path.read_text()


def written_bytes(array) -> int:
    """Bytes of the pages under array that this process alone maps (/proc/self/pagemap, bit
    56): the pages it has written. Untouched pages, and read ones that map the shared zero
    page, are not counted, nor is a neighbouring mapping the kernel merged into the same VMA."""
    first = array.ctypes.data // mmap.PAGESIZE
    stop = -(-(array.ctypes.data + array.nbytes) // mmap.PAGESIZE)  # rounded up
    with open("/proc/self/pagemap", "rb") as fh:  # one 8-byte entry per page
        fh.seek(8 * first)
        entries = np.frombuffer(fh.read(8 * (stop - first)), dtype="<u8")
    return int(np.count_nonzero(entries & np.uint64(1 << 56))) * mmap.PAGESIZE


def duplicated_dyadic_rows():
    """200 rows on a dyadic grid, every 40th duplicated, hyperparameters at s2 = 2**30 and
    the noise floor, which the factorization cannot take without jitter (see
    test_jitter_escalation), and the generator that drew the rows."""
    rng = np.random.default_rng(34)
    X = 0.25 * rng.integers(-8, 9, size=(200, 6))
    X[1::40] = X[0::40]
    return X, Hyperparams(0.0, 30.0 * math.log(2.0), math.log(NOISE_VARIANCE_FLOOR)), rng


def barred_scipy(modules, fallback: bool) -> list[str]:
    """The scipy modules among ``modules`` that a process may not load: any of them where
    numpy's OpenBLAS is bound, and on the ``scipy.linalg`` fallback scipy.stats and
    scipy.optimize (``fallback`` is ``_lapack._call is None`` for this process)."""
    heavy = ("scipy.stats", "scipy.optimize") if fallback else ("scipy",)
    return [m for m in modules if m.split(".")[0] == "scipy" and m.startswith(heavy)]


def reseal(path, edit):
    """Replace an archive's payload with ``edit(payload)`` and re-seal the checksum."""
    blob = path.read_bytes()
    prefix = len(MODEL_MAGIC) + 4
    payload = edit(blob[prefix + 32 + 8 :])
    path.write_bytes(
        blob[:prefix]
        + hashlib.sha256(payload).digest()
        + struct.pack("<Q", len(payload))
        + payload
    )


def rewrite_header(path, edit):
    """Apply ``edit`` to an archive's JSON header and re-seal the checksum."""

    def edit_payload(payload):
        (header_len,) = struct.unpack_from("<Q", payload, 0)
        header = json.loads(payload[8 : 8 + header_len])
        edit(header)
        header_bytes = json.dumps(header).encode("utf-8")
        return struct.pack("<Q", len(header_bytes)) + header_bytes + payload[8 + header_len :]

    reseal(path, edit_payload)

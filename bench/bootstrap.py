"""Locate the library source, cap BLAS threads and describe the environment.

Imported first by every benchmark entry point: the BLAS thread variables
only take effect if they are set before numpy is imported.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/hyperwave`` package to benchmark."""


def cap_blas_threads() -> None:
    """Set each BLAS thread variable to at most the number of cores."""
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        raw = os.environ.get(var, "").strip()
        value = int(raw) if raw.isdigit() and int(raw) > 0 else nproc
        os.environ[var] = str(min(value, nproc))


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: the library on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library():
    """Import ``hyperwave`` from this checkout's ``src`` and nowhere else."""
    init = SRC / "hyperwave" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no library source at {init.relative_to(ROOT)}")
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import hyperwave

    if Path(hyperwave.__file__).resolve() != init.resolve():
        raise SourceMissing(f"hyperwave imported from {hyperwave.__file__}, not {init}")
    return hyperwave


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    """Host, cores, library versions, commit and thread settings in effect."""
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "HYPERWAVE_THREADS": os.environ.get("HYPERWAVE_THREADS"),
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }

"""Where the benchmark finds periodet, how it caps BLAS threads, and the
environment record written next to every result.

Import this module before numpy: ``cap_blas_threads`` only takes effect
if it runs before the BLAS library is loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap every BLAS thread-count variable at the usable CPU count."""
    n = cpu_count()
    for var in _BLAS_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


def use_source_tree() -> None:
    """Import periodet from ``src/`` of this checkout and nowhere else.

    Exits with code 2 (and prints no result) when the checkout has no
    source tree, e.g. when only the benchmark's own files are present.
    """
    if not (SOURCE_DIR / "periodet" / "__init__.py").is_file():
        print(f"error: no periodet source tree at {SOURCE_DIR}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SOURCE_DIR))
    import periodet

    if Path(periodet.__file__).resolve().parent != SOURCE_DIR / "periodet":
        print(f"error: periodet imported from {periodet.__file__}, not {SOURCE_DIR}",
              file=sys.stderr)
        sys.exit(2)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@functools.cache
def _openblas_thread_functions():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or
    None when numpy uses another BLAS."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the benchmark's own output checks on one BLAS thread.  A
    multithreaded BLAS call in a check leaves worker threads spinning into
    the next timed operation and slows it (up to 2x on a 0.06 s one)."""
    functions = _openblas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE_DIR / "periodet").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SOURCE_DIR)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_record(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    functions = _openblas_thread_functions()
    return {
        "nproc": cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {var: os.environ.get(var) for var in _BLAS_VARS},
        "blas_threads_in_use": functions[0]() if functions else None,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
    }

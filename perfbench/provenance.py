"""What machine and build produced a result.

:func:`pin_blas_threads` must run before numpy is first imported: BLAS reads
its thread count from the environment when the library loads.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from typing import Dict, Optional

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: BLAS threads of a run, at most ``nproc``.  The engine's matrices are too
#: small to gain from a second thread: held-out decode time varied 9-12%
#: from repetition to repetition with two threads and 6.6% with one.
BLAS_THREADS = 1


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Set BLAS/OpenMP threads to :data:`BLAS_THREADS` (capped at ``nproc``)."""
    threads = min(BLAS_THREADS, nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    # Ask the loaded OpenBLAS itself; the symbol name depends on the build.
    fn = _blas_symbol(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"))
    if fn is not None:
        fn.restype = ctypes.c_int
        info["threads"] = int(fn())
    else:
        info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
        info["threads_source"] = "OPENBLAS_NUM_THREADS"
    return info


def _blas_symbol(symbols):
    """The first of ``symbols`` exported by a BLAS library the process has mapped."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if ".so" in line and "blas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _git_sha(root: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def provenance(root: str, seed: int) -> Dict[str, object]:
    import numpy as np

    return {
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "seed": seed,
    }

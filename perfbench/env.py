"""What a run was measured on: versions, threads, cores and source."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict[str, str]:
    """BLAS and OpenMP thread counts for workload processes: one per core
    this process may run on, never more."""
    n = str(nproc())
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_env() -> dict:
    """Measured inside a workload process, after numpy is loaded."""
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = blas_threads()
    cores = nproc()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": cores,
        "threads_exceed_nproc": threads is not None and threads > cores,
        "machine": platform.machine(),
    }


def src_sha256(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ivfuse")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository.
    Git is kept from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None

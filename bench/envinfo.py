"""The settings a run's numbers depend on, recorded with every run so that
runs made under different settings are not compared."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread_blas() -> None:
    """Run BLAS on one thread, whatever the environment asks for.

    On a shared 2-core machine a second BLAS thread made the
    reg-artifacts-20k solve bimodal (1.02-1.33 s against 1.03-1.14 s on one
    thread) for no gain there, and bought reg-200k about 7%. The benchmark
    measures the single-threaded program, as RABSDE_WORKERS does by default
    for path generation. Must run before numpy is imported; OpenBLAS reads
    these once at load.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _cache_sizes() -> dict:
    names = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")
    try:
        done = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in names and parts[1].isdigit():
            sizes[parts[0].lower()] = int(parts[1])
    return sizes


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str):
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    """sha256 over the package sources, which identifies the code even where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "rabsde", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
        "RABSDE_WORKERS": os.environ.get("RABSDE_WORKERS"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }

"""The environment block and the machine-speed probe.

The probe times a fixed float64 GEMM plus an elementwise kernel before and
after a workload runs. On a shared VM the same code can run 10-20% slower
from one run to the next; a probe that slowed by the same share tells that
drift apart from a regression.
"""
from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _loaded_blas_libraries():
    try:
        with open("/proc/self/maps") as f:
            return sorted({line.split()[-1] for line in f if "blas" in line.lower() and "/" in line})
    except OSError:
        return []


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in _THREAD_SYMBOLS:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def probe(reps: int = 7) -> float:
    """Median wall time, s, of a fixed kernel: four 384^3 GEMMs and an
    elementwise pass over 2^20 doubles."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    b = rng.standard_normal((384, 384))
    v = rng.standard_normal(1 << 20)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(4):
            c = a @ b
        w = np.exp(0.5 * v) * v + v
        times.append(time.perf_counter() - t0)
        del c, w
    return statistics.median(times)

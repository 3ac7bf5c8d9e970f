"""Machine block: host, library versions, BLAS threads and the measured
zgemm rate that BLAS-bound stages are judged against."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

ZGEMM_SIZES = (324, 648)   # the RK4 block sizes of the depth-17 problem


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Threads the OpenBLAS loaded by numpy will use, asked of the library."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(libs, key=lambda p: "numpy" not in p):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def zgemm_gflops(size: int, reps: int) -> float:
    """Median complex128 matmul rate at size x size, 8 d^3 flops per product."""
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    b = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    out = np.empty_like(a)
    np.matmul(a, b, out=out)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return 8.0 * size**3 / statistics.median(times) / 1e9


def machine_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rates = {str(d): zgemm_gflops(d, reps=60 if d < 500 else 15) for d in ZGEMM_SIZES}
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "zgemm_gflops_by_size": rates,
        # the roofline for BLAS-bound stages: best measured zgemm rate
        "zgemm_gflops": max(rates.values()),
    }

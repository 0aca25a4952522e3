"""Describe the machine and toolchain the benchmark figures come from.

    python3 bench/env.py > bench/environment.json

Records the CPU model and cache, core count, memory, Python, numpy and
scipy versions, the BLAS numpy is built on, and the thread pinning that
bench/run.py applies before numpy loads (one process, one BLAS thread:
the plain single-threaded baseline).
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy
import scipy

from run import THREAD_VARS


def _cpuinfo(key: str) -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def describe() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpuinfo("model name") or platform.processor(),
        "cpu_cache": _cpuinfo("cache size"),
        "nproc": os.cpu_count(),
        "memory_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "os": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pinning": {var: "1" for var in THREAD_VARS},  # as bench/run.py sets them
        "processes": 1,
    }


if __name__ == "__main__":
    json.dump(describe(), sys.stdout, indent=2)
    sys.stdout.write("\n")

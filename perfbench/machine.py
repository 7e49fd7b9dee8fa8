"""Print, as one JSON object, the machine facts recorded next to every result.

    python3 perfbench/machine.py

The benchmark runs this in its fixed environment without the BLAS thread
variables, so the thread count it reports is the library default; a
workload that pins BLAS threads shows that in the environment it prints.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
from pathlib import Path

import numpy as np

# OpenBLAS entry points under the symbol prefixes and suffixes numpy wheels use.
_OPENBLAS_PREFIXES = ("openblas_", "scipy_openblas_")
_OPENBLAS_SUFFIXES = ("", "64_")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_caches() -> dict:
    """Cache sizes of CPU 0 by level, e.g. {"L1d": "48K", "L2": "2048K"}."""
    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            suffix = "" if kind == "Unified" else kind[0].lower()
            caches[f"L{level}{suffix}"] = size
    except OSError:
        pass
    return caches


def openblas_runtime() -> dict:
    """Default thread count and run-time kernel of the loaded OpenBLAS, if any."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"blas_default_threads": int(threads()),
                        "blas_runtime": config().decode()}
    return {}


def facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cpu_caches": cpu_caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build": blas.get("openblas configuration"),
        **openblas_runtime(),
    }


if __name__ == "__main__":
    print(json.dumps(facts(), sort_keys=True))

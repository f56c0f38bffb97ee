"""Environment record printed next to every set of numbers.

Everything is read, never set: versions from the interpreter, the BLAS build
and thread count from the loaded OpenBLAS, the CPU model and cache sizes from
/proc and /sys, and the commit from the .git directory when there is one.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _loaded_openblas() -> str | None:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    return libs[0] if libs else None


def blas_runtime() -> dict:
    """Config string and thread count reported by the loaded OpenBLAS."""
    path = _loaded_openblas()
    if path is None:
        return {"library": None, "threads": None, "config": None}
    lib = ctypes.CDLL(path)
    out = {"library": os.path.basename(path), "threads": None, "config": None}
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                out["threads"] = threads()
                out["config"] = config().decode()
                return out
    return out


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    """Cache level/type -> size, for cpu0."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _caches()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": blas_runtime(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "llc": caches[max(caches)] if caches else None,
        "commit": _git_commit(root),
    }

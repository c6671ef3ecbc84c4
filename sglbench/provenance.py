"""Where a run was made: hardware, BLAS, interpreter, libraries and commit."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  loads scipy's BLAS, so its thread count is reported


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS copy loaded in this process (numpy's, scipy's)."""
    threads: dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return threads
    getters = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "scipy_openblas_get_num_threads64_",
    )
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for getter in getters:
            function = getattr(handle, getter, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads[Path(library).name] = int(function())
                break
    return threads


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": "unknown", "dirty": None}
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, env=env, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def provenance(root: Path) -> dict:
    """Everything a reader needs to tell whether two runs are comparable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_git(root),
    }


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs: time the hypervisor gave to others while
    this machine's CPUs wanted to run, and all time."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(since: tuple[int, int]) -> float:
    """Share of all CPU time stolen since an earlier :func:`cpu_ticks` reading."""
    steal, total = cpu_ticks()
    return (steal - since[0]) / max(total - since[1], 1)

"""Scoped single-threaded OpenBLAS for the learner's small dense kernels.

The warm Step-2 refresh calls BLAS/LAPACK on tall-skinny ``N x ~30`` blocks
(the QR of the Krylov tower and its projection ``Q^T (L Q)``) and on small
dense eigenproblems.  At those sizes
waking a second OpenBLAS thread costs more than it saves: a 10k-node fit
runs about twice as fast on one thread and learns the same graph.
:func:`single_threaded_blas` drops every loaded OpenBLAS copy to one thread
for the duration of a ``with`` block and puts the caller's counts back
afterwards.

The thread count is process-global state of OpenBLAS, so the scope is too:
while any caller is inside it, every thread of the process runs BLAS on one
thread.  Scopes nest and may be entered from several threads at once; the
first entry saves the counts, the last exit restores them.  Where no
OpenBLAS is loaded (another BLAS vendor, or no ``/proc/self/maps``) the
scope does nothing.

Examples
--------
>>> from repro.linalg.threads import blas_thread_counts, single_threaded_blas
>>> before = blas_thread_counts()
>>> with single_threaded_blas():
...     all(count == 1 for count in blas_thread_counts().values())
True
>>> blas_thread_counts() == before
True
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS, so discovery finds it

__all__ = ["OpenBLAS", "blas_thread_counts", "find_openblas", "openblas_libraries", "single_threaded_blas"]

#: (getter, setter) symbol pairs an OpenBLAS build may export.  The numpy and
#: scipy wheels prefix theirs with ``scipy_``; numpy's 64-bit-integer copy
#: adds the ``64_`` suffix.
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@dataclass(frozen=True)
class OpenBLAS:
    """One loaded OpenBLAS copy and its thread-count controls."""

    path: str
    _get: Callable[[], int] = field(repr=False)
    _set: Callable[[int], None] = field(repr=False)

    @property
    def name(self) -> str:
        return Path(self.path).name

    def get_num_threads(self) -> int:
        return int(self._get())

    def set_num_threads(self, count: int) -> None:
        self._set(int(count))


def find_openblas(paths: Iterable[str]) -> tuple[OpenBLAS, ...]:
    """The OpenBLAS copies among the shared libraries at ``paths``."""
    found = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append(OpenBLAS(path, getter, setter))
                break
    return tuple(found)


def _loaded_paths() -> list[str]:
    """Paths of the shared libraries mapped into this process named ``*openblas*``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            entries = [line.split(maxsplit=5) for line in handle]
    except OSError:
        return []
    paths = {parts[5].strip() for parts in entries if len(parts) == 6}
    return sorted(path for path in paths if "openblas" in Path(path).name.lower())


@lru_cache(maxsize=1)
def openblas_libraries() -> tuple[OpenBLAS, ...]:
    """Every OpenBLAS copy loaded in this process, discovered once."""
    return find_openblas(_loaded_paths())


def blas_thread_counts() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS copy, by library file name."""
    return {library.name: library.get_num_threads() for library in openblas_libraries()}


_lock = threading.Lock()
_depth = 0
_saved: list[tuple[OpenBLAS, int]] = []


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the ``with`` body with every OpenBLAS copy on one thread (see module docs)."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(library, library.get_num_threads()) for library in openblas_libraries()]
            for library, _ in _saved:
                library.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for library, count in _saved:
                    library.set_num_threads(count)
                _saved = []

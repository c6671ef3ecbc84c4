"""Background resource telemetry: RSS, GC activity, thread count.

A :class:`ResourceSampler` polls cheap process-level signals on a daemon
thread — resident set size (``/proc/self/statm`` where available, with a
:mod:`resource`-module fallback), cumulative garbage-collector collection
counts per generation, and the live thread count — and keeps a bounded list
of timestamped samples plus a JSON-ready :meth:`~ResourceSampler.summary`.

It is deliberately *not* a profiler: the point is to catch the shape of a
run (does RSS ramp during the fit? does the GC churn during serving?)
for a few samples per second of overhead, and to land that context next to
the trace and metrics artifacts ``repro.bench --trace`` writes.

Examples
--------
>>> from repro.obs import ResourceSampler
>>> with ResourceSampler(interval_s=0.01) as sampler:
...     _ = sum(range(100_000))
>>> summary = sampler.summary()
>>> summary["n_samples"] >= 1 and summary["rss_max_bytes"] > 0
True
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from pathlib import Path

__all__ = ["ResourceSampler", "rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Resident set size of this process in bytes (0 if undeterminable)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalise towards bytes.
        return int(peak) * (1 if peak > 1 << 32 else 1024)
    except Exception:  # pragma: no cover - platform without rusage
        return 0


def _gc_collections() -> list[int]:
    return [int(stat["collections"]) for stat in gc.get_stats()]


class ResourceSampler:
    """Sample process resources on a background daemon thread.

    Parameters
    ----------
    interval_s:
        Seconds between samples (default 0.25 — a few samples per second
        of traced work at negligible cost).
    max_samples:
        Bound on the kept sample list; once full, only the summary
        aggregates keep updating.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, interval_s: float = 0.25, *, max_samples: int = 10_000) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self.max_samples = int(max_samples)
        self.samples: list[dict] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._start_time: float | None = None
        self._gc_at_start: list[int] = []
        self._rss_max = 0

    # ------------------------------------------------------------------
    def _sample_once(self) -> None:
        now = time.perf_counter() - (self._start_time or 0.0)
        sample = {
            "t": now,
            "rss_bytes": rss_bytes(),
            "n_threads": threading.active_count(),
            "gc_collections": _gc_collections(),
        }
        with self._lock:
            self._rss_max = max(self._rss_max, sample["rss_bytes"])
            if len(self.samples) < self.max_samples:
                self.samples.append(sample)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample_once()

    def start(self) -> "ResourceSampler":
        """Begin sampling (idempotent)."""
        if self._thread is not None:
            return self
        self._start_time = time.perf_counter()
        self._gc_at_start = _gc_collections()
        self._stop.clear()
        self._sample_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and take one final sample (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self._sample_once()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready aggregate view of the collected samples."""
        with self._lock:
            samples = list(self.samples)
            rss_max = self._rss_max
        if not samples:
            return {"n_samples": 0}
        rss = [s["rss_bytes"] for s in samples]
        gc_end = samples[-1]["gc_collections"]
        gc_delta = [
            end - start for start, end in zip(self._gc_at_start, gc_end)
        ] if self._gc_at_start else gc_end
        return {
            "n_samples": len(samples),
            "duration_s": samples[-1]["t"] - samples[0]["t"],
            "rss_max_bytes": rss_max,
            "rss_mean_bytes": sum(rss) // len(rss),
            "rss_last_bytes": rss[-1],
            "gc_collections_delta": gc_delta,
            "threads_max": max(s["n_threads"] for s in samples),
        }

    def save(self, path: str | Path) -> Path:
        """Write ``{"summary": ..., "samples": [...]}`` as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            samples = list(self.samples)
        payload = {"summary": self.summary(), "samples": samples}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

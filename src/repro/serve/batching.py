"""Asyncio micro-batching: coalesce concurrent requests into grouped calls.

Serving effective-resistance queries one pair at a time wastes the dominant
cost structure of the backend — a multi-RHS Laplacian solve amortises its
factorisation traversal over the whole right-hand-side block, so ``B``
queries solved together cost far less than ``B`` queries solved alone.  The
:class:`MicroBatcher` implements the standard inference-serving answer:
requests arriving concurrently on the event loop are appended to a pending
bucket per batch key and flushed to a worker pool as a single handler call.
Callers receive per-request futures — the batching is invisible except in
throughput.

Flushing is **adaptive** (work-conserving) by default:

* a bucket flushes immediately when it reaches ``max_batch_size``;
* while a worker slot is free, the first request of a bucket schedules a
  flush on the *next event-loop tick* (so everything submitted in the same
  tick still coalesces) instead of arming the ``max_delay_s`` timer — an
  idle worker never waits out a deadline;
* only when every worker slot is busy does the deadline timer arm, and a
  finishing batch immediately flushes the longest-waiting bucket, so the
  *effective* deadline is "until a worker frees up", capped at
  ``max_delay_s``.  That is the concurrency-aware deadline: queue wait
  tracks load instead of being a constant tax.

``adaptive=False`` restores the classic flush-on-size-or-deadline batcher.

The request fast path is allocation-lean by design: :meth:`submit_nowait`
is a plain function returning an :class:`asyncio.Future`, so a caller
fanning out thousands of requests pays one future per request — not one
coroutine *and* one task per request, which is several times more event
-loop work (``await batcher.submit(...)`` remains as sugar).

The handler runs in an executor (default: a thread pool — the batched
numpy/BLAS/SuperLU work releases the GIL), keeping the event loop free to
keep accepting and coalescing requests while a batch computes.

Observability (:mod:`repro.obs`) is built in:

* every batch feeds fixed-bucket **histograms** on the batcher's
  :class:`~repro.obs.MetricsRegistry` — ``batcher.queue_wait_ms`` (submit
  to flush), ``batcher.pool_wait_ms`` (flush to handler start, i.e. the
  executor hop), ``batcher.execute_ms`` (handler run), ``batcher.latency_ms``
  (submit to result) and ``batcher.batch_size`` — plus per-key-label copies
  (``batcher.<label>.*``) when a ``key_label`` callable is given; handler
  exceptions increment ``batcher.errors`` (and ``batcher.failed_requests``
  per affected request) instead of failing silently;
* under an active :class:`~repro.obs.Tracer`, the handler runs inside a
  ``batch.execute`` span and each request gets a ``batch.request`` span
  parented to the *submitter's* span.  ``run_in_executor`` does not carry
  :mod:`contextvars` across the thread hop, so the batcher captures the
  flush-time :class:`contextvars.Context` and runs the handler inside it.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.obs.tracing import current_span, current_tracer, span as obs_span

__all__ = ["BatchStats", "MicroBatcher", "latency_percentiles_ms"]

#: Shared "no active tracer" parent marker — avoids a tuple allocation per
#: request on the untraced hot path.
_NO_PARENT: tuple = (None, None)


def latency_percentiles_ms(latencies: Sequence[float]) -> tuple[float, float]:
    """Nearest-rank p50/p99 of a latency sample, in milliseconds.

    Nearest-rank: the p-th percentile is the ``ceil(p * n)``-th smallest
    sample (1-indexed), so p99 of 100 samples is the 99th value — the
    second largest — not the maximum.  Shared by the serve benchmark's
    end-to-end latency summaries.

    Examples
    --------
    >>> from repro.serve.batching import latency_percentiles_ms
    >>> latency_percentiles_ms([i / 1000 for i in range(1, 101)])
    (50.0, 99.0)
    """
    if not latencies:
        raise ValueError("need at least one latency sample")
    ordered = sorted(latencies)
    n = len(ordered)
    p50 = ordered[max(0, -(-50 * n // 100) - 1)]
    p99 = ordered[max(0, -(-99 * n // 100) - 1)]
    return 1e3 * p50, 1e3 * p99


@dataclass
class BatchStats:
    """Counters describing how requests were coalesced.

    Latency distributions live in the attached
    :class:`~repro.obs.MetricsRegistry` (``metrics``) as fixed-bucket
    histograms; :meth:`as_dict` surfaces their p50/p99 under the same keys
    the old per-sample list produced, so downstream consumers are unchanged.
    """

    n_requests: int = 0
    n_batches: int = 0
    n_full_flushes: int = 0
    n_deadline_flushes: int = 0
    n_idle_flushes: int = 0
    n_drain_flushes: int = 0
    max_batch_size: int = 0
    batch_seconds: float = 0.0
    #: Registry holding the ``batcher.*`` histograms backing :meth:`as_dict`.
    metrics: MetricsRegistry | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced batch size."""
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    def record_batch(self, size: int, seconds: float, *, reason: str) -> None:
        """Account one flushed batch (``reason``: full/deadline/idle/drain)."""
        self.n_requests += size
        self.n_batches += 1
        self.max_batch_size = max(self.max_batch_size, size)
        self.batch_seconds += seconds
        if reason == "full":
            self.n_full_flushes += 1
        elif reason == "deadline":
            self.n_deadline_flushes += 1
        elif reason == "idle":
            self.n_idle_flushes += 1
        else:
            self.n_drain_flushes += 1

    def as_dict(self) -> dict:
        """JSON-ready summary (latency percentiles in milliseconds)."""
        out = {
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
            "n_full_flushes": self.n_full_flushes,
            "n_deadline_flushes": self.n_deadline_flushes,
            "n_idle_flushes": self.n_idle_flushes,
            "n_drain_flushes": self.n_drain_flushes,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "batch_seconds": self.batch_seconds,
        }
        if self.metrics is not None:
            snap = self.metrics.snapshot()["histograms"]
            latency = snap.get("batcher.latency_ms")
            if latency and latency["count"]:
                out["p50_ms"] = latency["p50"]
                out["p99_ms"] = latency["p99"]
            for stage in ("queue_wait", "pool_wait", "execute"):
                hist = snap.get(f"batcher.{stage}_ms")
                if hist and hist["count"]:
                    out[f"{stage}_mean_ms"] = hist["mean"]
                    out[f"{stage}_p99_ms"] = hist["p99"]
        return out


class _Pending:
    __slots__ = ("payloads", "futures", "submitted", "parents", "timer",
                 "scheduled")

    def __init__(self) -> None:
        self.payloads: list[Any] = []
        self.futures: list[asyncio.Future] = []
        self.submitted: list[float] = []
        #: ``(tracer, span)`` captured at submit time, per request, so the
        #: per-request ``batch.request`` span lands under the caller's span.
        self.parents: list[tuple[Any, Any]] = []
        self.timer: asyncio.TimerHandle | None = None
        #: Whether an idle-flush callback or deadline timer is armed.
        self.scheduled = False


class MicroBatcher:
    """Coalesce awaited single requests into batched handler calls.

    Parameters
    ----------
    handler:
        ``handler(key, payloads) -> sequence`` mapping a batch key and the
        list of coalesced payloads to one result per payload, in order.
        Runs inside ``executor`` — it must be thread-safe for distinct
        keys and must not touch the event loop.
    max_batch_size:
        Flush as soon as a bucket reaches this many requests.
    max_delay_s:
        Deadline cap: the longest a request waits for co-batching company
        while every worker slot is busy.  With ``adaptive=True`` (default)
        the deadline never applies while a worker is idle — the bucket
        flushes on the next loop tick instead.  0 still coalesces requests
        that arrive on the same loop tick.
    executor:
        Where handler batches run; ``None`` uses the loop's default
        thread pool.
    concurrency:
        Worker slots the adaptive flusher assumes: while fewer than this
        many batches are in flight, a worker is considered idle.  Defaults
        to the executor's thread count when discoverable, else the stdlib
        default-pool size.
    adaptive:
        ``False`` restores the classic flush-on-size-or-deadline batcher
        (every non-full bucket waits out ``max_delay_s``).
    metrics:
        :class:`~repro.obs.MetricsRegistry` receiving the ``batcher.*``
        instruments; ``None`` creates a private one (always available as
        ``self.metrics``).
    key_label:
        Optional ``key -> str`` mapping a batch key to a short label; when
        given, per-label histogram copies (``batcher.<label>.*``) are
        recorded alongside the aggregate ones, so e.g. ``resistance`` and
        ``labels`` latencies stay distinguishable.

    Examples
    --------
    >>> import asyncio
    >>> from repro.serve.batching import MicroBatcher
    >>> def double(key, payloads):
    ...     return [2 * p for p in payloads]
    >>> async def run():
    ...     batcher = MicroBatcher(double, max_batch_size=8, max_delay_s=0.005)
    ...     results = await asyncio.gather(*(batcher.submit("x", i) for i in range(10)))
    ...     return results, batcher.stats.n_batches
    >>> results, n_batches = asyncio.run(run())
    >>> results == [2 * i for i in range(10)] and n_batches <= 3
    True
    """

    def __init__(
        self,
        handler: Callable[[Hashable, list], Sequence],
        *,
        max_batch_size: int = 64,
        max_delay_s: float = 0.002,
        executor: Executor | None = None,
        concurrency: int | None = None,
        adaptive: bool = True,
        metrics: MetricsRegistry | None = None,
        key_label: Callable[[Hashable], str] | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if concurrency is None:
            # ThreadPoolExecutor exposes its width; the loop's default pool
            # (executor=None) uses the stdlib sizing rule.
            concurrency = getattr(executor, "_max_workers", None) or min(
                32, (os.cpu_count() or 1) + 4
            )
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self._handler = handler
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self._executor = executor
        self.concurrency = int(concurrency)
        self.adaptive = bool(adaptive)
        self._active = 0  # batches flushed but not yet finished
        self._pending: dict[Hashable, _Pending] = {}
        self._inflight: set[asyncio.Task] = set()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._key_label = key_label
        self.stats = BatchStats(metrics=self.metrics)

    # ------------------------------------------------------------------
    def submit_nowait(self, key: Hashable, payload: Any) -> asyncio.Future:
        """Enqueue one request under ``key``; returns its result future.

        This is the serving hot path: a plain function call returning an
        :class:`asyncio.Future`, cheap enough to fan out tens of thousands
        of times per second (``asyncio.gather`` awaits bare futures without
        wrapping each in a task).  Must be called on the event loop thread.
        """
        loop = asyncio.get_running_loop()
        bucket = self._pending.get(key)
        if bucket is None:
            bucket = self._pending[key] = _Pending()
        future = loop.create_future()
        bucket.payloads.append(payload)
        bucket.futures.append(future)
        bucket.submitted.append(time.perf_counter())
        tracer = current_tracer()
        bucket.parents.append(
            _NO_PARENT if tracer is None else (tracer, current_span())
        )
        if len(bucket.payloads) >= self.max_batch_size:
            self._flush(key, "full")
        elif not bucket.scheduled:
            bucket.scheduled = True
            if self.adaptive and self._active < self.concurrency:
                # A worker slot is free: flush on the next tick so requests
                # submitted in the same tick still coalesce, but nobody
                # waits out a deadline for company that is not coming.
                loop.call_soon(self._flush_bucket, key, bucket, "idle")
            else:
                bucket.timer = loop.call_later(
                    self.max_delay_s, self._flush_bucket, key, bucket,
                    "deadline",
                )
        return future

    async def submit(self, key: Hashable, payload: Any) -> Any:
        """Enqueue one request under ``key``; await its individual result."""
        return await self.submit_nowait(key, payload)

    def _flush_bucket(self, key: Hashable, bucket: _Pending, reason: str) -> None:
        """Flush ``bucket`` if it is still the pending bucket for ``key``.

        A scheduled idle flush (or a deadline timer) can race a size-cap
        flush that already replaced the bucket under the same key; passing
        the bucket identity makes the stale callback a no-op.
        """
        if self._pending.get(key) is bucket:
            self._flush(key, reason)

    def _flush(self, key: Hashable, reason: str) -> None:
        bucket = self._pending.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        loop = asyncio.get_running_loop()
        self._active += 1
        task = loop.create_task(self._run_batch(key, bucket, reason))
        # Keep a reference so the task is not garbage collected mid-flight.
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _kick(self) -> None:
        """A worker slot freed: flush waiting buckets into it immediately."""
        while self.adaptive and self._active < self.concurrency and self._pending:
            self._flush(next(iter(self._pending)), "idle")

    def _dispatch(self, key: Hashable, payloads: list) -> tuple:
        """Run the handler on the worker thread, timing its actual window.

        Invoked through a :class:`contextvars.Context` captured at flush
        time, so the ambient tracer — which ``run_in_executor`` would drop —
        is live here and the ``batch.execute`` span nests where it belongs.
        """
        started = time.perf_counter()
        with obs_span(
            "batch.execute", batch_size=len(payloads), key=self._label(key)
        ):
            results = self._handler(key, payloads)
        return results, started, time.perf_counter()

    def _label(self, key: Hashable) -> str:
        if self._key_label is not None:
            try:
                return str(self._key_label(key))
            except Exception:  # labels are best-effort; never fail a batch
                return "unknown"
        return str(key)

    async def _run_batch(self, key: Hashable, bucket: _Pending, reason: str) -> None:
        loop = asyncio.get_running_loop()
        flushed = time.perf_counter()
        context = contextvars.copy_context()
        try:
            results, started, executed = await loop.run_in_executor(
                self._executor, context.run, self._dispatch, key, bucket.payloads
            )
            if len(results) != len(bucket.payloads):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results "
                    f"for {len(bucket.payloads)} payloads"
                )
        except Exception as exc:  # propagate to every waiter, visibly
            self.metrics.counter("batcher.errors").inc()
            self.metrics.counter("batcher.failed_requests").inc(
                len(bucket.futures)
            )
            for future in bucket.futures:
                if not future.done():
                    future.set_exception(exc)
            self._active -= 1
            self._kick()
            return
        finished = time.perf_counter()
        self.stats.record_batch(
            len(bucket.payloads), finished - flushed, reason=reason
        )
        self._observe(key, bucket, flushed, started, executed, finished)
        for future, result in zip(bucket.futures, results):
            if not future.done():
                future.set_result(result)
        self._active -= 1
        self._kick()

    def _observe(
        self,
        key: Hashable,
        bucket: _Pending,
        flushed: float,
        started: float,
        executed: float,
        finished: float,
    ) -> None:
        """Feed the batch's timing breakdown into metrics and the trace."""
        label = self._label(key) if self._key_label is not None else None
        prefixes = ["batcher"] if label is None else ["batcher", f"batcher.{label}"]
        size = len(bucket.payloads)
        submitted = np.asarray(bucket.submitted)
        queue_waits = 1e3 * (flushed - submitted)
        latencies = 1e3 * (finished - submitted)
        for prefix in prefixes:
            hist = self.metrics.histogram
            hist(f"{prefix}.pool_wait_ms").observe(1e3 * (started - flushed))
            hist(f"{prefix}.execute_ms").observe(1e3 * (executed - started))
            hist(
                f"{prefix}.batch_size", buckets=DEFAULT_SIZE_BUCKETS
            ).observe(size)
            hist(f"{prefix}.queue_wait_ms").observe_many(queue_waits)
            hist(f"{prefix}.latency_ms").observe_many(latencies)
        self.metrics.counter("batcher.requests").inc(size)
        self.metrics.counter("batcher.batches").inc()
        for submitted, (tracer, parent) in zip(bucket.submitted, bucket.parents):
            if tracer is None:
                continue
            tracer.record(
                "batch.request",
                submitted,
                finished,
                {
                    "key": label if label is not None else str(key),
                    "batch_size": size,
                    "queue_wait_ms": round(1e3 * (flushed - submitted), 4),
                    "pool_wait_ms": round(1e3 * (started - flushed), 4),
                    "execute_ms": round(1e3 * (executed - started), 4),
                },
                parent=parent,
            )

    async def drain(self) -> None:
        """Flush every pending bucket and wait for all in-flight batches."""
        for key in list(self._pending):
            self._flush(key, "drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def shutdown(self, exc: Exception | None = None) -> int:
        """Fail every pending, not-yet-flushed request; returns the count.

        A request submitted just before the owning service closes must not
        hang on a future nobody will ever resolve: every pending bucket's
        futures get ``exc`` (default: a :class:`RuntimeError`), the failures
        are counted under ``batcher.errors`` / ``batcher.failed_requests``,
        and the armed timers are cancelled.  In-flight batches (already on
        the executor) are unaffected — shut the executor down with
        ``wait=True`` to let them finish.  Idempotent.
        """
        error = exc if exc is not None else RuntimeError(
            "MicroBatcher shut down with pending requests"
        )
        failed = 0
        for key in list(self._pending):
            bucket = self._pending.pop(key)
            if bucket.timer is not None:
                bucket.timer.cancel()
            for future in bucket.futures:
                if future.done():
                    continue
                try:
                    future.set_exception(error)
                    if future.get_loop().is_closed():
                        # Nobody can await this future any more; mark the
                        # exception retrieved so GC does not log it.
                        future.exception()
                except RuntimeError:  # pragma: no cover - loop torn down
                    pass
                failed += 1
        if failed:
            self.metrics.counter("batcher.errors").inc()
            self.metrics.counter("batcher.failed_requests").inc(failed)
        return failed

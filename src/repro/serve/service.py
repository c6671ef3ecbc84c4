"""The query-serving front end: LRU session cache + micro-batched dispatch.

:class:`GraphService` is the piece a server process holds on to.  It owns

* an **LRU session cache** — artifact path -> :class:`~repro.serve.
  GraphSession`, keyed by the artifact's payload *checksum* (the same model
  reached through two paths shares one session), bounded by
  ``max_sessions`` with least-recently-used eviction (evicting a session
  drops its Laplacian factorisation and index).  The query path trusts the
  path -> checksum mapping established at first load; a file replaced
  on disk is picked up by the next :meth:`~GraphService.warm` call (the
  TCP protocol exposes a ``warm`` request for exactly this), which also
  *invalidates* the superseded session so a re-saved path can never keep
  serving the stale model, and :meth:`~GraphService.invalidate` drops a
  mapping explicitly.  With a :class:`~repro.artifacts.ModelRegistry`
  attached, ``name@version`` references resolve through the registry and
  :meth:`~GraphService.follow` hot-swaps to newly published versions
  without dropping in-flight queries;
* one :class:`~repro.serve.MicroBatcher` — concurrent ``query()`` calls
  against the same ``(session, kind, options)`` signature coalesce into one
  batched session call, executed on the **compute pool**;
* a separate single-purpose **loader pool** — multi-second cold artifact
  loads (a ``query()`` cache miss, a TCP ``warm``) run there, so loading
  and factorising a model can never starve the threads that execute
  batches.  Before the split, one slow ``warm`` froze every in-flight
  query behind it.

The query hot path is deliberately cheap: :meth:`GraphService.query` is a
plain function returning an awaitable — an :class:`asyncio.Future` on the
cache-hit path — so fanning out tens of thousands of concurrent requests
costs one future each instead of one coroutine + task each.  Batch keys
normalise option defaults (an explicit ``k=5`` and an omitted ``k`` are the
*same* signature), so identical queries never fragment into separate
batches.

Query kinds map 1:1 onto the session's batched primitives:

===============  ==========================  ===============================
kind             payload (one request)       result (one request)
===============  ==========================  ===============================
``resistance``   ``(s, t)`` node pair        effective resistance (float)
``neighbors``    node id                     ``k`` nearest node ids
``labels``       node id                     spectral-cluster label (int)
===============  ==========================  ===============================

Results are returned as numpy scalars / row views — the wire boundary
(:func:`serve_forever`) converts them once per response, either to JSON or
to a raw little-endian buffer on the binary frame path (see
:mod:`repro.serve.frames`), instead of boxing every value eagerly.

:func:`serve_forever` speaks two protocols on the same port, sniffed per
message: newline-delimited JSON (one request object per line) and the
length-prefixed binary frame format of :mod:`repro.serve.frames`
(JSON metadata, with array results shipped as raw numpy bytes).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.artifacts.registry import is_model_ref
from repro.artifacts.store import load_result
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span as obs_span
from repro.serve.batching import MicroBatcher
from repro.serve.frames import FRAME_MAGIC, FrameError, read_frame_body, write_frame
from repro.serve.session import GraphSession

__all__ = ["GraphService", "ServiceClosedError", "jsonable", "serve_forever"]

_KINDS = ("resistance", "neighbors", "labels")

#: Per-kind option defaults.  These are *normalised into the batch key*:
#: ``query(..., "neighbors", n)`` and ``query(..., "neighbors", n, k=5)``
#: produce the identical key and coalesce into one batch.
_OPTION_DEFAULTS: dict[str, dict[str, int]] = {
    "resistance": {},
    "neighbors": {"k": 5},
    "labels": {"n_clusters": 8},
}
_DEFAULT_KEYS = {
    kind: tuple(sorted(defaults.items()))
    for kind, defaults in _OPTION_DEFAULTS.items()
}


class ServiceClosedError(RuntimeError):
    """Raised by queries submitted to (or stranded in) a closed service."""


def _check_node(node, n_nodes: int) -> None:
    # bool is an int subclass, but True is not a node id.
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
        raise ValueError(f"node ids must be integers, got {node!r}")
    if not 0 <= node < n_nodes:
        raise ValueError(f"node id {node} out of range for {n_nodes} nodes")


def _check_payload(kind: str, payload, n_nodes: int) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid ``kind`` query.

    Runs per request, before the request joins a batch, so one bad payload
    fails only its own request and never truncates silently (the batch
    casts payloads to ``int64``).
    """
    if kind != "resistance":
        _check_node(payload, n_nodes)
        return
    if not isinstance(payload, (tuple, list, np.ndarray)) or len(payload) != 2:
        raise ValueError(f"a resistance query takes one (s, t) pair, got {payload!r}")
    _check_node(payload[0], n_nodes)
    _check_node(payload[1], n_nodes)


def _json_default(value):
    """``json.dumps(..., default=...)`` hook for numpy scalars and arrays."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serializable"
    )


def jsonable(value):
    """Recursively coerce numpy scalars/arrays to JSON-ready builtins.

    Session statistics legitimately carry numpy scalars (counter sums,
    array-derived sizes); ``json.dumps`` raises on ``np.int64``.  This is
    the boundary coercion applied to every stats payload before it leaves
    the process.
    """
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (np.integer, np.floating, np.bool_, np.ndarray)):
        return _json_default(value)
    return value


class GraphService:
    """Micro-batched query service over a bounded cache of loaded models.

    Parameters
    ----------
    max_sessions:
        LRU capacity: how many loaded models (factorisations + indexes) are
        kept warm at once.
    max_batch_size, max_delay_s:
        Coalescing knobs forwarded to the :class:`~repro.serve.MicroBatcher`
        (flush on size, on worker-idle, or on deadline — see ``adaptive``).
    max_workers:
        Compute threads executing batched session calls.
    loader_workers:
        Threads of the dedicated artifact-loading pool (cache-miss loads
        and TCP ``warm`` requests); kept separate so a multi-second cold
        load cannot starve the compute pool.
    adaptive_flush:
        Forwarded to the batcher: flush as soon as a compute worker is
        idle instead of always waiting out ``max_delay_s`` (default True).
    metrics:
        :class:`~repro.obs.MetricsRegistry` the service (and its batcher)
        records into; ``None`` creates a private one.  Always available as
        ``service.metrics``; a snapshot rides along in :meth:`stats`, so
        the TCP ``stats`` request exposes it remotely.
    registry:
        Optional :class:`~repro.artifacts.ModelRegistry`.  When given,
        ``name@version`` / ``name@latest`` / ``name@tag`` references are
        accepted wherever an artifact path is (``query``, ``warm``, the TCP
        protocol) and resolve through the registry index; :meth:`follow`
        polls a reference and hot-swaps to new versions as they publish.
    mmap_mode:
        Forwarded to :func:`~repro.artifacts.load_result`; ``"r"``
        memory-maps the read-only model arrays of uncompressed artifacts
        instead of copying them into RAM (large models load in
        milliseconds; the OS pages data in on demand).

    Examples
    --------
    >>> import asyncio, tempfile, os
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.artifacts import save_result
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.serve import GraphService
    >>> data = simulate_measurements(grid_2d(6, 6), n_measurements=30, seed=0)
    >>> path = os.path.join(tempfile.mkdtemp(), "grid.npz")
    >>> _ = save_result(learn_graph(data, beta=0.05), path)
    >>> service = GraphService(max_batch_size=16, max_delay_s=0.002)
    >>> async def run():
    ...     pairs = [(0, 35), (1, 7), (3, 3)]
    ...     return await asyncio.gather(
    ...         *(service.query(path, "resistance", pair) for pair in pairs)
    ...     )
    >>> resistances = asyncio.run(run())
    >>> len(resistances), float(resistances[2])
    (3, 0.0)
    >>> service.stats()["sessions"]["loaded"]
    1
    """

    def __init__(
        self,
        *,
        max_sessions: int = 4,
        max_batch_size: int = 64,
        max_delay_s: float = 0.002,
        max_workers: int = 2,
        loader_workers: int = 1,
        adaptive_flush: bool = True,
        metrics: MetricsRegistry | None = None,
        registry=None,
        mmap_mode: str | None = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if loader_workers < 1:
            raise ValueError("loader_workers must be at least 1")
        self._max_sessions = int(max_sessions)
        self._sessions: OrderedDict[str, GraphSession] = OrderedDict()
        self._path_keys: dict[str, str] = {}
        self._ref_paths: dict[str, str] = {}  # registry reference -> resolved path
        self._norm_paths: dict = {}  # raw path argument -> normalised str
        # Guards _sessions/_path_keys/_loads/_evictions: the event loop's
        # cache-hit path and loader-thread cold loads touch them
        # concurrently.  Never held while loading or factorising a model.
        self._cache_lock = threading.Lock()
        self._registry = registry
        self._mmap_mode = mmap_mode
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve-compute"
        )
        self._loader = ThreadPoolExecutor(
            max_workers=loader_workers, thread_name_prefix="repro-serve-loader"
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._batcher = MicroBatcher(
            self._run_batch,
            max_batch_size=max_batch_size,
            max_delay_s=max_delay_s,
            executor=self._executor,
            concurrency=max_workers,
            adaptive=adaptive_flush,
            metrics=self.metrics,
            # Batch keys are (checksum, kind, options); the query kind is
            # the natural per-histogram label (batcher.resistance.*, ...).
            key_label=lambda key: key[1],
        )
        # The hot path touches these once per request; resolving the
        # instrument names every time would put a registry lookup on the
        # event loop's critical path.
        self._hits = self.metrics.counter("serve.cache.hits")
        self._misses = self.metrics.counter("serve.cache.misses")
        self._evictions = 0
        self._loads = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Session cache
    # ------------------------------------------------------------------
    def _norm_path(self, path) -> str:
        """Normalised string form of ``path``, memoised per raw argument.

        ``str(Path(path))`` costs ~2 µs — enough to dominate a hot loop at
        100k q/s — so the mapping is cached (bounded; a service sees few
        distinct path spellings).
        """
        cached = self._norm_paths.get(path)
        if cached is None:
            cached = str(Path(path))
            if len(self._norm_paths) >= 4096:
                self._norm_paths.clear()
            self._norm_paths[path] = cached
        return cached

    def _set_cache_gauge(self, loaded: int) -> None:
        self.metrics.gauge("serve.cache.sessions").set(loaded)

    def _resolve(self, target: str) -> str:
        """Resolve a registry reference to its artifact path (no-op for paths).

        ``name@latest`` and friends re-read the registry index first, so a
        version published by another process (the stream loop) is visible to
        the very next ``warm``.
        """
        if self._registry is not None and is_model_ref(target):
            self._registry.reload()
            return str(self._registry.resolve(target))
        return target

    def _remember_resolved(self, target: str, file_path: str, checksum: str) -> int:
        """Key ``target`` and the file it resolved to to ``checksum``.

        When a registry reference has moved on to another version, the
        superseded version's path key goes first; otherwise it would keep
        the superseded session referenced, and so loaded, until evicted.
        Returns the number of sessions dropped.
        """
        if file_path == target:
            return self._remember(target, checksum)
        moved_from = self._ref_paths.get(target)
        self._ref_paths[target] = file_path
        if moved_from not in (None, file_path) and moved_from not in self._ref_paths.values():
            self._path_keys.pop(moved_from, None)
        return self._remember(target, checksum) + self._remember(file_path, checksum)

    def _remember(self, key: str, checksum: str) -> int:
        """Map ``key`` -> ``checksum`` (cache lock held by the caller).

        When the key previously pointed at a *different* model and no other
        key still references the old session, the old session is dropped —
        this is the invalidation that keeps a re-saved path or republished
        reference from silently serving the stale version.  In-flight
        batches hold their own session reference and finish unaffected.
        Returns the number of sessions dropped (0 or 1).
        """
        old = self._path_keys.get(key)
        self._path_keys[key] = checksum
        if old is None or old == checksum or old in self._path_keys.values():
            return 0
        return 1 if self._sessions.pop(old, None) is not None else 0

    def warm(self, path: str | Path) -> GraphSession:
        """Load an artifact (or registry reference) into the session cache.

        Always re-resolves the reference and re-reads (and re-validates)
        the file, so ``warm`` is also how a replaced artifact under a known
        path — or a newly published registry version — gets picked up; the
        superseded session is invalidated in the same step.  When the new
        graph only rescales the superseded one, the new session shares its
        resistance engine and label cache (see :class:`GraphSession`'s
        ``previous``) and ``serve.cache.rescaled`` counts it.  Returns the
        (possibly pre-existing) session, so it doubles as the synchronous
        entry point for in-process callers that want the session object.
        """
        target = self._norm_path(path)
        file_path = self._resolve(target)
        artifact = load_result(file_path, mmap_mode=self._mmap_mode)
        checksum = artifact.checksum
        stale = 0
        with self._cache_lock:
            cached = self._sessions.get(checksum)
            if cached is not None:
                self._sessions.move_to_end(checksum)
                stale += self._remember_resolved(target, file_path, checksum)
            # The session this key served until now: a rescale-only new
            # version shares its resistance engine and label cache.
            previous = self._sessions.get(self._path_keys.get(target))
            loaded = len(self._sessions)
        if cached is not None:
            self._set_cache_gauge(loaded)
            if stale:
                self.metrics.counter("serve.cache.invalidations").inc(stale)
            return cached
        # Build outside the lock — factorising can take seconds.  Two
        # concurrent cold loads of the same model may both build; the
        # loser's session is discarded below, which only wastes work.
        session = GraphSession(artifact, previous=previous)
        evicted = 0
        with self._cache_lock:
            existing = self._sessions.get(checksum)
            if existing is not None:
                # Lost the build race: adopt the winner's session.
                self._sessions.move_to_end(checksum)
                session = existing
            else:
                self._sessions[checksum] = session
                self._loads += 1
            stale += self._remember_resolved(target, file_path, checksum)
            if existing is None:
                while len(self._sessions) > self._max_sessions:
                    evicted_key, _ = self._sessions.popitem(last=False)
                    for p in [
                        p for p, c in self._path_keys.items() if c == evicted_key
                    ]:
                        del self._path_keys[p]
                    self._evictions += 1
                    evicted += 1
            loaded = len(self._sessions)
        # The gauge mirrors the cache on *every* exit path (fresh load,
        # lost race, evictions) — a stale gauge after evict-then-rewarm
        # was exactly the bug this guards against.
        self._set_cache_gauge(loaded)
        if existing is None:
            self.metrics.counter("serve.cache.loads").inc()
            if session.derived_from is not None:
                self.metrics.counter("serve.cache.rescaled").inc()
        if evicted:
            self.metrics.counter("serve.cache.evictions").inc(evicted)
        if stale:
            self.metrics.counter("serve.cache.invalidations").inc(stale)
        return session

    def invalidate(self, path: str | Path) -> bool:
        """Forget the cached mapping for a path or reference.

        The next query through this key reloads from disk.  The session
        object itself is dropped when no other key still references it;
        in-flight batches hold their own reference and finish unaffected.
        Returns whether a mapping existed.
        """
        target = self._norm_path(path)
        with self._cache_lock:
            checksum = self._path_keys.pop(target, None)
            dropped = 0
            if (
                checksum is not None
                and checksum not in self._path_keys.values()
                and self._sessions.pop(checksum, None) is not None
            ):
                dropped = 1
            loaded = len(self._sessions)
        self._set_cache_gauge(loaded)
        if dropped:
            self.metrics.counter("serve.cache.invalidations").inc(dropped)
        return checksum is not None

    async def follow(
        self,
        ref: str,
        *,
        poll_interval: float = 1.0,
        stop: "asyncio.Event | None" = None,
        on_swap=None,
    ) -> None:
        """Hot-follow a registry reference, swapping as versions publish.

        Re-resolves ``ref`` (e.g. ``"online@latest"``) every
        ``poll_interval`` seconds.  When it resolves to a new artifact the
        session is built on the loader pool and the reference mapping is
        swapped under the cache lock, so queries addressed to ``ref`` move
        to the new version atomically: requests already batched finish on
        the session object they hold, later ones see the new model — no
        request ever fails because of the swap.  ``on_swap(session)`` is
        called after each swap (the initial load included); ``stop`` ends
        the loop.  A reference that does not resolve yet (name not
        published) is retried, so a follower may start before the first
        publish.
        """
        if self._registry is None:
            raise ValueError("follow() requires a GraphService(registry=...)")
        loop = asyncio.get_running_loop()
        current: str | None = None
        while not self._closed and (stop is None or not stop.is_set()):
            try:
                session = await loop.run_in_executor(self._loader, self.warm, ref)
            except Exception:
                # Not published yet, torn read, transient IO — retry.
                self.metrics.counter("serve.follow.errors").inc()
            else:
                if session.checksum != current:
                    current = session.checksum
                    self.metrics.counter("serve.follow.swaps").inc()
                    if on_swap is not None:
                        on_swap(session)
            if stop is None:
                await asyncio.sleep(poll_interval)
            else:
                try:
                    await asyncio.wait_for(stop.wait(), timeout=poll_interval)
                except asyncio.TimeoutError:
                    pass

    def session(self, path: str | Path) -> GraphSession:
        """The cached session for ``path``, loading it on first use.

        The cache hit path trusts the path -> checksum mapping established
        by the first load; re-reading the checksum from disk on every query
        would defeat the cache.  Call :meth:`warm` to re-validate a path
        whose file may have been replaced.
        """
        path = self._norm_path(path)
        with self._cache_lock:
            key = self._path_keys.get(path)
            session = self._sessions.get(key) if key is not None else None
            if session is not None:
                self._sessions.move_to_end(key)
                return session
        return self.warm(path)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _option_key(self, kind: str, options: dict) -> tuple:
        """Batch-key tuple for ``options`` with defaults normalised in.

        An explicit default (``k=5``) and an omitted option must hash to
        the *same* key, or identical queries fragment into separate
        batches; unknown options are rejected instead of silently creating
        singleton batch signatures.
        """
        if not options:
            return _DEFAULT_KEYS[kind]
        defaults = _OPTION_DEFAULTS[kind]
        merged = dict(defaults)
        for name, value in options.items():
            if name not in defaults:
                raise ValueError(
                    f"unknown option {name!r} for query kind {kind!r}; "
                    f"available: {sorted(defaults) or 'none'}"
                )
            merged[name] = int(value)
        return tuple(sorted(merged.items()))

    def query(self, path: str | Path, kind: str, payload, **options):
        """Submit one request; it is micro-batched with concurrent peers.

        ``kind`` is one of ``resistance`` / ``neighbors`` / ``labels``;
        ``options`` become part of the batch signature (``k=...`` for
        neighbours, ``n_clusters=...`` for labels) with defaults normalised
        in, so requests that *mean* the same thing share a batch.

        Returns an awaitable — an :class:`asyncio.Future` on the cache-hit
        fast path (no per-request coroutine or task), a coroutine when the
        session must first be loaded on the loader pool.  Awaiting it raises
        ``ValueError`` when ``payload`` is malformed: node ids must be
        integers (not ``bool``, ``float`` or ``str``) in ``[0, n_nodes)``,
        and a resistance payload is one ``(s, t)`` pair.  Only that request
        fails; the requests batched beside it are answered.  Must be called
        with a running event loop.  Results are numpy scalars / row views;
        convert at your boundary if you need builtins.
        """
        if kind not in _OPTION_DEFAULTS:
            raise ValueError(f"unknown query kind {kind!r}; available: {_KINDS}")
        if self._closed:
            raise ServiceClosedError("GraphService is closed")
        key_options = self._option_key(kind, options)
        path = self._norm_path(path)
        with self._cache_lock:
            checksum = self._path_keys.get(path)
            session = self._sessions.get(checksum) if checksum is not None else None
            if session is not None and len(self._sessions) > 1:
                # LRU touch matters only once something could be evicted.
                self._sessions.move_to_end(checksum)
        if session is None:
            self._misses.inc()
            return self._query_cold(path, kind, key_options, payload)
        # Relaxed: only the event-loop thread takes the hit path, and the
        # locked increment is measurable at 100k q/s.
        self._hits.inc_relaxed()
        try:
            _check_payload(kind, payload, session.n_nodes)
        except ValueError as exc:
            failed = asyncio.get_running_loop().create_future()
            failed.set_exception(exc)
            return failed
        return self._batcher.submit_nowait(
            (session.checksum, kind, key_options), (session, payload)
        )

    async def _query_cold(self, path: str, kind: str, key_options: tuple, payload):
        # Cache miss: loading + factorising a model can take seconds on
        # large graphs — run it on the dedicated loader pool so it cannot
        # starve the compute workers executing batches.
        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(self._loader, self.session, path)
        _check_payload(kind, payload, session.n_nodes)
        return await self._batcher.submit_nowait(
            (session.checksum, kind, key_options), (session, payload)
        )

    def _run_batch(self, key, payloads):
        _, kind, options = key
        options = dict(options)
        session: GraphSession = payloads[0][0]
        values = [payload for _, payload in payloads]
        if kind == "resistance":
            pairs = np.asarray(values, dtype=np.int64).reshape(-1, 2)
            raw = session.effective_resistance(pairs)
        elif kind == "neighbors":
            nodes = np.asarray(values, dtype=np.int64)
            _, raw = session.nearest_neighbors(nodes, k=options["k"])
        else:
            nodes = np.asarray(values, dtype=np.int64)
            raw = session.cluster_labels(nodes, n_clusters=options["n_clusters"])
        # Splitting the batch result into per-request values is the
        # "serialize" share of a batch.  It stays cheap on purpose: results
        # are handed back as numpy scalars / row views, and the *wire*
        # encoding (JSON text or zero-copy binary frames) happens once per
        # response at the protocol boundary, not once per value here.
        start = time.perf_counter()
        with obs_span("serialize", kind=kind, batch_size=len(values)):
            out = list(raw)
        self.metrics.histogram("serve.serialize_ms").observe(
            1e3 * (time.perf_counter() - start)
        )
        return out

    async def drain(self) -> None:
        """Flush pending batches and wait for in-flight work."""
        await self._batcher.drain()

    async def aclose(self) -> None:
        """Drain gracefully, then shut the pools down."""
        await self.drain()
        self.close()

    def close(self) -> None:
        """Shut down the service (idempotent).

        Queries that were submitted but not yet flushed fail with
        :class:`ServiceClosedError` instead of hanging on futures nobody
        will resolve; batches already in flight finish (the pools shut
        down with ``wait=True``).  Prefer :meth:`aclose` from async code
        to drain gracefully first.
        """
        self._closed = True
        self._batcher.shutdown(
            ServiceClosedError("GraphService closed with pending queries")
        )
        self._executor.shutdown(wait=True)
        self._loader.shutdown(wait=True)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service statistics: cache state, batching counters, per-session.

        Numpy scalars are coerced to builtins at this boundary, so the
        result is always ``json.dumps``-able (the TCP ``stats`` reply
        relies on that).
        """
        with self._cache_lock:
            sessions = dict(self._sessions)
            loads, evictions = self._loads, self._evictions
        return jsonable({
            "sessions": {
                "loaded": len(sessions),
                "capacity": self._max_sessions,
                "loads": loads,
                "evictions": evictions,
                "checksums": list(sessions),
            },
            "batching": self._batcher.stats.as_dict(),
            "per_session": {
                checksum: session.stats() for checksum, session in sessions.items()
            },
            "metrics": self.metrics.snapshot(),
        })


# ----------------------------------------------------------------------
# TCP front end: newline-delimited JSON and binary frames on one port
# ----------------------------------------------------------------------
async def _execute_request(
    service: GraphService, request: dict
) -> tuple[dict, np.ndarray | None]:
    """Run one request; returns ``(response_meta, array_result_or_None)``.

    Array-valued results (resistance / neighbors / labels) come back as a
    numpy array so the caller picks the wire encoding: ``.tolist()`` into
    the JSON reply, or the raw buffer on the binary frame path.
    """
    kind = request.get("kind")
    if kind == "stats":
        return {"ok": True, "result": service.stats()}, None
    if kind != "warm" and kind not in _KINDS:
        raise ValueError(f"unknown request kind {kind!r}")
    path = request.get("artifact")
    if not isinstance(path, str):
        raise ValueError("request must carry an 'artifact' path")
    if kind == "warm":
        # Re-read + re-validate the file (picks up a replaced artifact);
        # the load runs on the loader pool, off the event loop and away
        # from the compute workers.
        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(service._loader, service.warm, path)
        return {"ok": True, "result": jsonable(session.stats())}, None
    if kind == "resistance":
        pairs = request.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            raise ValueError("'resistance' requests need a non-empty 'pairs' list")
        results = await asyncio.gather(
            *(service.query(path, "resistance", pair) for pair in pairs)
        )
        return {"ok": True}, np.asarray(results, dtype=np.float64)
    if kind == "neighbors":
        nodes = request.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ValueError("'neighbors' requests need a non-empty 'nodes' list")
        k = int(request.get("k", 5))
        results = await asyncio.gather(
            *(service.query(path, "neighbors", node, k=k) for node in nodes)
        )
        return {"ok": True}, np.asarray(results, dtype=np.int64)
    if kind == "labels":
        nodes = request.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ValueError("'labels' requests need a non-empty 'nodes' list")
        n_clusters = int(request.get("n_clusters", 8))
        results = await asyncio.gather(
            *(
                service.query(path, "labels", node, n_clusters=n_clusters)
                for node in nodes
            )
        )
        return {"ok": True}, np.asarray(results, dtype=np.int64)
    raise AssertionError(f"unhandled request kind {kind!r}")  # pragma: no cover


async def _serve_json_message(
    service: GraphService,
    line: bytes,
    writer: asyncio.StreamWriter,
) -> None:
    request: dict | None = None
    try:
        decoded = json.loads(line)
        if not isinstance(decoded, dict):
            raise ValueError("request must be a JSON object")
        request = decoded
        response, array = await _execute_request(service, request)
    except Exception as exc:  # protocol errors go back to the client
        response, array = {"ok": False, "error": str(exc)}, None
    if request is not None and "id" in request:
        response["id"] = request["id"]
    encode_start = time.perf_counter()
    if array is not None:
        response["result"] = array.tolist()
    encoded = json.dumps(response, default=_json_default).encode("utf-8") + b"\n"
    service.metrics.histogram("serve.tcp.serialize_ms").observe(
        1e3 * (time.perf_counter() - encode_start)
    )
    service.metrics.counter("serve.tcp.requests").inc()
    writer.write(encoded)
    await writer.drain()


async def _serve_binary_message(
    service: GraphService,
    first_byte: bytes,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    request, _ = await read_frame_body(reader, first=first_byte)
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be an object")
        response, array = await _execute_request(service, request)
    except Exception as exc:
        response, array = {"ok": False, "error": str(exc)}, None
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    encode_start = time.perf_counter()
    # Zero-copy on the result: the numpy buffer goes to the transport as a
    # memoryview — no per-value boxing, no text encoding.
    write_frame(writer, response, array=array)
    service.metrics.histogram("serve.tcp.serialize_ms").observe(
        1e3 * (time.perf_counter() - encode_start)
    )
    service.metrics.counter("serve.tcp.requests").inc()
    service.metrics.counter("serve.tcp.binary_frames").inc()
    await writer.drain()


async def _client_connected(
    service: GraphService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            # Sniff the protocol per message: binary frames open with the
            # magic byte pair, JSON lines with '{' (or whitespace).  One
            # connection may interleave both.
            first = await reader.read(1)
            if not first:
                break
            if first == FRAME_MAGIC[:1]:
                try:
                    await _serve_binary_message(service, first, reader, writer)
                except (FrameError, asyncio.IncompleteReadError) as exc:
                    write_frame(
                        writer, {"ok": False, "error": f"bad frame: {exc}"}
                    )
                    await writer.drain()
            else:
                line = first + await reader.readline()
                await _serve_json_message(service, line, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def serve_forever(
    service: GraphService,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    ready: "asyncio.Event | None" = None,
    bound_addresses: list | None = None,
) -> None:
    """Run the TCP server (JSON lines + binary frames) until cancelled.

    JSON protocol: one request per line, one JSON response per line
    (``{"ok": true, "result": ...}`` or ``{"ok": false, "error": "..."}``;
    an ``id`` field is echoed back).  Binary protocol: length-prefixed
    frames (:mod:`repro.serve.frames`) whose responses carry array results
    as raw numpy bytes — the format is sniffed per message from the first
    byte.  Every multi-item request fans out through the micro-batcher, so
    two clients querying the same model coalesce into shared solver
    batches.  ``ready`` (if given) is set once the socket is listening,
    after the actually bound ``(host, port)`` tuples have been appended to
    ``bound_addresses`` — lets tests bind port 0 and discover the
    kernel-assigned port.
    """
    server = await asyncio.start_server(
        lambda r, w: _client_connected(service, r, w), host, port
    )
    async with server:
        addresses = [sock.getsockname()[:2] for sock in server.sockets]
        if bound_addresses is not None:
            bound_addresses.extend(addresses)
        if ready is not None:
            ready.set()
        listening = ", ".join(f"{h}:{p}" for h, p in addresses)
        print(f"repro-serve listening on {listening}")
        await server.serve_forever()

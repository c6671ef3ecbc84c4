"""Batched query serving over persisted SGL model artifacts.

The ROADMAP's north star is a system that *serves* learned graphs, not one
that only learns them.  This package is that serving layer, built on the
divide between per-model precomputation and per-query work:

* :class:`GraphSession` — one loaded model: Laplacian factorised once,
  nearest-neighbour index over the stored spectral embedding built once,
  spectral-cluster labelings cached; answers **batched** effective-
  resistance, nearest-neighbour and cluster-label queries.  Resistance
  queries go through the exact tree-plus-low-rank
  :class:`ResistanceOracle` on tree-like graphs (SGL output always is) —
  no Laplacian solves at query time — with grouped multi-RHS solves as
  the general fallback;
* :class:`ShardedGraphSession` — the same query surface over a partition-
  parallel model directory (:mod:`repro.artifacts.sharded`): per-shard
  sessions answer same-shard queries exactly, a contracted boundary graph
  bridges cross-shard resistance queries;
* :class:`MicroBatcher` — asyncio request coalescing (flush on batch size
  or deadline, whichever first) feeding a worker pool;
* :class:`GraphService` — the front end: an LRU cache of sessions keyed by
  artifact checksum plus the micro-batched ``query()`` API, and
  :func:`serve_forever`, a newline-delimited JSON TCP server over it.

``repro-serve`` (see :mod:`repro.serve.cli`) exposes ``warm``, ``query``
and ``serve`` on the command line; ``sglbench/run.py --workload serve`` at
the repository root benchmarks the stack and checks every answer against
an independent scipy solve.
"""

from repro.serve.batching import BatchStats, MicroBatcher
from repro.serve.resistance import ResistanceOracle
from repro.serve.service import GraphService, serve_forever
from repro.serve.session import GraphSession
from repro.serve.sharded import ShardedGraphSession

__all__ = [
    "BatchStats",
    "GraphService",
    "GraphSession",
    "MicroBatcher",
    "ResistanceOracle",
    "ShardedGraphSession",
    "serve_forever",
]

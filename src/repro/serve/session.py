"""A loaded model ready to answer queries: factor once, serve many.

:class:`GraphSession` is the unit of serving state.  Building one from a
:class:`~repro.artifacts.ModelArtifact` pays every per-model cost exactly
once — the tree-plus-low-rank resistance oracle (or, on graphs that are
not tree-like, a grounded SuperLU factorisation built on first use), the
nearest-neighbour index over the stored spectral embedding, the per-``k``
spectral-cluster labelings — after which each query kind is a cheap batched
operation:

* **effective-resistance queries** run through the oracle, or through the
  grouped-RHS fast path (:func:`repro.metrics.effective_resistance_batched`):
  one multi-RHS triangular solve per batch instead of one solve per pair;
* **nearest-neighbour lookups** reuse :func:`repro.knn.backends.build_index`
  over the stored embedding (squared embedding distances approximate
  effective resistances, Eq. 13, so "nearest" means electrically closest);
* **cluster-label queries** hit a lazily computed, cached spectral
  clustering of the learned graph.

**Rescale-only versions.**  SGL's Step 5 multiplies every conductance by
one global factor, so most versions a stream publishes are the previous
graph times ``c``.  Such a graph has the same resistances times ``1/c``,
the same spectral clusters and the same embedding.  A session built with
``previous=`` checks the new graph against the graph the previous
session's state was built from (same ``n_nodes``, bit-equal canonical
``rows``/``cols``, every weight ratio within 16 ulp of one positive
``c``) and, when it holds, shares that state instead of
rebuilding it.  Every resistance answer is the shared answer divided by
``c`` — ``c = 1`` for a freshly built session — so there is one query path.

Sessions are deliberately synchronous and thread-compatible: the asyncio
front loop (:class:`repro.serve.GraphService`) coalesces requests into
batches and calls into the session from a worker pool.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np

from repro.artifacts.store import ModelArtifact, load_result
from repro.embedding.clustering import spectral_clustering
from repro.graphs.graph import WeightedGraph
from repro.knn.backends import build_index
from repro.linalg.solvers import LaplacianSolver
from repro.metrics.resistance import effective_resistance_batched
from repro.serve.resistance import ResistanceOracle

__all__ = ["GraphSession"]

#: How far, in units in the last place, each weight ratio ``new / base`` may
#: lie from the common factor for the new graph to count as a global rescale.
#: Step 5 multiplies weights that were themselves scaled, so two versions of
#: one topology differ by a spread of a few ulp (2 ulp on the ``stream``
#: benchmark); a genuine weight change moves a ratio by far more.
_SCALE_ULPS = 16


def _rescale_factor(base: WeightedGraph, graph: WeightedGraph) -> float | None:
    """``c`` when ``graph`` is ``base`` with every weight times one ``c > 0``.

    Returns ``None`` unless both graphs have the same node count, bit-equal
    canonical ``rows``/``cols`` arrays and every weight ratio within
    :data:`_SCALE_ULPS` ulp of one positive finite ``c``.  The check reads
    the edge arrays themselves — O(E) — and trusts no metadata.

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> graph = grid_2d(3, 3)
    >>> _rescale_factor(graph, graph.scaled(2.5))
    2.5
    >>> bumped = graph.weights.copy()
    >>> bumped[0] *= 1.0 + 1e-9
    >>> _rescale_factor(graph, graph.with_weights(bumped)) is None
    True
    """
    if (
        graph.n_nodes != base.n_nodes
        or graph.n_edges != base.n_edges
        or graph.n_edges == 0
        or not np.array_equal(graph.rows, base.rows)
        or not np.array_equal(graph.cols, base.cols)
    ):
        return None
    ratios = graph.weights / base.weights
    lo, hi = float(ratios.min()), float(ratios.max())
    factor = 0.5 * (lo + hi)
    if not (np.isfinite(factor) and factor > 0.0):
        return None
    if 0.5 * (hi - lo) > _SCALE_ULPS * float(np.spacing(factor)):
        return None
    return factor


class _ScaleBase:
    """Query state of one graph, shared by every session over a multiple of it.

    Holds the resistance engine (the oracle, or a Laplacian factorisation
    built on first use) and the per-``k`` label cache.  Both are exact for
    every graph ``c * graph``: resistances divide by ``c`` and spectral
    clusters do not move.
    """

    def __init__(
        self, graph: WeightedGraph, checksum: str, resistance_engine: str, seed
    ) -> None:
        self.graph = graph
        self.checksum = checksum
        self.oracle: ResistanceOracle | None = None
        if resistance_engine == "woodbury" or (
            resistance_engine == "auto" and ResistanceOracle.eligible(graph)
        ):
            self.oracle = ResistanceOracle(graph)
        self._seed = seed
        self._solver: LaplacianSolver | None = None
        self.labels: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def solver(self) -> LaplacianSolver:
        if self._solver is None:
            with self._lock:
                if self._solver is None:
                    self._solver = LaplacianSolver(self.graph)
        return self._solver

    def resistances(self, pairs: np.ndarray, block: int) -> np.ndarray:
        if self.oracle is not None:
            return self.oracle.query(pairs)
        return effective_resistance_batched(
            self.graph, pairs, solver=self.solver, block_size=block
        )

    def cluster_labels(self, n_clusters: int) -> np.ndarray:
        labels = self.labels.get(n_clusters)
        if labels is None:
            with self._lock:
                labels = self.labels.get(n_clusters)
                if labels is None:
                    labels = spectral_clustering(
                        self.graph, n_clusters, seed=self._seed
                    )
                    self.labels[n_clusters] = labels
        return labels


class _EmbeddingIndex:
    """The nearest-neighbour index over one stored embedding, built on first use."""

    def __init__(self, embedding: np.ndarray, backend: str, seed) -> None:
        self.embedding = embedding
        self._backend = backend
        self._seed = seed
        self._index = None
        self._lock = threading.Lock()

    def get(self):
        if self._index is None:
            with self._lock:
                if self._index is None:
                    self._index = build_index(
                        self.embedding, self._backend, seed=self._seed
                    )
        return self._index


class GraphSession:
    """Precomputed query state over one loaded model artifact.

    Parameters
    ----------
    artifact:
        A loaded :class:`~repro.artifacts.ModelArtifact` (see
        :meth:`from_file` to go straight from a path).
    knn_backend:
        Search backend for the embedding index
        (:func:`repro.knn.backends.build_index` names; default ``"auto"``).
    resistance_engine:
        ``"auto"`` (default) serves resistance queries through the exact
        tree-plus-low-rank :class:`~repro.serve.resistance.ResistanceOracle`
        whenever the graph is tree-like enough (SGL-learned graphs always
        are), falling back to grouped multi-RHS Laplacian solves otherwise;
        ``"woodbury"`` forces the oracle (raises on ineligible graphs);
        ``"grouped"`` forces the solver path.
    resistance_block:
        Right-hand sides per grouped Laplacian solve (fallback path).
    seed:
        Seed for the clustering k-means and any backend sampling.
    previous:
        The session this one replaces (what :meth:`GraphService.warm
        <repro.serve.GraphService.warm>` passes when a reference moves to a
        new version).  When the new graph is the graph behind
        ``previous``'s state times one positive factor, and the options
        match, the resistance engine and label cache are shared instead of
        rebuilt, and so is the embedding index if the stored embeddings are
        equal; :attr:`derived_from` and :attr:`scale` say what was shared.
        Any other artifact builds fresh.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.artifacts import save_result
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.serve import GraphSession
    >>> data = simulate_measurements(grid_2d(6, 6), n_measurements=30, seed=0)
    >>> path = os.path.join(tempfile.mkdtemp(), "grid.npz")
    >>> _ = save_result(learn_graph(data, beta=0.05), path)
    >>> session = GraphSession.from_file(path)
    >>> float(session.effective_resistance([(0, 0)])[0])
    0.0
    >>> session.nearest_neighbors([0], k=2)[1].shape
    (1, 2)
    >>> session.stats()["queries"]["resistance"]
    1
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        *,
        knn_backend: str = "auto",
        resistance_engine: str = "auto",
        resistance_block: int = 256,
        seed: int | None = 0,
        previous: "GraphSession | None" = None,
    ) -> None:
        if resistance_engine not in ("auto", "woodbury", "grouped"):
            raise ValueError(
                "resistance_engine must be 'auto', 'woodbury' or 'grouped'"
            )
        self.artifact = artifact
        self.graph = artifact.graph
        self.checksum = artifact.checksum
        self._options = (knn_backend, resistance_engine, int(resistance_block), seed)
        self._resistance_block = int(resistance_block)
        start = time.perf_counter()
        base = scale = None
        if previous is not None and previous._options == self._options:
            scale = _rescale_factor(previous._base.graph, self.graph)
            if scale is not None:
                base = previous._base
        if base is None:
            base, scale = _ScaleBase(self.graph, self.checksum, resistance_engine, seed), 1.0
        self._base = base
        #: This graph is the base graph times ``scale``.
        self.scale = scale
        #: Checksum of the artifact whose state this session shares (``None``
        #: when the session built its own).
        self.derived_from = None if base.graph is self.graph else base.checksum
        embedding = artifact.embedding
        self._index: _EmbeddingIndex | None = None
        if embedding is not None:
            if (
                self.derived_from is not None
                and previous._index is not None
                and np.array_equal(previous._index.embedding, embedding)
            ):
                self._index = previous._index
            else:
                self._index = _EmbeddingIndex(embedding, knn_backend, seed)
        self.factor_seconds = time.perf_counter() - start
        self._lock = threading.Lock()
        self._counters = {"resistance": 0, "neighbors": 0, "labels": 0}

    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: str | Path, **options) -> "GraphSession":
        """Load an artifact (validated) and build a session over it."""
        return cls(load_result(path), **options)

    @property
    def n_nodes(self) -> int:
        """Number of nodes of the served graph."""
        return self.graph.n_nodes

    @property
    def has_embedding(self) -> bool:
        """Whether embedding-backed queries (neighbours) are available."""
        return self._index is not None

    # ------------------------------------------------------------------
    def _embedding_index(self):
        if self._index is None:
            raise ValueError(
                "artifact was saved without an embedding; nearest-neighbour "
                "queries need save_result(..., include_embedding=True)"
            )
        return self._index.get()

    @property
    def resistance_engine(self) -> str:
        """The active resistance engine (``"woodbury"`` or ``"grouped"``)."""
        return "woodbury" if self._base.oracle is not None else "grouped"

    def effective_resistance(self, pairs: np.ndarray) -> np.ndarray:
        """Batched exact effective resistances ``R_eff(s, t)``.

        Through the tree-plus-low-rank oracle when active (no Laplacian
        solves at query time), otherwise one grouped multi-RHS solve per
        ``resistance_block`` pairs.  Either way the answer is the shared
        engine's answer divided by :attr:`scale`.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        out = self._base.resistances(pairs, self._resistance_block) / self.scale
        with self._lock:
            self._counters["resistance"] += pairs.shape[0]
        return out

    def nearest_nodes(
        self, vectors: np.ndarray, k: int = 5
    ) -> tuple[np.ndarray, np.ndarray]:
        """``k`` embedding-space nearest stored nodes of free query vectors.

        ``vectors`` is ``(q, r-1)`` in the stored embedding's coordinate
        system; returns ``(distances, node_ids)`` of shape ``(q, k)``.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        distances, indices = self._embedding_index().query(vectors, k)
        with self._lock:
            self._counters["neighbors"] += vectors.shape[0]
        return distances, indices

    def nearest_neighbors(
        self, nodes: np.ndarray, k: int = 5
    ) -> tuple[np.ndarray, np.ndarray]:
        """``k`` electrically-nearest *other* nodes of each given node.

        Queries the embedding index with the nodes' own embedding rows and
        drops each node from its own result row.  Returns
        ``(distances, node_ids)`` of shape ``(len(nodes), k)``.
        """
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.n_nodes):
            raise ValueError(f"node id out of range for {self.n_nodes} nodes")
        index = self._embedding_index()
        k = min(int(k), self.n_nodes - 1)
        if k < 1:
            raise ValueError("k must be at least 1")
        embedding = self.artifact.embedding
        distances, indices = index.query(embedding[nodes], k + 1)
        # Drop the query node from its own row — by id, not position: with
        # duplicated embedding rows the self-match need not come first.
        # Index ids are unique, so each row keeps exactly k (self found)
        # or k + 1 (self beyond the k+1 cut) candidates; truncate to k.
        out_d = np.empty((nodes.size, k))
        out_i = np.empty((nodes.size, k), dtype=np.int64)
        for row in range(nodes.size):
            keep = np.where(indices[row] != nodes[row])[0][:k]
            out_d[row] = distances[row, keep]
            out_i[row] = indices[row, keep]
        with self._lock:
            self._counters["neighbors"] += nodes.size
        return out_d, out_i

    def cluster_labels(
        self, nodes: np.ndarray | None = None, *, n_clusters: int = 8
    ) -> np.ndarray:
        """Spectral-cluster labels of ``nodes`` (all nodes when ``None``).

        The full labeling is computed once per ``n_clusters`` and cached;
        subsequent queries are array lookups.
        """
        if n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        n_clusters = min(n_clusters, self.n_nodes)
        labels = self._base.cluster_labels(n_clusters)
        if nodes is None:
            with self._lock:
                self._counters["labels"] += self.n_nodes
            return labels.copy()
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.n_nodes):
            raise ValueError(f"node id out of range for {self.n_nodes} nodes")
        with self._lock:
            self._counters["labels"] += nodes.size
        return labels[nodes]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Session statistics: model identity, sizes, per-kind query counts."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "checksum": self.checksum,
            "n_nodes": self.n_nodes,
            "n_edges": self.graph.n_edges,
            "has_embedding": self.has_embedding,
            "resistance_engine": self.resistance_engine,
            "factor_seconds": self.factor_seconds,
            "derived_from": self.derived_from,
            "scale": self.scale,
            "cluster_cache": sorted(self._base.labels),
            "queries": counters,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSession(checksum={self.checksum[:12]}..., "
            f"n_nodes={self.n_nodes}, n_edges={self.graph.n_edges})"
        )

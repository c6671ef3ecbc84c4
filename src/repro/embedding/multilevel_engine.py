"""Multilevel coarsen-solve-refine embedding engine for the SGL loop.

The second ``SGLConfig.embedding_engine`` mode, beside the warm-started
``"incremental"`` engine.  Where the incremental engine reuses
*eigenpairs* across densification iterations, this engine reuses the
*coarsening hierarchy*: heavy-edge matching — the expensive, sequential part
of a multilevel solve — is computed once and then kept while the SGL loop
adds its ``ceil(N beta)`` edges per iteration.  Every refresh

1. **coarsen**: Galerkin-reprojects the current graph through the stored
   matchings (one vectorised edge contraction per level, exact for the
   current Laplacian), re-running the matching itself only when the edge
   churn since the last build exceeds ``churn_threshold``;
2. **refine**: solves the dense eigenproblem on the coarsest level,
   prolongates through the hierarchy and refines per level with the
   preconditioned LOBPCG of :class:`~repro.linalg.MultilevelEigensolver`,
   warm-starting the finest level with the previous iteration's
   eigenvectors.

The two phases are timed into the ``coarsen`` and ``refine`` stages of the
learner's :class:`~repro.core.instrumentation.StageTimings`, so benchmark
artifacts break the multilevel embedding cost down the same way they split
``embedding`` / ``embedding_warm`` for the incremental engine.

Accuracy note: the refined eigenvectors are approximate (residuals around
``1e-3``-relative at default settings), which is embedding-grade — the
embedding only feeds a *ranking* of candidate edges, and the acceptance
benchmark requires the learned graph's resistance correlation to stay within
0.01 of an exact cold solve's.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Literal

import numpy as np

from repro.embedding.spectral import SpectralEmbedding, embedding_from_eigenpairs
from repro.graphs.graph import WeightedGraph
from repro.obs.tracing import set_attributes
from repro.linalg.coarsening import CoarseningHierarchy
from repro.linalg.eigen import laplacian_eigenpairs
from repro.linalg.multilevel import MultilevelEigensolver

__all__ = ["MultilevelEmbeddingEngine", "MultilevelEngineStats"]


@dataclass
class MultilevelEngineStats:
    """Per-refresh outcome counters of a :class:`MultilevelEmbeddingEngine`.

    Attributes
    ----------
    refreshes:
        Total :meth:`MultilevelEmbeddingEngine.refresh` calls.
    hierarchy_builds:
        Full coarsening builds (heavy-edge matching from scratch; always
        includes the first refresh on a large-enough graph).
    churn_rebuilds:
        Builds forced by edge churn exceeding the threshold (a subset of
        ``hierarchy_builds``).
    reprojections:
        Refreshes that reused the stored matchings and only Galerkin-
        reprojected the current graph through them.
    dense_solves:
        Refreshes on graphs too small to coarsen, served by a direct dense
        eigensolve.
    n_levels:
        Depth of the most recent hierarchy (0 for dense solves).
    """

    refreshes: int = 0
    hierarchy_builds: int = 0
    churn_rebuilds: int = 0
    reprojections: int = 0
    dense_solves: int = 0
    n_levels: int = 0

    def as_dict(self) -> dict:
        """JSON-ready mapping embedded in benchmark artifacts."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class MultilevelEmbeddingEngine:
    """Stateful coarsen-solve-refine spectral embedding engine.

    Parameters
    ----------
    r:
        Number of eigenvectors as in the paper (the embedding uses the
        ``r - 1`` nontrivial vectors ``u_2 .. u_r``).
    sigma_sq:
        Prior feature variance forwarded to the Eq. (12) scaling.
    coarse_size:
        Coarsen until the graph has at most this many nodes (the coarsest
        eigenproblem is solved densely).
    refinement_steps:
        Per-level refinement iterations for *cold* V-cycles (hierarchy
        builds and churn rebuilds; see
        :class:`~repro.linalg.MultilevelEigensolver`).
    warm_refinement_steps:
        Finest-level refinement budget when the previous iteration's
        eigenvectors are available as a warm start (the common case inside
        the SGL loop).  The warm block doubles the finest basis width, so a
        half budget there recovers the same embedding-grade subspace at
        roughly half the refresh cost (measured on the paper-tier circuit:
        no resistance-correlation regression vs cold solves).
    warm_coarse_steps:
        Coarse-level budget on warm refreshes.  Warm finest-level vectors
        already anchor the subspace, so the coarse sweep only needs token
        smoothing; cutting it is where the engine's per-iteration win over
        a cold V-cycle comes from (coarse levels jointly cost 2-3x the
        finest one).
    preconditioner:
        LOBPCG preconditioner forwarded to the multilevel solver.  The
        engine defaults to ``"spanning-tree"`` support-graph
        preconditioning: the graphs the SGL loop embeds are a spanning
        tree plus a handful of added edges, on which tree preconditioners
        are near-exact (jacobi refinement stalls there, overestimating the
        small eigenvalues and silently shrinking every embedding distance).
        The per-level preconditioners are built once per hierarchy build
        and reused across refreshes — valid because densification only
        ever adds edges, so a stored spanning tree keeps spanning every
        later graph.
    guard_vectors:
        Extra trailing eigenpairs carried through the V-cycle beyond the
        ``r - 1`` the embedding needs.  Same rationale as the incremental
        engine's guard block: eigenvalue clusters straddling the block
        boundary rotate freely, and keeping them inside the refined
        subspace keeps the leading pairs stable across refreshes.
    churn_threshold:
        Re-run heavy-edge matching once the fine edge count has drifted by
        more than this fraction since the hierarchy was built; below it the
        stored matchings are reused and only the Galerkin coarse graphs are
        recomputed.  ``0`` rebuilds on every refresh that changed the graph.
    max_levels, min_coarsening_ratio:
        Hierarchy stopping controls.
    seed:
        Seed for the coarsening order.

    Examples
    --------
    >>> from repro.embedding import MultilevelEmbeddingEngine
    >>> from repro.graphs.generators import grid_2d
    >>> graph = grid_2d(20, 20)
    >>> engine = MultilevelEmbeddingEngine(r=3, coarse_size=50)
    >>> first = engine.refresh(graph)
    >>> engine.stats.hierarchy_builds
    1
    >>> denser = graph.add_edges([(0, 399)], [1.0])
    >>> second = engine.refresh(denser)      # reuses the stored matchings
    >>> engine.stats.reprojections, second.n_nodes, second.dimension
    (1, 400, 2)
    """

    def __init__(
        self,
        r: int = 5,
        *,
        sigma_sq: float = np.inf,
        coarse_size: int = 400,
        refinement_steps: int = 10,
        warm_refinement_steps: int | None = 5,
        warm_coarse_steps: int = 1,
        preconditioner: Literal["jacobi", "spanning-tree"] = "spanning-tree",
        guard_vectors: int = 2,
        churn_threshold: float = 0.1,
        max_levels: int = 30,
        min_coarsening_ratio: float = 0.9,
        seed: int | None = 0,
    ) -> None:
        if r < 2:
            raise ValueError("r must be at least 2 (at least one nontrivial eigenvector)")
        if churn_threshold < 0:
            raise ValueError("churn_threshold must be non-negative")
        if warm_refinement_steps is None:
            warm_refinement_steps = refinement_steps
        if warm_refinement_steps < 0 or warm_coarse_steps < 0:
            raise ValueError("warm refinement budgets must be non-negative")
        if guard_vectors < 0:
            raise ValueError("guard_vectors must be non-negative")
        self.guard_vectors = int(guard_vectors)
        self.warm_refinement_steps = int(warm_refinement_steps)
        self.warm_coarse_steps = int(warm_coarse_steps)
        self.r = int(r)
        self.sigma_sq = sigma_sq
        self.churn_threshold = float(churn_threshold)
        self.seed = seed
        self.solver = MultilevelEigensolver(
            coarse_size=coarse_size,
            refinement_steps=refinement_steps,
            preconditioner=preconditioner,
            max_levels=max_levels,
            min_coarsening_ratio=min_coarsening_ratio,
            seed=seed,
        )
        self.stats = MultilevelEngineStats()
        self.last_mode: str | None = None
        self._hierarchy: CoarseningHierarchy | None = None
        self._preconditioners: list | None = None
        self._last_graph: WeightedGraph | None = None
        self._vectors: np.ndarray | None = None
        self._n_nodes: int | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the hierarchy and warm-start state."""
        self._hierarchy = None
        self._preconditioners = None
        self._last_graph = None
        self._vectors = None
        self._n_nodes = None
        self.last_mode = None

    @property
    def has_hierarchy(self) -> bool:
        """Whether a reusable coarsening hierarchy is currently stored."""
        return self._hierarchy is not None

    # ------------------------------------------------------------------
    def _build(self, graph: WeightedGraph) -> CoarseningHierarchy:
        self._hierarchy = self.solver.build_hierarchy(graph)
        self._preconditioners = self.solver.build_preconditioners(
            graph, self._hierarchy
        )
        self.stats.hierarchy_builds += 1
        return self._hierarchy

    def _ensure_hierarchy(self, graph: WeightedGraph) -> CoarseningHierarchy:
        """Return a hierarchy whose coarse graphs are exact for ``graph``.

        The cached per-level preconditioners are kept across reprojections
        (a stored spanning tree keeps spanning once edges are only added)
        and rebuilt together with the matchings.
        """
        hierarchy = self._hierarchy
        if hierarchy is None or hierarchy.fine_n_nodes != graph.n_nodes:
            self.last_mode = "build"
            return self._build(graph)
        if graph is self._last_graph:
            self.last_mode = "reuse"
            return hierarchy
        if self.churn_threshold > 0 and hierarchy.edge_churn(graph) <= self.churn_threshold:
            self._hierarchy = hierarchy.reproject(graph)
            self.stats.reprojections += 1
            self.last_mode = "reproject"
            return self._hierarchy
        self.stats.churn_rebuilds += 1
        self.last_mode = "rebuild"
        return self._build(graph)

    # ------------------------------------------------------------------
    def refresh(
        self,
        graph: WeightedGraph,
        added_edges: np.ndarray | None = None,
        *,
        timings=None,
    ) -> SpectralEmbedding:
        """Return the spectral embedding of ``graph`` via the multilevel path.

        Parameters
        ----------
        graph:
            The current (connected) graph.
        added_edges:
            Optional ``(m, 2)`` array of edges added since the previous
            refresh.  Informational only: hierarchy staleness is decided
            from the edge-count churn, not from this argument.
        timings:
            Optional :class:`~repro.core.instrumentation.StageTimings`; when
            given, the two phases are recorded under the ``coarsen`` and
            ``refine`` stage names.
        """
        n = graph.n_nodes
        k = min(self.r - 1, n - 1)
        if k < 1:
            raise ValueError("graph too small to embed (need at least two nodes)")
        k_work = min(k + self.guard_vectors, n - 1)
        self.stats.refreshes += 1

        coarsen_stage = nullcontext() if timings is None else timings.stage("coarsen")
        refine_stage = nullcontext() if timings is None else timings.stage("refine")

        if n <= max(self.solver.coarse_size, k_work + 2):
            # Too small to coarsen: a dense solve is cheaper than bookkeeping.
            with refine_stage:
                set_attributes(mode="dense", n_levels=0)
                values, vectors = laplacian_eigenpairs(graph, k_work, method="dense")
            self.stats.dense_solves += 1
            self.stats.n_levels = 0
            self.last_mode = "dense"
        else:
            with coarsen_stage:
                hierarchy = self._ensure_hierarchy(graph)
                # Tag the traced span (no-op without an active tracer) with
                # what this coarsen actually did — build/reuse/reproject and
                # the resulting hierarchy depth.
                set_attributes(mode=self.last_mode, n_levels=hierarchy.n_levels)
            self.stats.n_levels = hierarchy.n_levels
            warm = self._vectors if self._n_nodes == n else None
            steps = None  # solver default (cold budget, every level)
            if warm is not None and self.last_mode in ("reuse", "reproject"):
                steps = [self.warm_refinement_steps, self.warm_coarse_steps]
            with refine_stage:
                set_attributes(
                    n_levels=hierarchy.n_levels,
                    warm=warm is not None,
                    churn_rebuilds=self.stats.churn_rebuilds,
                )
                result = self.solver.solve(
                    graph,
                    k_work,
                    hierarchy=hierarchy,
                    initial_vectors=warm,
                    preconditioners=self._preconditioners,
                    refinement_steps=steps,
                )
            values, vectors = result.eigenvalues, result.eigenvectors

        self._last_graph = graph
        self._vectors = vectors
        self._n_nodes = n
        return embedding_from_eigenpairs(values[:k], vectors[:, :k], self.sigma_sq)

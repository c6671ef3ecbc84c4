"""Multilevel coarsen-solve-refine embedding engine for the SGL loop.

The third ``SGLConfig.embedding_engine`` mode (after ``"stateless"`` and the
warm-started ``"incremental"`` engine).  Where the incremental engine reuses
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
   preconditioned LOBPCG or Chebyshev-filter machinery of
   :class:`~repro.linalg.MultilevelEigensolver`, warm-starting the finest
   level with the previous iteration's eigenvectors.

The two phases are timed into the ``coarsen`` and ``refine`` stages of the
learner's :class:`~repro.core.instrumentation.StageTimings`, so benchmark
artifacts break the multilevel embedding cost down the same way they split
``embedding`` / ``embedding_warm`` for the incremental engine.

Accuracy note: the refined eigenvectors are approximate (residuals around
``1e-3``-relative at default settings), which is embedding-grade — the
embedding only feeds a *ranking* of candidate edges, and the acceptance
benchmark requires the learned graph's resistance correlation to stay within
0.01 of the stateless engine's.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
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
    chebyshev_accepts:
        Levels whose mixed-precision Chebyshev refinement passed the
        float64 acceptance residual (summed over refreshes; stays 0 for
        the lobpcg backend).
    chebyshev_fallbacks:
        Levels rejected by the acceptance check and re-refined by the
        float64 LOBPCG path.
    chebyshev_bypasses:
        Levels whose spectrum was detected as polynomial-intractable up
        front (wanted eigenvalues so far below the spectral bound that the
        required filter degree exceeds the affordable cap — the near-tree
        SGL regime) and rerouted to float64 LOBPCG on the orthonormalised
        full basis without paying any filter cost.  An *explained*
        reroute, reported separately from the quality ``fallbacks``.
    refresh_skips:
        Refreshes answered from the cached previous embedding because the
        edge churn since the last full V-cycle was below the engine's
        ``refresh_skip_churn`` threshold (chebyshev backend only; a subset
        of ``refreshes``).
    """

    refreshes: int = 0
    hierarchy_builds: int = 0
    churn_rebuilds: int = 0
    reprojections: int = 0
    dense_solves: int = 0
    n_levels: int = 0
    chebyshev_accepts: int = 0
    chebyshev_fallbacks: int = 0
    chebyshev_bypasses: int = 0
    refresh_skips: int = 0

    def as_dict(self) -> dict:
        """JSON-ready mapping embedded in benchmark artifacts."""
        return {
            "refreshes": self.refreshes,
            "hierarchy_builds": self.hierarchy_builds,
            "churn_rebuilds": self.churn_rebuilds,
            "reprojections": self.reprojections,
            "dense_solves": self.dense_solves,
            "n_levels": self.n_levels,
            "chebyshev_accepts": self.chebyshev_accepts,
            "chebyshev_fallbacks": self.chebyshev_fallbacks,
            "chebyshev_bypasses": self.chebyshev_bypasses,
            "refresh_skips": self.refresh_skips,
        }


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
        no resistance-correlation regression vs the stateless engine).
    warm_coarse_steps:
        Coarse-level budget on warm refreshes.  Warm finest-level vectors
        already anchor the subspace, so the coarse sweep only needs token
        smoothing; cutting it is where the engine's per-iteration win over
        a cold V-cycle comes from (coarse levels jointly cost 2-3x the
        finest one).
    refinement, preconditioner:
        Refinement backend (``"lobpcg"`` / ``"chebyshev"``) and
        preconditioner forwarded to the multilevel solver.  The chebyshev
        backend is matrix-free mixed-precision Chebyshev-filtered subspace
        iteration on warm refreshes; cold V-cycles (hierarchy builds and
        churn rebuilds) are seeded with the float64 LOBPCG reference path,
        because they run once per build but anchor the whole densification
        trajectory.  A warm level whose
        float64 acceptance residual rejects the filtered subspace falls
        back to preconditioned LOBPCG (counted in ``stats``).  The engine
        defaults to ``"spanning-tree"`` support-graph preconditioning: the
        graphs the SGL loop embeds are a spanning tree plus a handful of
        added edges, on which tree preconditioners are near-exact (jacobi
        refinement stalls there, overestimating the small eigenvalues and
        silently shrinking every embedding distance).  The per-level
        preconditioners are built once per hierarchy build and reused
        across refreshes — valid because densification only ever adds
        edges, so a stored spanning tree keeps spanning every later graph.
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
    refine_dtype, chebyshev_degree:
        Chebyshev knobs forwarded to the solver: filtering precision
        (``"float32"`` default) and filter polynomial degree.  Ignored by
        the lobpcg backend.
    refresh_skip_churn:
        Chebyshev-backend-only refresh elision: when the caller reports
        ``added_edges`` and the relative churn ``len(added_edges) /
        graph.n_edges`` is at or below this fraction, the refresh returns
        the cached previous embedding without running a V-cycle.  In the
        SGL densification tail the loop adds a handful of edges per
        iteration (relative churn around ``5e-5`` at the paper tier) whose
        effect on the embedding is far below refinement accuracy, so the
        stale embedding ranks the next candidate batch identically while
        saving a full finest-level solve.  ``0`` disables skipping.  The
        lobpcg backend never skips, keeping the default engine
        bit-compatible with earlier releases.
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
        refinement: Literal["lobpcg", "chebyshev"] = "lobpcg",
        preconditioner: Literal["jacobi", "spanning-tree"] = "spanning-tree",
        refine_dtype: str = "float32",
        chebyshev_degree: int = 10,
        refresh_skip_churn: float = 5.5e-5,
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
        if refresh_skip_churn < 0:
            raise ValueError("refresh_skip_churn must be non-negative")
        self.refresh_skip_churn = float(refresh_skip_churn)
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
            refinement=refinement,
            preconditioner=preconditioner,
            refine_dtype=refine_dtype,
            chebyshev_degree=chebyshev_degree,
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
        self._cached_embedding: SpectralEmbedding | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the hierarchy and warm-start state."""
        self._hierarchy = None
        self._preconditioners = None
        self._last_graph = None
        self._vectors = None
        self._n_nodes = None
        self._cached_embedding = None
        self.last_mode = None

    @property
    def has_hierarchy(self) -> bool:
        """Whether a reusable coarsening hierarchy is currently stored."""
        return self._hierarchy is not None

    # ------------------------------------------------------------------
    def _build(self, graph: WeightedGraph) -> CoarseningHierarchy:
        self._hierarchy = self.solver.build_hierarchy(graph)
        # Built for every backend: the chebyshev path needs them too, for
        # the cold reference V-cycle that seeds each hierarchy and for any
        # level whose spectrum bypasses (or falls back from) the filter.
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

        if (
            self.solver.refinement == "chebyshev"
            and self.refresh_skip_churn > 0
            and self._cached_embedding is not None
            and self._n_nodes == n
            and added_edges is not None
            and 0 < len(added_edges) <= self.refresh_skip_churn * graph.n_edges
        ):
            # Densification-tail elision: the reported batch perturbs the
            # Laplacian by less than refinement accuracy, so the previous
            # embedding still ranks candidates identically.  Warm vectors
            # and hierarchy are left untouched — the next non-trivial
            # refresh reprojects from them exactly as it would have.
            self.stats.refresh_skips += 1
            self.last_mode = "skip"
            set_attributes(mode="skip", refresh_skips=self.stats.refresh_skips)
            return self._cached_embedding

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
            refinement = None
            if self.solver.refinement == "chebyshev" and steps is None:
                # Cold V-cycles run once per hierarchy build but seed the
                # whole densification trajectory the warm refreshes then
                # follow; spend the float64 reference path there and keep
                # the mixed-precision filter for the repeated warm solves,
                # where the refresh cost actually lives.
                refinement = "lobpcg"
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
                    refinement=refinement,
                )
                rstats = result.refine_stats
                if self.solver.refinement == "chebyshev":
                    self.stats.chebyshev_accepts += int(rstats.get("accepts", 0))
                    self.stats.chebyshev_fallbacks += int(rstats.get("fallbacks", 0))
                    self.stats.chebyshev_bypasses += int(rstats.get("bypasses", 0))
                    set_attributes(
                        filter_degree=rstats.get(
                            "filter_degree", self.solver.chebyshev_degree
                        ),
                        refine_dtype=rstats.get("dtype", str(self.solver.refine_dtype)),
                        acceptance_residual=float(rstats.get("residual", 0.0)),
                        chebyshev_fallbacks=int(rstats.get("fallbacks", 0)),
                        chebyshev_bypasses=int(rstats.get("bypasses", 0)),
                    )
            values, vectors = result.eigenvalues, result.eigenvectors

        self._last_graph = graph
        self._vectors = vectors
        self._n_nodes = n
        embedding = embedding_from_eigenpairs(values[:k], vectors[:, :k], self.sigma_sq)
        if self.solver.refinement == "chebyshev":
            self._cached_embedding = embedding
        return embedding

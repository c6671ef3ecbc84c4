"""Multilevel (coarsen - solve - refine) Laplacian eigensolver.

This mirrors the nearly-linear-time spectral embedding machinery the paper
relies on for Step 2 [13], [16]: instead of running Lanczos on the full graph,
the graph is coarsened by heavy-edge matching until it is small, the dense
eigenproblem is solved at the coarsest level, the eigenvectors are
interpolated back level by level and smoothed/refined on each finer level.

Two refinement backends are available:

* ``"lobpcg"`` -- a few LOBPCG iterations per level with the library's
  preconditioners (:func:`repro.linalg.jacobi_preconditioner`,
  :func:`repro.linalg.spanning_tree_preconditioner`) and explicit deflation
  of the constant vector;
* ``"chebyshev"`` -- matrix-free mixed-precision Chebyshev-filtered subspace
  iteration (:mod:`repro.linalg.chebyshev`): float32 filtering, float64
  Rayleigh-Ritz acceptance, automatic fall back to the float64 LOBPCG path
  when the acceptance residual fails (counted in
  :attr:`MultilevelResult.refine_stats`).

In practice this gives accurate leading eigenvectors at a cost dominated by a
handful of sparse matrix-vector products per level -- i.e. near-linear in the
number of edges.  :meth:`MultilevelEigensolver.solve` accepts a prebuilt
:class:`~repro.linalg.coarsening.CoarseningHierarchy` so callers embedding a
slowly changing graph (the SGL densification loop) can amortise the matching
cost across many solves; see :class:`repro.embedding.MultilevelEmbeddingEngine`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph
from repro.linalg.chebyshev import chebyshev_refine
from repro.linalg.coarsening import CoarseningHierarchy, coarsening_hierarchy
from repro.linalg.eigen import laplacian_eigenpairs, rayleigh_ritz
from repro.linalg.preconditioners import (
    jacobi_preconditioner,
    spanning_tree_preconditioner,
)

__all__ = ["MultilevelEigensolver", "MultilevelResult", "REFINEMENT_BACKENDS"]

#: Refinement backends accepted by :class:`MultilevelEigensolver`,
#: ``SGLConfig.refinement_backend`` and ``repro.bench run --refinement-backend``.
REFINEMENT_BACKENDS: tuple[str, ...] = ("lobpcg", "chebyshev")


@dataclass(frozen=True)
class MultilevelResult:
    """Approximate eigenpairs plus hierarchy and refinement statistics.

    ``refine_stats`` aggregates the per-level refinement outcomes of the
    V-cycle.  It always carries ``backend``; the chebyshev backend adds
    ``accepts`` / ``fallbacks`` / ``bypasses`` (levels whose float64
    acceptance residual passed / failed after filtering / were detected as
    polynomial-intractable up front and routed straight to float64 LOBPCG
    without paying any filter cost), the largest acceptance ``residual``,
    the ``filter_degree`` and filtering ``dtype``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    level_sizes: tuple[int, ...]
    refine_stats: dict = field(default_factory=dict)


class MultilevelEigensolver:
    """Approximate smallest nontrivial Laplacian eigenpairs via a V-cycle.

    Parameters
    ----------
    coarse_size:
        Coarsen until the graph has at most this many nodes; the coarsest
        problem is solved densely.
    refinement_steps:
        Number of refinement iterations applied on each finer level after
        interpolation.  ``0`` falls back to a single Rayleigh-Ritz
        projection per level (cheapest, least accurate).
    refinement:
        ``"lobpcg"`` (default) or ``"chebyshev"`` (mixed-precision
        Chebyshev-filtered subspace iteration; see
        :func:`repro.linalg.chebyshev.chebyshev_refine`).
    preconditioner:
        ``"jacobi"`` (default; diagonal scaling) or ``"spanning-tree"``
        (support-graph preconditioning with the level's maximum spanning
        tree, exact O(N) tree solves).  Unused by ``"chebyshev"``, which
        is matrix-free; the engine skips building preconditioners there.
    refine_dtype:
        Filtering precision for the chebyshev backend (``"float32"``
        default, ``"float64"`` for a full-precision filter); the
        Rayleigh-Ritz acceptance step is always float64.
    chebyshev_degree:
        Polynomial degree of each filter application.
    chebyshev_accept_tol:
        Bound-normalised residual above which a chebyshev-refined level is
        rejected and re-refined by the float64 LOBPCG path.
    max_levels, min_coarsening_ratio:
        Hierarchy stopping controls forwarded to
        :func:`~repro.linalg.coarsening.coarsening_hierarchy`.
    seed:
        Seed for the coarsening order.

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg import MultilevelEigensolver
    >>> graph = grid_2d(12, 12)
    >>> result = MultilevelEigensolver(coarse_size=32, seed=0).solve(graph, 2)
    >>> result.eigenvalues.shape, result.eigenvectors.shape
    ((2,), (144, 2))
    >>> result.level_sizes[0], bool((result.eigenvalues > 0).all())
    (144, True)

    A prebuilt hierarchy is reused instead of re-coarsening (the SGL loop
    exploits this to amortise matching across densification iterations):

    >>> from repro.linalg import coarsening_hierarchy
    >>> hierarchy = coarsening_hierarchy(graph, target_size=32)
    >>> reused = MultilevelEigensolver(coarse_size=32).solve(graph, 2, hierarchy=hierarchy)
    >>> bool(abs(reused.eigenvalues[0] - result.eigenvalues[0]) < 1e-6)
    True
    """

    #: Per-round matvec-row budget for the chebyshev filter: the adaptive
    #: degree cap on an n-node level is ``max(120, budget // n)``, so small
    #: levels may run the deep filters their spectra require while
    #: paper-scale levels stay at the cheap floor.
    CHEBYSHEV_WORK_BUDGET: int = 4_000_000

    #: Slack allowed between the degree a level's spectral window *needs*
    #: and the degree the work budget affords before the filter declares
    #: the spectrum polynomial-intractable and bypasses to LOBPCG.  1.0
    #: means "only filter when the affordable degree resolves the window":
    #: an underpowered filter can still scrape past the acceptance residual
    #: while converging more slowly than the preconditioned path it
    #: displaced, which is exactly the marginal regime paper-scale finest
    #: levels sit in.
    CHEBYSHEV_DEGREE_HEADROOM: float = 1.0

    def __init__(
        self,
        *,
        coarse_size: int = 200,
        refinement_steps: int = 10,
        refinement: Literal["lobpcg", "chebyshev"] = "lobpcg",
        preconditioner: Literal["jacobi", "spanning-tree"] = "jacobi",
        refine_dtype: str = "float32",
        chebyshev_degree: int = 10,
        chebyshev_accept_tol: float = 5e-2,
        max_levels: int = 30,
        min_coarsening_ratio: float = 0.9,
        seed: int | None = 0,
    ) -> None:
        if coarse_size < 4:
            raise ValueError("coarse_size must be at least 4")
        if refinement_steps < 0:
            raise ValueError("refinement_steps must be non-negative")
        if refinement not in REFINEMENT_BACKENDS:
            raise ValueError(f"refinement must be one of {REFINEMENT_BACKENDS}")
        if preconditioner not in {"jacobi", "spanning-tree"}:
            raise ValueError("preconditioner must be 'jacobi' or 'spanning-tree'")
        if chebyshev_degree < 1:
            raise ValueError("chebyshev_degree must be at least 1")
        self.coarse_size = int(coarse_size)
        self.refinement_steps = int(refinement_steps)
        self.refinement = refinement
        self.preconditioner = preconditioner
        self.refine_dtype = np.dtype(refine_dtype)
        self.chebyshev_degree = int(chebyshev_degree)
        self.chebyshev_accept_tol = float(chebyshev_accept_tol)
        self.max_levels = int(max_levels)
        self.min_coarsening_ratio = float(min_coarsening_ratio)
        self.seed = seed

    # ------------------------------------------------------------------
    def build_hierarchy(self, graph: WeightedGraph) -> CoarseningHierarchy:
        """Build the coarsening hierarchy this solver would use for ``graph``."""
        return coarsening_hierarchy(
            graph,
            target_size=self.coarse_size,
            max_levels=self.max_levels,
            min_coarsening_ratio=self.min_coarsening_ratio,
            seed=self.seed,
        )

    def build_preconditioners(
        self, graph: WeightedGraph, hierarchy: CoarseningHierarchy
    ) -> list[Callable[[np.ndarray], np.ndarray]]:
        """Per-refined-level preconditioner applies, finest first.

        Entry ``i`` preconditions the level refined at hierarchy position
        ``i`` (the fine graph at 0, then each coarse graph except the
        coarsest, which is solved densely).  Callers that reuse a hierarchy
        across many solves can cache this list and pass it to :meth:`solve`
        -- a spanning-tree preconditioner stays a valid support graph as
        long as level node sets are unchanged and no tree edge is removed,
        which is exactly the SGL densification regime (edges are only ever
        added).
        """
        graphs = [graph] + [level.graph for level in hierarchy[:-1]]
        return [self._preconditioner_apply(g, g.laplacian()) for g in graphs]

    def _preconditioner_apply(
        self, graph: WeightedGraph, laplacian: sp.csr_matrix
    ) -> Callable[[np.ndarray], np.ndarray]:
        if self.preconditioner == "spanning-tree":
            return spanning_tree_preconditioner(graph)
        return jacobi_preconditioner(laplacian)

    # ------------------------------------------------------------------
    def _refine_lobpcg(
        self,
        laplacian: sp.csr_matrix,
        basis: np.ndarray,
        apply: Callable[[np.ndarray], np.ndarray],
        k: int,
        steps: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        n = laplacian.shape[0]
        ones = np.ones((n, 1)) / np.sqrt(n)
        # Both preconditioner families accept (n,) and (n, m) inputs, so the
        # same callable serves as matvec and matmat; providing the matmat
        # keeps LOBPCG's block preconditioning out of SciPy's per-column
        # fallback loop.
        precond = spla.LinearOperator((n, n), matvec=apply, matmat=apply)
        try:
            with warnings.catch_warnings():
                # The iteration budget is deliberately tiny (refinement, not
                # a from-scratch solve); LOBPCG's "did not reach tolerance"
                # warnings are expected and not actionable.
                warnings.simplefilter("ignore", UserWarning)
                values, vectors = spla.lobpcg(
                    laplacian,
                    basis,
                    M=precond,
                    Y=ones,
                    maxiter=steps,
                    tol=1e-8,
                    largest=False,
                )
        except Exception:
            # LOBPCG can fail on ill-conditioned bases; Rayleigh-Ritz is a
            # safe (if less accurate) fallback.
            values, vectors = rayleigh_ritz(laplacian, basis)
        order = np.argsort(values)
        return np.asarray(values)[order][:k], np.asarray(vectors)[:, order][:, :k]

    def _refine_chebyshev(
        self,
        graph: WeightedGraph,
        laplacian: sp.csr_matrix,
        basis: np.ndarray,
        apply: Callable[[np.ndarray], np.ndarray] | None,
        k: int,
        steps: int,
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Mixed-precision Chebyshev filtering with float64 acceptance.

        The per-level ``steps`` budget (sized for LOBPCG sweeps) maps
        to filter rounds at roughly one round per five sweeps — a single
        adaptive-degree filter application replaces several preconditioned
        iterations.  Budgets below one round (the token smoothing a warm
        V-cycle assigns to its coarse levels) reduce to a plain
        Rayleigh-Ritz projection: a partial filter there costs spmm's
        without advancing convergence.

        Rejections route by reason: a polynomial-intractable spectrum
        (``reason="window"``, detected before any filter cost) reroutes to
        float64 LOBPCG on the orthonormalised full basis, while a quality
        rejection after filtering (acceptance residual above
        ``chebyshev_accept_tol``, or a non-finite float32 block) falls
        back to the float64 LOBPCG path on the same uncompressed basis.
        """
        rounds = steps // 5
        if rounds == 0:
            values, vectors = rayleigh_ritz(laplacian, basis)
            return values[:k], vectors[:, :k], {}
        # Cost-aware degree cap: allow high-degree filters where matvecs are
        # cheap (small levels need degree ~ 1/sqrt(window/bound) to resolve
        # their windows) but bound the per-round spmm work at scale — a
        # degree-d filter costs d * nnz per column, so the cap shrinks like
        # budget / n with a floor that keeps the filter effective.
        n = laplacian.shape[0]
        max_degree = max(120, int(self.CHEBYSHEV_WORK_BUDGET // max(n, 1)))
        outcome = chebyshev_refine(
            laplacian,
            basis,
            k,
            steps=rounds,
            degree=self.chebyshev_degree,
            dtype=self.refine_dtype,
            accept_tol=self.chebyshev_accept_tol,
            max_degree=max_degree,
            degree_headroom=self.CHEBYSHEV_DEGREE_HEADROOM,
            seed=self.seed,
        )
        info = {
            "residual": outcome.residual,
            "filter_degree": outcome.degree,
            "dtype": str(np.dtype(self.refine_dtype)),
        }
        if outcome.accepted:
            info["accepts"] = 1
            return outcome.eigenvalues, outcome.eigenvectors, info
        if apply is None:
            apply = self._preconditioner_apply(graph, laplacian)
        if outcome.reason == "window":
            # Polynomial-intractable spectrum detected up front: an
            # *explained* bypass, no filter cost paid.  The LOBPCG reroute
            # keeps the full interpolated + warm span — compressing it to k
            # Ritz vectors was measured to derail the densification loop's
            # edge selection at paper scale — but orthonormalises it first:
            # warm columns nearly duplicate their interpolated counterparts,
            # and feeding the raw ill-conditioned block to LOBPCG wastes its
            # internal restarts.  Pivoted QR gives a well-conditioned basis
            # with the same span.
            info["bypasses"] = 1
            ortho, _, _ = sla.qr(basis, mode="economic", pivoting=True)
            values, vectors = self._refine_lobpcg(laplacian, ortho, apply, k, steps)
            return values, vectors, info
        # Quality rejection after filtering: the full-strength float64
        # LOBPCG path re-refines the same (uncompressed) basis.
        info["fallbacks"] = 1
        values, vectors = self._refine_lobpcg(laplacian, basis, apply, k, steps)
        return values, vectors, info

    def _refine(
        self,
        graph: WeightedGraph,
        basis: np.ndarray,
        k: int,
        apply: Callable[[np.ndarray], np.ndarray] | None = None,
        steps: int | None = None,
        refinement: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Refine an interpolated eigenvector basis on the current level."""
        if steps is None:
            steps = self.refinement_steps
        if refinement is None:
            refinement = self.refinement
        laplacian = graph.laplacian()
        n = laplacian.shape[0]
        ones = np.ones((n, 1)) / np.sqrt(n)
        # Remove the component along the constant vector before refining.
        basis = basis - ones @ (ones.T @ basis)
        if steps == 0 or n <= basis.shape[1] + 2:
            values, vectors = rayleigh_ritz(laplacian, basis)
            return values[:k], vectors[:, :k], {}
        if refinement == "chebyshev":
            return self._refine_chebyshev(graph, laplacian, basis, apply, k, steps)
        if apply is None:
            apply = self._preconditioner_apply(graph, laplacian)
        values, vectors = self._refine_lobpcg(laplacian, basis, apply, k, steps)
        return values, vectors, {}

    # ------------------------------------------------------------------
    def solve(
        self,
        graph: WeightedGraph,
        k: int,
        *,
        hierarchy: CoarseningHierarchy | None = None,
        initial_vectors: np.ndarray | None = None,
        preconditioners: list[Callable[[np.ndarray], np.ndarray]] | None = None,
        refinement_steps: int | Sequence[int] | None = None,
        refinement: str | None = None,
    ) -> MultilevelResult:
        """Compute the ``k`` smallest nontrivial eigenpairs of ``graph``'s Laplacian.

        Parameters
        ----------
        hierarchy:
            Optional prebuilt coarsening hierarchy whose coarse graphs are
            the Galerkin contractions of ``graph`` (see
            :meth:`~repro.linalg.coarsening.CoarseningHierarchy.reproject`).
            When omitted, a fresh hierarchy is built.
        initial_vectors:
            Optional ``(N, >=k)`` warm-start block merged into the
            finest-level refinement basis (e.g. the previous densification
            iteration's eigenvectors).
        preconditioners:
            Optional cached per-level preconditioner applies from
            :meth:`build_preconditioners` (finest first); when omitted each
            level builds its own.
        refinement_steps:
            Optional per-call override of the configured refinement budget:
            an int applies to every level, a sequence assigns budgets
            finest-first (the last entry repeats for deeper levels).  Warm
            callers use this to spend iterations where they matter — the
            finest level, whose Rayleigh-Ritz extraction decides the
            returned eigenvalues — while coarse levels get token sweeps.
        refinement:
            Optional per-call override of the refinement backend.  The
            multilevel embedding engine uses this to seed each hierarchy's
            *cold* V-cycle with the float64 ``"lobpcg"`` reference path
            under the chebyshev backend: the cold solve runs once per build
            but anchors the whole densification trajectory, while the
            mixed-precision filter serves the repeated warm refreshes.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if refinement is not None and refinement not in REFINEMENT_BACKENDS:
            raise ValueError(
                f"unknown refinement override {refinement!r}; "
                f"expected one of {sorted(REFINEMENT_BACKENDS)}"
            )
        n = graph.n_nodes
        if n <= max(self.coarse_size, k + 2):
            values, vectors = laplacian_eigenpairs(graph, k, method="dense")
            return MultilevelResult(values, vectors, (n,), {"backend": "dense"})

        if hierarchy is None:
            hierarchy = self.build_hierarchy(graph)
        elif hierarchy.fine_n_nodes != n:
            raise ValueError("hierarchy does not match the graph's node set")
        if not len(hierarchy):
            values, vectors = laplacian_eigenpairs(graph, k, method="auto", seed=self.seed)
            return MultilevelResult(values, vectors, (n,), {"backend": "direct"})

        coarsest = hierarchy[-1].graph
        k_coarse = min(k, max(coarsest.n_nodes - 2, 1))
        values, vectors = laplacian_eigenpairs(coarsest, k_coarse, method="dense")

        # Interpolate back up the hierarchy, refining at every level.
        stats: dict = {"backend": refinement or self.refinement, "levels": 0}
        graphs = [graph] + [level.graph for level in hierarchy]
        for level_index in range(len(hierarchy) - 1, -1, -1):
            level = hierarchy[level_index]
            fine_graph = graphs[level_index]
            basis = level.prolongation @ vectors
            if level_index == 0 and initial_vectors is not None and initial_vectors.size:
                warm = np.asarray(initial_vectors, dtype=np.float64).reshape(n, -1)
                basis = np.hstack([basis, warm])
            if basis.shape[1] < k and fine_graph.n_nodes > k + 2:
                # Augment with random vectors if the coarse level could not
                # support k nontrivial modes.
                rng = np.random.default_rng(self.seed)
                extra = rng.standard_normal((fine_graph.n_nodes, k - basis.shape[1]))
                basis = np.hstack([basis, extra])
            apply = None
            if preconditioners is not None and level_index < len(preconditioners):
                apply = preconditioners[level_index]
            if refinement_steps is None or isinstance(refinement_steps, int):
                steps = refinement_steps
            else:
                steps = refinement_steps[min(level_index, len(refinement_steps) - 1)]
            values, vectors, info = self._refine(
                fine_graph, basis, k, apply, steps, refinement
            )
            stats["levels"] += 1
            for key in ("accepts", "fallbacks", "bypasses"):
                if key in info:
                    stats[key] = stats.get(key, 0) + info[key]
            if "residual" in info:
                stats["residual"] = max(stats.get("residual", 0.0), info["residual"])
            for key in ("filter_degree", "dtype"):
                if key in info:
                    stats[key] = info[key]

        sizes = tuple(g.n_nodes for g in graphs)
        return MultilevelResult(values[:k], vectors[:, :k], sizes, stats)

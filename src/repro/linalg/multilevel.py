"""Multilevel (coarsen - solve - refine) Laplacian eigensolver.

This mirrors the nearly-linear-time spectral embedding machinery the paper
relies on for Step 2 [13], [16]: instead of running Lanczos on the full graph,
the graph is coarsened by heavy-edge matching until it is small, the dense
eigenproblem is solved at the coarsest level, the eigenvectors are
interpolated back level by level and smoothed/refined on each finer level.

Each level is refined by a few LOBPCG iterations with the library's
preconditioners (:func:`repro.linalg.jacobi_preconditioner`,
:func:`repro.linalg.spanning_tree_preconditioner`) and explicit deflation of
the constant vector.

In practice this gives accurate leading eigenvectors at a cost dominated by a
handful of sparse matrix-vector products per level -- i.e. near-linear in the
number of edges.  :meth:`MultilevelEigensolver.solve` accepts a prebuilt
:class:`~repro.linalg.coarsening.CoarseningHierarchy` so callers embedding a
slowly changing graph (the SGL densification loop) can amortise the matching
cost across many solves; see :class:`repro.embedding.MultilevelEmbeddingEngine`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph
from repro.linalg.coarsening import CoarseningHierarchy, coarsening_hierarchy
from repro.linalg.eigen import laplacian_eigenpairs, rayleigh_ritz
from repro.linalg.preconditioners import (
    jacobi_preconditioner,
    spanning_tree_preconditioner,
)

__all__ = ["MultilevelEigensolver", "MultilevelResult"]


@dataclass(frozen=True)
class MultilevelResult:
    """Approximate eigenpairs plus the node counts of the levels solved."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    level_sizes: tuple[int, ...]


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
    preconditioner:
        ``"jacobi"`` (default; diagonal scaling) or ``"spanning-tree"``
        (support-graph preconditioning with the level's maximum spanning
        tree, exact O(N) tree solves).
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

    def __init__(
        self,
        *,
        coarse_size: int = 200,
        refinement_steps: int = 10,
        preconditioner: Literal["jacobi", "spanning-tree"] = "jacobi",
        max_levels: int = 30,
        min_coarsening_ratio: float = 0.9,
        seed: int | None = 0,
    ) -> None:
        if coarse_size < 4:
            raise ValueError("coarse_size must be at least 4")
        if refinement_steps < 0:
            raise ValueError("refinement_steps must be non-negative")
        if preconditioner not in {"jacobi", "spanning-tree"}:
            raise ValueError("preconditioner must be 'jacobi' or 'spanning-tree'")
        self.coarse_size = int(coarse_size)
        self.refinement_steps = int(refinement_steps)
        self.preconditioner = preconditioner
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

    def _refine(
        self,
        graph: WeightedGraph,
        basis: np.ndarray,
        k: int,
        apply: Callable[[np.ndarray], np.ndarray] | None = None,
        steps: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refine an interpolated eigenvector basis on the current level."""
        if steps is None:
            steps = self.refinement_steps
        laplacian = graph.laplacian()
        n = laplacian.shape[0]
        ones = np.ones((n, 1)) / np.sqrt(n)
        # Remove the component along the constant vector before refining.
        basis = basis - ones @ (ones.T @ basis)
        if steps == 0 or n <= basis.shape[1] + 2:
            values, vectors = rayleigh_ritz(laplacian, basis)
            return values[:k], vectors[:, :k]
        if apply is None:
            apply = self._preconditioner_apply(graph, laplacian)
        return self._refine_lobpcg(laplacian, basis, apply, k, steps)

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
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        n = graph.n_nodes
        if n <= max(self.coarse_size, k + 2):
            values, vectors = laplacian_eigenpairs(graph, k, method="dense")
            return MultilevelResult(values, vectors, (n,))

        if hierarchy is None:
            hierarchy = self.build_hierarchy(graph)
        elif hierarchy.fine_n_nodes != n:
            raise ValueError("hierarchy does not match the graph's node set")
        if not len(hierarchy):
            values, vectors = laplacian_eigenpairs(graph, k, method="auto", seed=self.seed)
            return MultilevelResult(values, vectors, (n,))

        coarsest = hierarchy[-1].graph
        k_coarse = min(k, max(coarsest.n_nodes - 2, 1))
        values, vectors = laplacian_eigenpairs(coarsest, k_coarse, method="dense")

        # Interpolate back up the hierarchy, refining at every level.
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
            values, vectors = self._refine(fine_graph, basis, k, apply, steps)

        sizes = tuple(g.n_nodes for g in graphs)
        return MultilevelResult(values[:k], vectors[:, :k], sizes)

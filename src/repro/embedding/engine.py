"""Warm-started incremental spectral engine for the SGL densification loop.

Every iteration of :meth:`repro.core.sgl.SGLearner.fit` needs the spectral
embedding of the *current* graph — but consecutive iterations differ only by
the ``ceil(N beta)`` edges added in between, which is exactly the low-rank
update regime where warm-started eigensolvers converge in a handful of
iterations.  Re-solving from scratch (the stateless
:func:`~repro.embedding.spectral.spectral_embedding_matrix` path) pays a full
sparse factorisation plus a Lanczos run per iteration.

:class:`EmbeddingEngine` owns the eigenpair state across iterations and
refreshes it with an escalation ladder, cheapest first:

1. **Rayleigh-Ritz residual check**: the stored eigenpairs are re-tested
   against the updated Laplacian (``k`` sparse matvecs); tiny or empty edge
   updates are accepted outright.
2. **Warm-started block-Krylov inverse iteration**: an inverse-iteration tower
   ``[V, L^-1 V, L^-2 V, ...]`` grown from the previous eigenvectors with
   *exact* solves against the current Laplacian.  The solves run on one
   grounded sparse LU of the current graph, factorised once per refresh
   that sees a new graph: the graphs the loop produces stay near-trees, so
   that factor costs a few milliseconds at 10k nodes, less than keeping a
   stale factor exact with a low-rank correction on every solve.  The
   tower depth is adaptive (remembered across refreshes), and one
   Rayleigh-Ritz projection per convergence check turns the tower into
   eigenpairs plus a built-in Ritz-value-drift estimate.
3. **Cold solve fallback**: the stateless path, also used for the first
   refresh and whenever the warm residuals fail the acceptance test — so a
   convergence failure can never produce a worse embedding than the
   stateless engine, only a slower iteration.  A cold solve runs its
   Lanczos iteration on the same factor the warm path uses.

After a refresh the factor belongs to the refreshed graph, and
:meth:`EmbeddingEngine.solver_for` hands it on, so Step 5 (the edge scaling,
which needs the same factor) does not factorise the graph a second time.

The acceptance test is *eigenvalue-relative* (``||L u - theta u|| <=
WARM_TOL * theta``), because the embedding scales coordinates by
``1/sqrt(lambda)``: an absolute residual that is small next to ``lambda_max``
can still bias ``lambda_2`` — and hence every embedding distance and edge
sensitivity — enough to derail the densification trajectory.

Per-refresh outcomes are tallied in :class:`EngineStats`, which the learner
attaches to :class:`~repro.core.sgl.SGLResult` and the benchmark harness
embeds in ``BENCH_<tag>.json`` artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.embedding.spectral import SpectralEmbedding, embedding_from_eigenpairs
from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import laplacian_eigenpairs
from repro.linalg.solvers import LaplacianSolver

__all__ = ["EmbeddingEngine", "EngineStats"]

#: Failures the warm ladder treats as "fall back to a cold solve": numerical
#: breakdowns of the factorisation / small dense solves.  Deliberately NOT a
#: blanket Exception, so programming errors surface instead of silently
#: degrading every refresh to the stateless path.
_NUMERICAL_FAILURES = (RuntimeError, ValueError, ArithmeticError, np.linalg.LinAlgError)

#: Strict eigenvalue-relative residual acceptance threshold: a tower check is
#: accepted outright when ``||L u_i - theta_i u_i|| <= WARM_TOL * theta_i``
#: for every kept pair.
WARM_TOL = 1e-3
#: Ritz-value-stability acceptance threshold: a check is also accepted when
#: every kept Ritz value moved by at most ``DRIFT_TOL * theta_i`` relative to
#: the tower's one-level-shallower subspace and the residuals stay below
#: ``RESIDUAL_CAP``.  Ritz-value stability is the criterion that matters for
#: the embedding: coordinates scale by ``1/sqrt(lambda)``, and leftover
#: vector error at a stabilised Ritz value is rotation within an eigenvalue
#: cluster, which barely moves embedding distances.  The drift estimate lags
#: the true Ritz error by roughly an order of magnitude, hence a value an
#: order looser than the ~1e-3 accuracy it corresponds to in practice.
DRIFT_TOL = 0.02
#: Hard eigenvalue-relative residual bound that must hold even when
#: accepting on Ritz-value stability (guards against accepting a stagnated,
#: not-yet-converged tower).
RESIDUAL_CAP = 0.2
#: ARPACK tolerance for the engine's cold solves.  The stateless path keeps
#: its machine-precision default; the engine targets embedding-grade
#: accuracy throughout, so spending Lanczos restarts beyond this would buy
#: nothing the warm path preserves.
COLD_TOL = 1e-7
#: Extra trailing eigenpairs tracked beyond the ``r - 1`` the embedding
#: needs.  They keep eigenvalue clusters at the block boundary inside the
#: iterated subspace, which is what makes the tower converge fast.
GUARD_VECTORS = 2
#: Deepest inverse-iteration Krylov tower grown before declaring a
#: fallback.  The engine remembers the depth the previous refresh needed and
#: lifts straight to it, extending two levels at a time when the
#: convergence check fails.
MAX_DEPTH = 8
#: Below this many nodes the engine always solves cold: dense solves on tiny
#: graphs are cheaper than bookkeeping.
WARM_MIN_NODES = 128
#: After this many warm failures in a row the engine stops attempting warm
#: starts for the rest of its lifetime (automatic degradation to a cold
#: solve on every refresh).
MAX_CONSECUTIVE_FALLBACKS = 3


def _mean_free(block: np.ndarray) -> np.ndarray:
    return block - block.mean(axis=0, keepdims=True)


@dataclass
class EngineStats:
    """Per-refresh outcome counters of an :class:`EmbeddingEngine`.

    Attributes
    ----------
    cold_solves:
        Full stateless solves (always includes the first refresh).
    warm_rayleigh_ritz:
        Refreshes settled by Rayleigh-Ritz subspace refinement alone.
    warm_inverse:
        Refreshes that needed warm-started inverse-iteration sweeps.
    fallbacks:
        Warm attempts whose residuals failed the acceptance test, forcing a
        cold re-solve (these are counted in ``cold_solves`` too).
    factorizations:
        Sparse LU factorisations of the engine's solver: one per refresh
        that sees a graph the last factor was not built from.
    """

    cold_solves: int = 0
    warm_rayleigh_ritz: int = 0
    warm_inverse: int = 0
    fallbacks: int = 0
    factorizations: int = 0

    @property
    def refreshes(self) -> int:
        """Total number of :meth:`EmbeddingEngine.refresh` calls recorded."""
        return self.cold_solves + self.warm_rayleigh_ritz + self.warm_inverse

    @property
    def warm_refreshes(self) -> int:
        """Refreshes served from warm state (no full eigensolve)."""
        return self.warm_rayleigh_ritz + self.warm_inverse

    def as_dict(self) -> dict:
        """JSON-ready mapping embedded in benchmark artifacts."""
        return {
            "refreshes": self.refreshes,
            "cold_solves": self.cold_solves,
            "warm_rayleigh_ritz": self.warm_rayleigh_ritz,
            "warm_inverse": self.warm_inverse,
            "fallbacks": self.fallbacks,
            "factorizations": self.factorizations,
        }


class EmbeddingEngine:
    """Stateful spectral-embedding engine with warm-started refreshes.

    Parameters
    ----------
    r:
        Number of eigenvectors as in the paper (the embedding uses the
        ``r - 1`` nontrivial vectors ``u_2 .. u_r``).
    sigma_sq:
        Prior feature variance forwarded to the Eq. (12) scaling.
    seed:
        Seed of the cold solves' Lanczos start vector.

    The warm ladder's thresholds are the module constants :data:`WARM_TOL`,
    :data:`DRIFT_TOL`, :data:`RESIDUAL_CAP`, :data:`COLD_TOL`,
    :data:`GUARD_VECTORS`, :data:`MAX_DEPTH`, :data:`WARM_MIN_NODES` and
    :data:`MAX_CONSECUTIVE_FALLBACKS`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.embedding.engine import EmbeddingEngine
    >>> from repro.graphs.generators import grid_2d
    >>> graph = grid_2d(12, 12)
    >>> engine = EmbeddingEngine(r=3)
    >>> first = engine.refresh(graph)          # first refresh is a cold solve
    >>> engine.last_mode
    'cold'
    >>> denser = graph.add_edges([(0, 50)], [1.0])
    >>> second = engine.refresh(denser, added_edges=np.array([[0, 50]]))
    >>> engine.stats.warm_refreshes
    1
    >>> second.n_nodes, second.dimension
    (144, 2)
    """

    #: Refresh outcomes reported by :attr:`last_mode`.
    MODES = ("cold", "warm-rr", "warm-inverse", "fallback")

    def __init__(self, r: int = 5, *, sigma_sq: float = np.inf, seed: int | None = 0) -> None:
        if r < 2:
            raise ValueError("r must be at least 2 (at least one nontrivial eigenvector)")
        self.r = int(r)
        self.sigma_sq = sigma_sq
        self.seed = seed

        self.stats = EngineStats()
        self.last_mode: str | None = None
        self._values: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        self._n_nodes: int | None = None
        # The factor of the last refreshed graph, and that graph.
        self._solver: LaplacianSolver | None = None
        self._solver_graph: WeightedGraph | None = None
        self._krylov_depth = 2
        self._consecutive_fallbacks = 0
        self._warm_disabled = False

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all eigenpair state; the next refresh solves cold."""
        self._values = None
        self._vectors = None
        self._n_nodes = None
        self._solver = None
        self._solver_graph = None
        self._krylov_depth = 2
        self._consecutive_fallbacks = 0
        self._warm_disabled = False
        self.last_mode = None

    def _factorize(self, graph: WeightedGraph) -> bool:
        """Make the engine's solver the factor of ``graph``; True if it was rebuilt.

        Graphs are immutable, so the factor of the same object is kept.  On
        a numerical failure the engine is left without a solver and the
        exception propagates.
        """
        if graph is self._solver_graph:
            return False
        self._solver = self._solver_graph = None
        self._solver = LaplacianSolver(graph)
        self._solver_graph = graph
        self.stats.factorizations += 1
        return True

    def solver_for(self, graph: WeightedGraph) -> LaplacianSolver | None:
        """The engine's factor when it was built from ``graph`` itself, else None.

        After a refresh of ``graph`` the engine holds the grounded LU of that
        very object, which is what Step 5 (:func:`repro.core.scaling.
        spectral_edge_scaling`) factorises too.  Any other graph, even one
        with the same edges, gets None, so a caller builds its own solver.
        """
        return self._solver if graph is self._solver_graph else None

    @property
    def has_state(self) -> bool:
        """Whether a previous refresh left warm-startable eigenpairs behind."""
        return self._vectors is not None

    # ------------------------------------------------------------------
    @staticmethod
    def _relative_residuals(
        lap_vectors: np.ndarray,
        vectors: np.ndarray,
        values: np.ndarray,
        scale: float,
    ) -> np.ndarray:
        """``||L u_i - theta_i u_i|| / theta_i`` per pair, given ``L u_i``."""
        norms = np.linalg.norm(lap_vectors - vectors * values[None, :], axis=0)
        return norms / np.maximum(values, 1e-14 * scale)

    def _warm_solve(
        self,
        graph: WeightedGraph,
        lap: sp.csr_matrix,
        k: int,
        k_work: int,
        scale: float,
    ) -> tuple[np.ndarray, np.ndarray, str] | None:
        """Try the warm ladder (Rayleigh-Ritz check, then block-Krylov tower)."""
        try:
            changed = self._factorize(graph)
        except _NUMERICAL_FAILURES:
            return None

        # Column-major blocks keep every per-column pass of the tower (the
        # solver's mean projections, the norms, the QR) on contiguous memory.
        vectors = _mean_free(np.asfortranarray(self._vectors))
        if not changed:
            # Nothing changed: the stored eigenpairs may pass the strict
            # residual test as-is.
            residuals = self._relative_residuals(
                lap @ vectors[:, :k], vectors[:, :k], self._values[:k], scale
            )
            if np.all(np.isfinite(residuals)) and bool(
                (residuals <= WARM_TOL).all()
            ):
                return self._values, vectors, "warm-rr"

        # Grow one inverse-iteration Krylov tower [V, L^-1 V_k, L^-2 V_k, ...]
        # and Rayleigh-Ritz over it.  The depth a refresh needs is strongly
        # correlated with the previous refresh's (consecutive batches have
        # similar weight), so lift straight to the remembered depth and only
        # then run the (QR + projection) check — skipping the intermediate
        # checks is what keeps hard refreshes cheap.  Because Householder QR
        # is column-progressive, the projected matrix's leading principal
        # block is the projection onto the tower minus its last level —
        # comparing Ritz values between the two gives a free convergence
        # estimate (Krylov saturation <=> eigenvalues stabilised).  The
        # estimate lags the true error by an order of magnitude (it measures
        # what the last level still contributed), hence DRIFT_TOL being
        # looser than WARM_TOL.
        blocks = [vectors]
        current = vectors[:, :k]
        depth = 0
        target = min(max(2, self._krylov_depth), MAX_DEPTH)
        while True:
            try:
                while depth < target:
                    current = self._solver.solve(current)
                    # Per-column renormalisation: the inverse-iteration
                    # recurrence grows columns by ~1/lambda_2 per level, and
                    # the span is scaling-invariant.
                    col_norms = np.linalg.norm(current, axis=0)
                    current = current / np.maximum(col_norms, 1e-300)[None, :]
                    blocks.append(current)
                    depth += 1
            except _NUMERICAL_FAILURES:
                return None
            # The tower's columns span norms over many orders of magnitude
            # before the QR, so their rounding-level constant component is
            # removed first; left in, it surfaces as spurious Ritz values
            # below lambda_2.
            subspace = _mean_free(np.hstack(blocks))
            q, _ = scipy.linalg.qr(
                subspace, mode="economic", overwrite_a=True, check_finite=False
            )
            lap_q = lap @ q
            projected = q.T @ lap_q
            projected = 0.5 * (projected + projected.T)
            inner = subspace.shape[1] - k
            inner_values = np.linalg.eigvalsh(projected[:inner, :inner])[:k]
            all_values, small_vectors = np.linalg.eigh(projected)
            values = all_values[:k_work]
            if not np.all(np.isfinite(values)):
                return None

            drift = np.abs(inner_values - values[:k]) / np.maximum(values[:k], 1e-300)
            candidate = q @ small_vectors[:, :k_work]
            # L (q s) = (L q) s: the residuals reuse the projection's product.
            residuals = self._relative_residuals(
                lap_q @ small_vectors[:, :k], candidate[:, :k], values[:k], scale
            )
            if not np.all(np.isfinite(residuals)):
                return None
            by_residual = residuals <= WARM_TOL
            stable = (drift <= DRIFT_TOL) & (residuals <= RESIDUAL_CAP)
            if bool((by_residual | stable).all()):
                # Let the remembered depth decay when the tower was deeper
                # than this batch needed, so easy stretches stay cheap.
                margin = float(np.maximum(drift, residuals / 10.0).max())
                self._krylov_depth = (
                    max(2, depth - 1) if margin <= 0.1 * DRIFT_TOL else depth
                )
                return values, candidate, "warm-inverse"
            if depth >= MAX_DEPTH:
                self._krylov_depth = 2
                return None
            target = min(depth + 2, MAX_DEPTH)
            self._krylov_depth = target

    # ------------------------------------------------------------------
    def refresh(
        self,
        graph: WeightedGraph,
        added_edges: np.ndarray | None = None,
        *,
        timings=None,
    ) -> SpectralEmbedding:
        """Return the spectral embedding of ``graph``, reusing warm state.

        Parameters
        ----------
        graph:
            The current (connected) graph.  Must keep the node set of the
            previous refresh for warm starts to apply; a changed node count
            resets the engine to a cold solve.
        added_edges:
            Optional ``(m, 2)`` array of the edges added since the previous
            refresh, recorded for bookkeeping.  The warm path does not trust
            it for correctness: it factorises whatever graph it is given, so
            removals and weight changes are handled exactly too.
        timings:
            Optional :class:`~repro.core.instrumentation.StageTimings`.  A
            warm refresh is recorded as an ``embedding_warm`` stage; cold
            solves and fallbacks as ``embedding``, the stage the stateless
            path records, so the two stay comparable.

        Returns
        -------
        SpectralEmbedding
            Identical in structure to the stateless
            :func:`~repro.embedding.spectral.spectral_embedding_matrix`
            output.
        """
        n = graph.n_nodes
        k = min(self.r - 1, n - 1)
        if k < 1:
            raise ValueError("graph too small to embed (need at least two nodes)")
        k_work = min(k + GUARD_VECTORS, n - 1)
        start = time.perf_counter()

        warm_possible = (
            not self._warm_disabled
            and self._vectors is not None
            and self._n_nodes == n
            and self._vectors.shape[1] == k_work
            and self._solver is not None
            and n >= WARM_MIN_NODES
        )

        mode = "cold"
        values = vectors = None
        if warm_possible:
            lap = graph.laplacian()
            scale = max(float(lap.diagonal().max()), 1e-300)
            warm = self._warm_solve(graph, lap, k, k_work, scale)
            if warm is not None:
                values, vectors, mode = warm
                self._consecutive_fallbacks = 0
            else:
                mode = "fallback"
                self._consecutive_fallbacks += 1
                if self._consecutive_fallbacks >= MAX_CONSECUTIVE_FALLBACKS:
                    self._warm_disabled = True

        if values is None:
            # The cold Lanczos iteration runs on the engine's factor, which
            # the next warm refresh and Step 5 reuse.  Without one (a graph
            # the factorisation rejects) the solve below reports the error
            # itself, or needs none (the dense backend).
            try:
                self._factorize(graph)
                operand = self._solver
            except _NUMERICAL_FAILURES:
                operand = graph
            # The engine targets embedding-grade accuracy (WARM_TOL), so its
            # cold solves request a finite ARPACK tolerance instead of the
            # stateless path's machine-precision default — several Lanczos
            # restarts cheaper at identical embedding quality.
            values, vectors = laplacian_eigenpairs(
                operand,
                k_work,
                drop_trivial=True,
                tol=COLD_TOL,
                seed=self.seed,
            )
            self.stats.cold_solves += 1
            if mode == "fallback":
                self.stats.fallbacks += 1
        elif mode == "warm-rr":
            self.stats.warm_rayleigh_ritz += 1
        else:
            self.stats.warm_inverse += 1

        self.last_mode = mode
        self._values = values
        self._vectors = vectors
        self._n_nodes = n
        embedding = embedding_from_eigenpairs(values[:k], vectors[:, :k], self.sigma_sq)
        if timings is not None:
            # The stage name is only known after the refresh, hence add_interval.
            stage = "embedding_warm" if mode in ("warm-rr", "warm-inverse") else "embedding"
            timings.add_interval(stage, start, time.perf_counter(), mode=mode,
                                 fallbacks=self.stats.fallbacks,
                                 factorizations=self.stats.factorizations)
        return embedding

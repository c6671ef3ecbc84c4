"""The SGL graph learner (Algorithm 1 of the paper).

Given voltage measurements ``X`` (and optionally the current excitations
``Y``), the learner:

1. builds a connected kNN graph over the measurement vectors and extracts its
   maximum spanning tree as the initial graph (Step 1);
2. repeatedly embeds the current graph spectrally (Step 2), ranks the
   remaining off-tree kNN edges by sensitivity (Step 3) and adds the top
   ``ceil(N beta)`` edges whose sensitivity exceeds ``tol`` (Step 4);
3. once no influential edges remain, rescales all edge weights so the learned
   graph's voltage response energies match the measured ones (Step 5).

Step 2 is the loop's hot spot.  It runs through the warm-started
:class:`~repro.embedding.EmbeddingEngine`, which reuses the previous
iteration's eigenvectors instead of re-solving the eigenproblem from scratch,
and solves cold by Lanczos on the Laplacian pseudo-inverse when a warm
refresh is not accepted.

Steps 2-4 are written once, as :func:`densify` over a :class:`DensifyState`;
the online learner's incremental pass and the sharded stitch run the same
loop.

The result is an ultra-sparse resistor network (density slightly above one)
whose spectral-embedding / effective-resistance distances encode the measured
voltage distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SGLConfig
from repro.core.history import IterationRecord, SGLHistory
from repro.core.instrumentation import StageTimings
from repro.obs.tracing import set_attributes, span as obs_span
from repro.core.objective import graphical_lasso_objective
from repro.core.scaling import spectral_edge_scaling
from repro.core.sensitivity import data_distances_squared, edge_sensitivities
from repro.embedding.engine import EmbeddingEngine
from repro.embedding.spectral import SpectralEmbedding, StatelessEmbeddingEngine
from repro.graphs.graph import WeightedGraph
from repro.knn.knn_graph import knn_graph
from repro.knn.mst import maximum_spanning_tree
from repro.linalg.solvers import LaplacianSolver
from repro.linalg.threads import single_threaded_blas
from repro.measurements.generator import MeasurementSet
from repro.measurements.validation import check_measurements

__all__ = ["DensifyState", "SGLearner", "SGLResult", "densify", "learn_graph", "make_engine"]


@dataclass(frozen=True)
class SGLResult:
    """Outcome of an SGL learning run.

    Attributes
    ----------
    graph:
        The learned resistor network after edge scaling (Step 5).
    unscaled_graph:
        The learned graph before Step 5 (identical topology and relative
        weights; only the global conductance scale differs).
    initial_graph:
        The maximum spanning tree the densification started from.
    knn_graph:
        The kNN graph providing the candidate edge pool.
    history:
        Per-iteration convergence records (max sensitivity, edge counts,
        optionally the objective).
    converged:
        True when the loop stopped because the maximum sensitivity dropped
        below ``tol`` (as opposed to exhausting candidates or iterations).
    scaling_factor:
        The global conductance factor applied by Step 5 (1.0 when currents
        were not available or scaling was disabled).
    config:
        The configuration used.
    timings:
        Per-stage wall-clock counters recorded during :meth:`SGLearner.fit`
        (stages ``knn``, ``initial_tree``, ``candidate_pool``, ``embedding``,
        ``embedding_warm``, ``sensitivity``, ``objective``,
        ``edge_selection``, ``edge_scaling``).  ``embedding`` counts cold /
        fallback eigensolves and ``embedding_warm`` warm-started refreshes.
    engine_stats:
        Refresh-outcome counters of the embedding engine
        (:meth:`repro.embedding.EngineStats.as_dict`), or ``None`` for an
        engine that keeps none
        (:class:`~repro.embedding.StatelessEmbeddingEngine`).

    Examples
    --------
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.graphs.generators import grid_2d
    >>> data = simulate_measurements(grid_2d(8, 8), n_measurements=30, seed=0)
    >>> result = learn_graph(data, beta=0.05)
    >>> result.n_iterations >= 1 and 1.0 <= result.density <= 2.0
    True
    >>> sorted(result.engine_stats)[:2]
    ['cold_solves', 'factorizations']
    """

    graph: WeightedGraph
    unscaled_graph: WeightedGraph
    initial_graph: WeightedGraph
    knn_graph: WeightedGraph
    history: SGLHistory
    converged: bool
    scaling_factor: float
    config: SGLConfig
    timings: StageTimings = field(default_factory=StageTimings)
    engine_stats: dict | None = None

    @property
    def n_iterations(self) -> int:
        """Number of densification iterations executed."""
        return len(self.history)

    @property
    def density(self) -> float:
        """Density ``|E|/|V|`` of the learned graph."""
        return self.graph.density


def make_engine(config: SGLConfig) -> EmbeddingEngine:
    """The Step-2 engine, built from ``config``.

    The batch fit and the online learner both build their engine here.
    """
    return EmbeddingEngine(config.r, sigma_sq=config.sigma_sq, seed=config.seed)


@dataclass
class DensifyState:
    """What the densification loop (:func:`densify`) works on.

    Attributes
    ----------
    graph:
        The working (unscaled) graph.
    pool_edges, pool_weights:
        The candidate edges not yet in ``graph``, with their Step-1 weights.
    engine:
        The Step-2 engine; anything with ``refresh(graph, added_edges, *,
        timings)`` (see :func:`make_engine`).
    embedding:
        The engine's last embedding (``None`` before the first refresh).
    pending:
        The edges added since ``embedding`` was computed; ``None`` when it
        is current.
    """

    graph: WeightedGraph
    pool_edges: np.ndarray
    pool_weights: np.ndarray
    engine: EmbeddingEngine | StatelessEmbeddingEngine
    embedding: SpectralEmbedding | None = None
    pending: np.ndarray | None = None

    @classmethod
    def from_candidates(cls, graph: WeightedGraph, candidates: WeightedGraph, engine) -> DensifyState:
        """The state whose pool is every edge of ``candidates`` not in ``graph``."""
        missing = ~graph.has_edges(candidates.edges)
        return cls(graph, candidates.edges[missing], candidates.weights[missing].copy(), engine)

    def refresh(self, timings: StageTimings) -> SpectralEmbedding:
        """Bring ``embedding`` up to date with ``graph`` (Step 2)."""
        if self.embedding is None or self.pending is not None:
            self.embedding = self.engine.refresh(self.graph, self.pending, timings=timings)
            self.pending = None
        return self.embedding

    def solver(self) -> LaplacianSolver | None:
        """The engine's factor of ``graph``, or None when it holds none.

        Only an :class:`~repro.embedding.EmbeddingEngine` whose last refresh
        factorised this very graph object has one
        (:meth:`~repro.embedding.EmbeddingEngine.solver_for`).  With
        ``pending`` edges, after a caller put back an older graph, or with
        another engine, Step 5 builds its own.
        """
        if isinstance(self.engine, EmbeddingEngine):
            return self.engine.solver_for(self.graph)
        return None

    def add(self, chosen: np.ndarray) -> np.ndarray:
        """Move the pool entries ``chosen`` into the graph (Step 4).

        Returns the mask of the pool entries that stay in the pool, for a
        caller that keeps per-candidate arrays beside it.  Call it only with
        a current embedding, as :func:`densify` does.
        """
        keep = np.ones(self.pool_edges.shape[0], dtype=bool)
        if chosen.size == 0:
            return keep
        edges = self.pool_edges[chosen]
        # Pool edges are canonical and never in the graph, so one sorted
        # insert gives the canonical arrays add_edges would re-sort into.
        graph = self.graph
        keys = edges[:, 0] * np.int64(graph.n_nodes) + edges[:, 1]
        order = np.argsort(keys)
        at = np.searchsorted(graph._packed_keys(), keys[order])
        self.graph = WeightedGraph._from_canonical(
            graph.n_nodes,
            np.insert(graph.rows, at, edges[order, 0]),
            np.insert(graph.cols, at, edges[order, 1]),
            np.insert(graph.weights, at, self.pool_weights[chosen][order]),
        )
        keep[chosen] = False
        self.pool_edges = self.pool_edges[keep]
        self.pool_weights = self.pool_weights[keep]
        self.pending = edges
        return keep


def densify(
    state: DensifyState,
    voltages: np.ndarray,
    config: SGLConfig,
    *,
    max_iterations: int,
    timings: StageTimings,
) -> tuple[SGLHistory, bool]:
    """Steps 2-4 of Algorithm 1: embed, rank the pool, add the top edges, repeat.

    Runs on ``state`` in place for at most ``max_iterations`` iterations and
    returns their history, plus whether the loop converged: it ran out of
    candidates or of edges above ``config.tol``, rather than of iterations.
    The embedding is refreshed lazily at the top of an iteration, so on
    return ``state.pending`` holds the edges the last iteration added; call
    :meth:`DensifyState.refresh` for an embedding of the final graph.

    The batch fit, the online learner's incremental pass and the sharded
    stitch all run this loop.
    """
    history = SGLHistory()
    batch_size = config.edges_per_iteration(state.graph.n_nodes)
    data_term = None
    for iteration in range(max_iterations):
        if state.pool_edges.shape[0] == 0:
            return history, True
        with obs_span(
            "iteration",
            iteration=iteration,
            n_edges=state.graph.n_edges,
            n_candidates=int(state.pool_edges.shape[0]),
        ):
            embedding = state.refresh(timings)
            with timings.stage("sensitivity"):
                if data_term is None:
                    # The data do not change inside the loop, so each
                    # candidate's z_data / M is computed once and shrinks
                    # with the pool.
                    data_term = data_distances_squared(voltages, state.pool_edges) / voltages.shape[1]
                sensitivities = edge_sensitivities(
                    embedding, voltages, state.pool_edges, data_term=data_term
                )
            max_sensitivity = float(sensitivities.max())

            objective = None
            if config.track_objective:
                with timings.stage("objective"):
                    objective = graphical_lasso_objective(
                        state.graph,
                        voltages,
                        sigma_sq=config.sigma_sq,
                        n_eigenvalues=config.objective_eigenvalues,
                        seed=config.seed,
                    )

            # Step 3: add the top-ranked influential edges.
            n_added = 0
            if max_sensitivity >= config.tol:
                with timings.stage("edge_selection"):
                    order = np.argsort(sensitivities)[::-1][:batch_size]
                    chosen = order[sensitivities[order] > config.tol]
                    data_term = data_term[state.add(chosen)]
                n_added = int(chosen.size)

            history.append(
                IterationRecord(
                    iteration=iteration,
                    max_sensitivity=max_sensitivity,
                    n_edges=state.graph.n_edges,
                    n_edges_added=n_added,
                    objective=objective,
                )
            )
            set_attributes(max_sensitivity=max_sensitivity, n_edges_added=n_added)
        if n_added == 0:
            return history, True
    return history, False


class SGLearner:
    """Spectral graph learner implementing Algorithm 1.

    Parameters
    ----------
    config:
        A :class:`~repro.core.SGLConfig`; keyword overrides may be passed
        instead (``SGLearner(k=5, r=5, beta=0.01)``).

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.measurements import simulate_measurements
    >>> graph = grid_2d(10, 10)
    >>> measurements = simulate_measurements(graph, n_measurements=30, seed=0)
    >>> result = SGLearner(beta=0.05, max_iterations=50).fit(measurements)
    >>> result.graph.n_nodes
    100
    """

    def __init__(self, config: SGLConfig | None = None, **overrides) -> None:
        if config is None:
            config = SGLConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    def _initial_graphs(
        self, voltages: np.ndarray, timings: StageTimings
    ) -> tuple[WeightedGraph, WeightedGraph]:
        """Build the candidate kNN graph and its maximum spanning tree (Step 1)."""
        config = self.config
        n_nodes = voltages.shape[0]
        k = min(config.k, n_nodes - 1)
        with timings.stage("knn"):
            candidates = knn_graph(
                voltages,
                k,
                weight_scheme="sgl",
                ensure_connected=True,
                backend=config.knn_backend,
                backend_options={"seed": config.seed},
            )
        with timings.stage("initial_tree"):
            return candidates, maximum_spanning_tree(candidates)

    # ------------------------------------------------------------------
    def fit(
        self,
        measurements: MeasurementSet | np.ndarray,
        currents: np.ndarray | None = None,
        *,
        timings: StageTimings | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> SGLResult:
        """Learn a resistor network from measurements.

        Parameters
        ----------
        measurements:
            A :class:`~repro.measurements.MeasurementSet`, or a bare voltage
            matrix ``X`` of shape ``(N, M)``.
        currents:
            Optional current matrix ``Y`` when ``measurements`` is a bare
            array; ignored otherwise.
        timings:
            Optional :class:`~repro.core.instrumentation.StageTimings` to
            accumulate stage timings into (e.g. across benchmark repeats); a
            fresh one is created otherwise.  Either way it is attached to the
            result as ``result.timings``.
        checkpoint_path:
            When given, the finished result is persisted as a model artifact
            (:func:`repro.artifacts.save_result`, embedding included) at
            this path, ready for :mod:`repro.serve`.  The ``checkpoint``
            stage in the timings records what the save cost.

        Returns
        -------
        SGLResult

        Raises
        ------
        repro.measurements.MeasurementError
            For a non-finite voltage or current, a column whose energy
            overflows, voltages constant across nodes in every column, or a
            zero-energy voltage column driven by a nonzero current
            (:func:`repro.measurements.check_measurements`).
        """
        return self._fit(
            measurements, currents, timings=timings, checkpoint_path=checkpoint_path
        )[0]

    def _fit(
        self,
        measurements: MeasurementSet | np.ndarray,
        currents: np.ndarray | None = None,
        *,
        timings: StageTimings | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> tuple[SGLResult, DensifyState]:
        """:meth:`fit`, also returning the loop's final :class:`DensifyState`.

        The online learner adopts that state (engine and last embedding)
        instead of building a second engine after a refit.
        """
        if isinstance(measurements, MeasurementSet):
            voltages = measurements.voltages
            currents = measurements.currents
        else:
            voltages = np.asarray(measurements, dtype=np.float64)
            if currents is not None:
                currents = np.asarray(currents, dtype=np.float64)
        if voltages.ndim != 2:
            raise ValueError("voltages must be an (N, M) matrix")
        n_nodes, n_measurements = voltages.shape
        if n_nodes < 3:
            raise ValueError("need at least three nodes to learn a graph")
        check_measurements(voltages, currents)
        config = self.config
        if timings is None:
            timings = StageTimings()

        # The whole fit runs under one root span (a no-op without an active
        # repro.obs tracer); every stage entry below nests under it, and
        # each densification iteration gets its own child span, so a traced
        # run yields fit -> iteration -> stage trees whose per-stage totals
        # are exactly the StageTimings sums.  The body's dense kernels work
        # on N x ~r blocks, where a second BLAS thread costs more than it
        # saves (docs/performance.md, "BLAS threads").
        with obs_span(
            "sgl.fit",
            n_nodes=n_nodes,
            n_measurements=n_measurements,
            knn_backend=config.knn_backend,
        ):
            with single_threaded_blas():
                result, state = self._fit_body(voltages, currents, timings, checkpoint_path)
            set_attributes(
                converged=result.converged,
                n_iterations=result.n_iterations,
                n_edges_learned=result.graph.n_edges,
            )
        return result, state

    def _fit_body(
        self,
        voltages: np.ndarray,
        currents: np.ndarray | None,
        timings: StageTimings,
        checkpoint_path: str | Path | None,
    ) -> tuple[SGLResult, DensifyState]:
        """The body of :meth:`fit`, run under the ``sgl.fit`` root span."""
        config = self.config
        candidates, graph = self._initial_graphs(voltages, timings)
        initial_graph = graph.copy()
        engine = make_engine(config)
        with timings.stage("candidate_pool"):
            state = DensifyState.from_candidates(graph, candidates, engine)
        history, converged = densify(
            state, voltages, config, max_iterations=config.max_iterations, timings=timings
        )

        unscaled = graph = state.graph
        scaling_factor = 1.0
        if config.edge_scaling and currents is not None:
            with timings.stage("edge_scaling"):
                graph, scaling_factor = spectral_edge_scaling(
                    graph, voltages, currents, solver=state.solver()
                )

        result = SGLResult(
            graph=graph,
            unscaled_graph=unscaled,
            initial_graph=initial_graph,
            knn_graph=candidates,
            history=history,
            converged=converged,
            scaling_factor=scaling_factor,
            config=config,
            timings=timings,
            engine_stats=None if engine.stats is None else engine.stats.as_dict(),
        )
        if checkpoint_path is not None:
            # Local import: repro.artifacts depends on this module's types.
            from repro.artifacts.store import save_result

            with timings.stage("checkpoint"):
                save_result(result, checkpoint_path)
        return result, state


def learn_graph(
    measurements: MeasurementSet | np.ndarray,
    currents: np.ndarray | None = None,
    *,
    config: SGLConfig | None = None,
    **overrides,
) -> SGLResult:
    """Convenience wrapper: ``SGLearner(config or overrides).fit(measurements)``.

    Examples
    --------
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.graphs.generators import grid_2d
    >>> data = simulate_measurements(grid_2d(8, 8), n_measurements=30, seed=0)
    >>> result = learn_graph(data, beta=0.05)
    >>> result.graph.is_connected() and result.graph.n_nodes == 64
    True
    """
    learner = SGLearner(config=config, **overrides) if config is not None or overrides else SGLearner()
    return learner.fit(measurements, currents)

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

Step 2 is the loop's hot spot.  By default it runs through the warm-started
incremental :class:`~repro.embedding.EmbeddingEngine`, which reuses the
previous iteration's eigenvectors instead of re-solving the eigenproblem from
scratch.  ``SGLConfig.embedding_engine = "multilevel"`` switches to the
coarsen-solve-refine :class:`~repro.embedding.MultilevelEmbeddingEngine`
(the paper's near-linear-time path, fastest at paper scale), and
``"stateless"`` restores the old recompute-every-iteration behaviour.

The result is an ultra-sparse resistor network (density slightly above one)
whose spectral-embedding / effective-resistance distances encode the measured
voltage distances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import SGLConfig
from repro.core.history import IterationRecord, SGLHistory
from repro.core.instrumentation import StageTimings
from repro.obs.tracing import set_attributes, span as obs_span
from repro.core.objective import graphical_lasso_objective
from repro.core.scaling import spectral_edge_scaling
from repro.core.sensitivity import edge_sensitivities
from repro.embedding.engine import EmbeddingEngine
from repro.embedding.multilevel_engine import MultilevelEmbeddingEngine
from repro.embedding.spectral import spectral_embedding_matrix
from repro.graphs.graph import WeightedGraph
from repro.knn.knn_graph import knn_graph
from repro.knn.mst import maximum_spanning_tree
from repro.linalg.threads import single_threaded_blas
from repro.measurements.generator import MeasurementSet
from repro.measurements.validation import check_measurements

__all__ = ["SGLearner", "SGLResult", "learn_graph"]


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
        The spanning tree (or other initial graph) the densification started
        from.
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
        ``embedding_warm``, ``coarsen``, ``refine``, ``sensitivity``,
        ``objective``, ``edge_selection``, ``edge_scaling``).  ``embedding``
        counts cold / fallback eigensolves and ``embedding_warm``
        warm-started refreshes (incremental engine); ``coarsen`` /
        ``refine`` split the multilevel engine's hierarchy maintenance and
        coarse-solve-prolongate-refine phases.
    engine_stats:
        Refresh-outcome counters of the stateful embedding engine
        (:meth:`repro.embedding.EngineStats.as_dict` or
        :meth:`repro.embedding.MultilevelEngineStats.as_dict`), or ``None``
        when the stateless path was used.

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
        """Build the candidate kNN graph and the initial graph (Step 1)."""
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
        if config.initial_graph == "knn":
            return candidates, candidates.copy()
        if config.initial_graph == "mst":
            with timings.stage("initial_tree"):
                return candidates, maximum_spanning_tree(candidates)
        # "random-tree": a spanning tree chosen with random edge priorities.
        rng = np.random.default_rng(config.seed)
        random_priorities = candidates.with_weights(rng.random(candidates.n_edges) + 0.5)
        tree_topology = maximum_spanning_tree(random_priorities)
        # Restore the SGL weights on the chosen tree edges (one vectorised
        # binary-search lookup instead of an O(V*E) per-edge scan).
        tree = WeightedGraph(
            candidates.n_nodes,
            tree_topology.rows,
            tree_topology.cols,
            candidates.edge_weights(tree_topology.edges),
        )
        return candidates, tree

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
            overflows, or a zero-energy voltage column driven by a nonzero
            current (:func:`repro.measurements.check_measurements`).
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
            embedding_engine=config.embedding_engine,
            knn_backend=config.knn_backend,
        ):
            with single_threaded_blas():
                result = self._fit_body(voltages, currents, timings, checkpoint_path)
            set_attributes(
                converged=result.converged,
                n_iterations=result.n_iterations,
                n_edges_learned=result.graph.n_edges,
            )
        return result

    def _fit_body(
        self,
        voltages: np.ndarray,
        currents: np.ndarray | None,
        timings: StageTimings,
        checkpoint_path: str | Path | None,
    ) -> SGLResult:
        """The body of :meth:`fit`, run under the ``sgl.fit`` root span."""
        config = self.config
        n_nodes = voltages.shape[0]

        candidates, graph = self._initial_graphs(voltages, timings)
        initial_graph = graph.copy()

        # Candidate pool: off-tree edges of the kNN graph, with the paper's
        # M / ||x_s - x_t||^2 weights precomputed once.
        with timings.stage("candidate_pool"):
            pool_mask = ~graph.has_edges(candidates.edges)
            pool_edges = candidates.edges[pool_mask]
            pool_weights = candidates.weights[pool_mask].copy()

        history = SGLHistory()
        converged = False
        batch_size = config.edges_per_iteration(n_nodes)

        engine: EmbeddingEngine | MultilevelEmbeddingEngine | None = None
        if config.embedding_engine == "incremental":
            engine = EmbeddingEngine(
                config.r,
                sigma_sq=config.sigma_sq,
                method=config.eigensolver,
                seed=config.seed,
                multilevel_coarse_size=config.multilevel_coarse_size,
            )
        elif config.embedding_engine == "multilevel":
            engine = MultilevelEmbeddingEngine(
                config.r,
                sigma_sq=config.sigma_sq,
                coarse_size=config.multilevel_coarse_size,
                churn_threshold=config.multilevel_churn_threshold,
                refinement=config.refinement_backend,
                refine_dtype=config.refine_dtype,
                linalg_backend=config.linalg_backend,
                seed=config.seed,
            )
        added_edges: np.ndarray | None = None

        for iteration in range(config.max_iterations):
            if pool_edges.shape[0] == 0:
                converged = True
                break
            with obs_span(
                "iteration",
                iteration=iteration,
                n_edges=graph.n_edges,
                n_candidates=int(pool_edges.shape[0]),
            ):
                if isinstance(engine, MultilevelEmbeddingEngine):
                    # The engine times its own phases into "coarsen" /
                    # "refine" (and tags the spans with its V-cycle state).
                    embedding = engine.refresh(graph, added_edges, timings=timings)
                elif engine is not None:
                    # Warm refreshes land in "embedding_warm"; cold solves
                    # and fallbacks stay in "embedding" so the stages stay
                    # comparable with the stateless path.  The stage name is
                    # only known after the refresh, hence add_interval.
                    start = time.perf_counter()
                    embedding = engine.refresh(graph, added_edges)
                    end = time.perf_counter()
                    stage = (
                        "embedding_warm"
                        if engine.last_mode in ("warm-rr", "warm-inverse")
                        else "embedding"
                    )
                    timings.add_interval(
                        stage,
                        start,
                        end,
                        mode=engine.last_mode,
                        fallbacks=engine.stats.fallbacks,
                        factorizations=engine.stats.factorizations,
                    )
                else:
                    with timings.stage("embedding", method=config.eigensolver):
                        embedding = spectral_embedding_matrix(
                            graph,
                            config.r,
                            sigma_sq=config.sigma_sq,
                            method=config.eigensolver,
                            seed=config.seed,
                            multilevel_coarse_size=config.multilevel_coarse_size,
                        )
                with timings.stage("sensitivity"):
                    sensitivities = edge_sensitivities(
                        embedding,
                        voltages,
                        pool_edges,
                        n_samples=config.sensitivity_samples,
                        seed=config.seed,
                    )
                max_sensitivity = float(sensitivities.max())

                objective = None
                if config.track_objective:
                    with timings.stage("objective"):
                        objective = graphical_lasso_objective(
                            graph,
                            voltages,
                            sigma_sq=config.sigma_sq,
                            n_eigenvalues=config.objective_eigenvalues,
                            seed=config.seed,
                        )

                if max_sensitivity < config.tol:
                    history.append(
                        IterationRecord(
                            iteration=iteration,
                            max_sensitivity=max_sensitivity,
                            n_edges=graph.n_edges,
                            n_edges_added=0,
                            objective=objective,
                        )
                    )
                    converged = True
                    set_attributes(max_sensitivity=max_sensitivity, n_edges_added=0)
                    break

                # Step 3: add the top-ranked influential edges.
                with timings.stage("edge_selection"):
                    order = np.argsort(sensitivities)[::-1][:batch_size]
                    chosen = order[sensitivities[order] > config.tol]
                    add_edges = pool_edges[chosen]
                    add_weights = pool_weights[chosen]
                    graph = graph.add_edges(add_edges, add_weights)
                    added_edges = add_edges

                    keep = np.ones(pool_edges.shape[0], dtype=bool)
                    keep[chosen] = False
                    pool_edges = pool_edges[keep]
                    pool_weights = pool_weights[keep]

                history.append(
                    IterationRecord(
                        iteration=iteration,
                        max_sensitivity=max_sensitivity,
                        n_edges=graph.n_edges,
                        n_edges_added=int(chosen.size),
                        objective=objective,
                    )
                )
                set_attributes(
                    max_sensitivity=max_sensitivity,
                    n_edges_added=int(chosen.size),
                )
                if chosen.size == 0:
                    converged = True
                    break

        unscaled = graph
        scaling_factor = 1.0
        if config.edge_scaling and currents is not None:
            with timings.stage("edge_scaling"):
                graph, scaling_factor = spectral_edge_scaling(graph, voltages, currents)

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
            engine_stats=engine.stats.as_dict() if engine is not None else None,
        )
        if checkpoint_path is not None:
            # Local import: repro.artifacts depends on this module's types.
            from repro.artifacts.store import save_result

            with timings.stage("checkpoint"):
                save_result(result, checkpoint_path)
        return result


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

"""Online SGL: incremental graph updates over a stream of measurement batches.

:class:`OnlineSGLearner` wraps the batch :class:`~repro.core.SGLearner` for
the serve-N-while-fitting-N+1 world of ROADMAP item 3.  One initial
:meth:`fit` learns a graph from the first measurement window exactly as the
batch learner would; every subsequent :meth:`update` appends a new batch to
the window and then chooses, per batch, between two paths:

* **incremental** — a bounded number of densification mini-iterations over
  the *existing* candidate pool, reusing the persistent warm-started
  :class:`~repro.embedding.EmbeddingEngine` (Woodbury-corrected refreshes,
  no cold eigensolve) and finishing with a Step-5 rescale against the
  current window.  Cost: a few warm refreshes — a small fraction of a fit.
* **full refit** — the batch learner re-run on the whole window, rebuilding
  the kNN candidate pool and the embedding engine from scratch.  Chosen by
  the :class:`~repro.stream.DriftDetector` when the incoming batch's
  measurement distribution has left the learned subspace, when the energy
  scale jumps, on a forced cadence, or after the incremental path reported
  objective degradation (residual sensitivity it could not drive down).

Every accepted update emits a ``stream.update`` span (with per-stage child
spans via :class:`~repro.core.instrumentation.StageTimings`) and — when a
:class:`~repro.artifacts.ModelRegistry` is attached — publishes a versioned
snapshot whose lineage points at the previous version, so a follower
(``repro-serve --follow name@latest``) can hot-swap to it with zero downtime.

Examples
--------
>>> from repro.graphs.generators import grid_2d
>>> from repro.stream import MeasurementStream, OnlineSGLearner
>>> stream = MeasurementStream(grid_2d(6, 6), batch_size=8, seed=0)
>>> learner = OnlineSGLearner(beta=0.05, max_iterations=30)
>>> first = learner.fit(stream.next_batch())
>>> first.mode
'initial'
>>> second = learner.update(stream.next_batch())
>>> second.mode in ("incremental", "refit")
True
>>> learner.graph.n_nodes
36
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SGLConfig
from repro.core.history import IterationRecord, SGLHistory
from repro.core.instrumentation import StageTimings
from repro.core.scaling import spectral_edge_scaling
from repro.core.sensitivity import edge_sensitivities
from repro.core.sgl import SGLearner, SGLResult
from repro.embedding.engine import EmbeddingEngine
from repro.graphs.graph import WeightedGraph
from repro.linalg.threads import single_threaded_blas
from repro.measurements.generator import MeasurementSet
from repro.measurements.validation import check_measurements
from repro.obs.tracing import set_attributes, span as obs_span
from repro.stream.drift import DriftDecision, DriftDetector

__all__ = ["OnlineSGLearner", "StreamUpdate"]


@dataclass(frozen=True)
class StreamUpdate:
    """Outcome of one accepted measurement batch.

    Attributes
    ----------
    index:
        0-based update counter (the initial :meth:`OnlineSGLearner.fit`
        is index 0 with mode ``"initial"``).
    mode:
        ``"initial"``, ``"incremental"`` or ``"refit"``.
    decision:
        The drift decision that chose the path (``None`` for the initial fit).
    graph:
        The scaled learned graph after this update.
    scaling_factor:
        Step-5 global conductance factor applied for this update.
    n_edges_added:
        Edges added to the learned topology by this update.
    max_sensitivity:
        Largest remaining candidate-edge sensitivity after the update.
    version:
        The registry snapshot published for this update (``None`` without a
        registry).
    timings:
        Per-stage wall-clock for this update only.
    wall_seconds:
        Total wall-clock of the update.
    """

    index: int
    mode: str
    decision: DriftDecision | None
    graph: WeightedGraph
    scaling_factor: float
    n_edges_added: int
    max_sensitivity: float
    version: object | None = None
    timings: StageTimings = field(default_factory=StageTimings)
    wall_seconds: float = 0.0


class OnlineSGLearner:
    """Incremental SGL over measurement batches (see module docstring).

    Parameters
    ----------
    config:
        The :class:`~repro.core.SGLConfig` for full (re)fits; keyword
        overrides may be passed instead, as with ``SGLearner``.  The online
        path requires the warm-capable incremental engine, so
        ``embedding_engine`` must not be ``"stateless"``.
    drift:
        The refit/incremental decision policy; a default
        :class:`~repro.stream.DriftDetector` is built otherwise.
    registry:
        Optional :class:`~repro.artifacts.ModelRegistry`; when given, every
        accepted update publishes a versioned snapshot under ``model_name``
        with lineage back to the previous snapshot.
    model_name:
        Registry name snapshots are published under.
    max_window:
        Keep at most this many newest measurement columns (``None`` =
        unbounded).  Bounds both refit cost and memory over a long stream.
    incremental_iterations:
        Densification mini-iterations per incremental update.
    degradation_ratio:
        After an incremental pass, residual max sensitivity above
        ``degradation_ratio * max(tol, last refit's final sensitivity)``
        flags objective degradation, forcing a refit on the next update
        (``None`` disables the check).
    """

    def __init__(
        self,
        config: SGLConfig | None = None,
        *,
        drift: DriftDetector | None = None,
        registry=None,
        model_name: str = "online",
        max_window: int | None = None,
        incremental_iterations: int = 2,
        degradation_ratio: float | None = 25.0,
        **overrides,
    ) -> None:
        if config is None:
            config = SGLConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        if config.embedding_engine == "stateless":
            raise ValueError(
                "OnlineSGLearner needs a warm-capable engine; "
                "use embedding_engine='incremental' or 'multilevel'"
            )
        if max_window is not None and max_window < 1:
            raise ValueError("max_window must be positive")
        if incremental_iterations < 1:
            raise ValueError("incremental_iterations must be positive")
        self.config = config
        self.drift = drift if drift is not None else DriftDetector()
        self.registry = registry
        self.model_name = model_name
        self.max_window = max_window
        self.incremental_iterations = int(incremental_iterations)
        self.degradation_ratio = degradation_ratio

        self._voltages: np.ndarray | None = None
        self._currents: np.ndarray | None = None
        self._graph: WeightedGraph | None = None  # unscaled working topology
        self._scaled_graph: WeightedGraph | None = None
        self._scaling_factor = 1.0
        self._candidates: WeightedGraph | None = None
        self._pool_edges: np.ndarray | None = None
        self._pool_weights: np.ndarray | None = None
        self._engine: EmbeddingEngine | None = None
        self._embedding: np.ndarray | None = None
        self._refit_sensitivity = config.tol
        self._last_result: SGLResult | None = None
        self._version = None
        self._n_updates = 0
        self.updates: list[StreamUpdate] = []

    # ------------------------------------------------------------------
    @property
    def graph(self) -> WeightedGraph:
        """The current scaled learned graph."""
        if self._scaled_graph is None:
            raise RuntimeError("call fit() before reading the learned graph")
        return self._scaled_graph

    @property
    def embedding(self):
        """The current :class:`~repro.embedding.SpectralEmbedding`."""
        if self._embedding is None:
            raise RuntimeError("call fit() before reading the embedding")
        return self._embedding

    @property
    def window(self) -> MeasurementSet:
        """The current measurement window as a :class:`MeasurementSet`."""
        if self._voltages is None:
            raise RuntimeError("call fit() before reading the window")
        return MeasurementSet(self._voltages, self._currents)

    @property
    def last_version(self):
        """The most recently published registry snapshot (or ``None``)."""
        return self._version

    @property
    def n_updates(self) -> int:
        """Accepted updates so far, the initial fit included."""
        return self._n_updates

    # ------------------------------------------------------------------
    def _append_window(self, batch: MeasurementSet) -> None:
        if self._voltages is None:
            self._voltages = batch.voltages.copy()
            self._currents = None if batch.currents is None else batch.currents.copy()
        else:
            if batch.n_nodes != self._voltages.shape[0]:
                raise ValueError("batch node count does not match the window")
            self._voltages = np.concatenate([self._voltages, batch.voltages], axis=1)
            if self._currents is not None and batch.currents is not None:
                self._currents = np.concatenate(
                    [self._currents, batch.currents], axis=1
                )
            else:
                self._currents = None
        if self.max_window is not None and self._voltages.shape[1] > self.max_window:
            self._voltages = self._voltages[:, -self.max_window :]
            if self._currents is not None:
                self._currents = self._currents[:, -self.max_window :]

    def _adopt_refit(self, result: SGLResult) -> None:
        """Rebuild the incremental working state from a fresh full fit."""
        config = self.config
        self._last_result = result
        self._graph = result.unscaled_graph
        self._scaled_graph = result.graph
        self._scaling_factor = result.scaling_factor
        self._candidates = result.knn_graph
        pool_mask = ~result.unscaled_graph.has_edges(self._candidates.edges)
        self._pool_edges = self._candidates.edges[pool_mask]
        self._pool_weights = self._candidates.weights[pool_mask].copy()
        self._engine = EmbeddingEngine(
            config.r,
            sigma_sq=config.sigma_sq,
            method=config.eigensolver,
            seed=config.seed,
            multilevel_coarse_size=config.multilevel_coarse_size,
        )
        self._embedding = self._engine.refresh(self._graph, None)
        final = result.history.records[-1].max_sensitivity if len(result.history) else 0.0
        self._refit_sensitivity = max(config.tol, final)
        self.drift.reset(self.window, self._scaled_graph)

    def _publish(self, timings: StageTimings, update: StreamUpdate | None, *, mode: str,
                 decision: DriftDecision | None, history: SGLHistory) -> object | None:
        if self.registry is None:
            return None
        with timings.stage("publish"):
            snapshot = SGLResult(
                graph=self._scaled_graph,
                unscaled_graph=self._graph,
                initial_graph=self._last_result.initial_graph,
                knn_graph=self._candidates,
                history=history,
                converged=True,
                scaling_factor=self._scaling_factor,
                config=self.config,
                timings=timings,
                engine_stats=self._engine.stats.as_dict(),
            )
            metadata = {
                "stream": {
                    "update": self._n_updates,
                    "mode": mode,
                    "decision": None if decision is None else decision.as_dict(),
                    "window_measurements": int(self._voltages.shape[1]),
                }
            }
            self._version = self.registry.publish(
                snapshot,
                self.model_name,
                parent=self._version,
                metadata=metadata,
                embedding=self._embedding.coordinates,
            )
        return self._version

    # ------------------------------------------------------------------
    def fit(self, measurements: MeasurementSet) -> StreamUpdate:
        """Learn the initial graph from the first measurement window.

        Raises :class:`~repro.measurements.MeasurementError` for a batch
        :func:`~repro.measurements.check_measurements` rejects, before any
        state changes.
        """
        if self._graph is not None:
            raise RuntimeError("fit() already ran; use update() for new batches")
        check_measurements(measurements.voltages, measurements.currents)
        start = time.perf_counter()
        timings = StageTimings()
        with obs_span("stream.fit", n_nodes=measurements.n_nodes), single_threaded_blas():
            self._append_window(measurements)
            result = SGLearner(self.config).fit(self.window, timings=timings)
            self._adopt_refit(result)
            version = self._publish(
                timings, None, mode="initial", decision=None, history=result.history
            )
        update = StreamUpdate(
            index=0,
            mode="initial",
            decision=None,
            graph=self._scaled_graph,
            scaling_factor=self._scaling_factor,
            n_edges_added=result.graph.n_edges - result.initial_graph.n_edges,
            max_sensitivity=(
                result.history.records[-1].max_sensitivity if len(result.history) else 0.0
            ),
            version=version,
            timings=timings,
            wall_seconds=time.perf_counter() - start,
        )
        self._n_updates = 1
        self.updates.append(update)
        return update

    def update(self, new_measurements: MeasurementSet) -> StreamUpdate:
        """Fold one new measurement batch into the learned graph.

        Raises :class:`~repro.measurements.MeasurementError` for a batch
        :func:`~repro.measurements.check_measurements` rejects, before the
        window or the drift state changes.  Like :meth:`SGLearner.fit`, the
        update runs its dense kernels on one BLAS thread.
        """
        if self._graph is None:
            raise RuntimeError("call fit() with the initial window first")
        check_measurements(new_measurements.voltages, new_measurements.currents)
        start = time.perf_counter()
        timings = StageTimings()
        with obs_span(
            "stream.update",
            update=self._n_updates,
            n_new=new_measurements.n_measurements,
        ), single_threaded_blas():
            with timings.stage("drift_check"):
                decision = self.drift.assess(new_measurements)
            self._append_window(new_measurements)
            if decision.refit:
                mode = "refit"
                result = SGLearner(self.config).fit(self.window, timings=timings)
                self._adopt_refit(result)
                history = result.history
                n_added = result.graph.n_edges - result.initial_graph.n_edges
                max_sensitivity = (
                    history.records[-1].max_sensitivity if len(history) else 0.0
                )
            else:
                mode = "incremental"
                history, n_added, max_sensitivity = self._incremental_pass(timings)
            version = self._publish(
                timings, None, mode=mode, decision=decision, history=history
            )
            set_attributes(
                mode=mode,
                reason=decision.reason,
                n_edges_added=n_added,
                max_sensitivity=max_sensitivity,
                version=None if version is None else version.version,
            )
        update = StreamUpdate(
            index=self._n_updates,
            mode=mode,
            decision=decision,
            graph=self._scaled_graph,
            scaling_factor=self._scaling_factor,
            n_edges_added=n_added,
            max_sensitivity=max_sensitivity,
            version=version,
            timings=timings,
            wall_seconds=time.perf_counter() - start,
        )
        self._n_updates += 1
        self.updates.append(update)
        return update

    # ------------------------------------------------------------------
    def _incremental_pass(
        self, timings: StageTimings
    ) -> tuple[SGLHistory, int, float]:
        """Bounded densification against the current window (no cold solve)."""
        config = self.config
        voltages = self._voltages
        history = SGLHistory()
        total_added = 0
        max_sensitivity = 0.0
        batch_size = config.edges_per_iteration(self._graph.n_nodes)
        for iteration in range(self.incremental_iterations):
            if self._pool_edges.shape[0] == 0:
                break
            with timings.stage("sensitivity"):
                sensitivities = edge_sensitivities(
                    self._embedding,
                    voltages,
                    self._pool_edges,
                    n_samples=config.sensitivity_samples,
                    seed=config.seed,
                )
            max_sensitivity = float(sensitivities.max())
            if max_sensitivity < config.tol:
                history.append(
                    IterationRecord(
                        iteration=iteration,
                        max_sensitivity=max_sensitivity,
                        n_edges=self._graph.n_edges,
                        n_edges_added=0,
                    )
                )
                break
            with timings.stage("edge_selection"):
                order = np.argsort(sensitivities)[::-1][:batch_size]
                chosen = order[sensitivities[order] > config.tol]
                add_edges = self._pool_edges[chosen]
                add_weights = self._pool_weights[chosen]
                self._graph = self._graph.add_edges(add_edges, add_weights)
                keep = np.ones(self._pool_edges.shape[0], dtype=bool)
                keep[chosen] = False
                self._pool_edges = self._pool_edges[keep]
                self._pool_weights = self._pool_weights[keep]
            total_added += int(chosen.size)
            history.append(
                IterationRecord(
                    iteration=iteration,
                    max_sensitivity=max_sensitivity,
                    n_edges=self._graph.n_edges,
                    n_edges_added=int(chosen.size),
                )
            )
            if chosen.size == 0:
                break
            # Warm-started refresh keyed to exactly the edges just added.
            refresh_start = time.perf_counter()
            self._embedding = self._engine.refresh(self._graph, add_edges)
            refresh_end = time.perf_counter()
            stage = (
                "embedding_warm"
                if self._engine.last_mode in ("warm-rr", "warm-inverse")
                else "embedding"
            )
            timings.add_interval(
                stage, refresh_start, refresh_end, mode=self._engine.last_mode
            )
        if config.edge_scaling and self._currents is not None:
            with timings.stage("edge_scaling"):
                self._scaled_graph, self._scaling_factor = spectral_edge_scaling(
                    self._graph, voltages, self._currents
                )
        else:
            self._scaled_graph = self._graph
            self._scaling_factor = 1.0
        if (
            self.degradation_ratio is not None
            and max_sensitivity > self.degradation_ratio * self._refit_sensitivity
        ):
            self.drift.flag_degradation()
        return history, total_added, max_sensitivity

"""Online SGL: incremental graph updates over a stream of measurement batches.

:class:`OnlineSGLearner` wraps the batch :class:`~repro.core.SGLearner` for
the serve-N-while-fitting-N+1 world of ROADMAP item 3.  One initial
:meth:`fit` learns a graph from the first measurement window exactly as the
batch learner would; every subsequent :meth:`update` appends a new batch to
the window and then chooses, per batch, between two paths:

* **incremental** — a bounded number of iterations of the batch learner's
  densification loop (:func:`~repro.core.sgl.densify`) over the *existing*
  candidate pool, reusing the persistent embedding engine (warm refreshes,
  no cold eigensolve) and finishing with a Step-5 rescale against the
  current window.  Cost: a few warm refreshes — a small fraction of a fit.
* **full refit** — the batch learner re-run on the whole window, rebuilding
  the kNN candidate pool and the embedding engine from scratch; the learner
  then carries on from the fit's loop state (its engine and last
  embedding) instead of building a second engine.  Chosen by
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

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SGLConfig
from repro.core.history import SGLHistory
from repro.core.instrumentation import StageTimings
from repro.core.scaling import spectral_edge_scaling
from repro.core.sgl import DensifyState, SGLearner, SGLResult, densify
from repro.graphs.graph import WeightedGraph
from repro.linalg.threads import single_threaded_blas
from repro.measurements.generator import MeasurementSet
from repro.measurements.validation import check_measurements
from repro.obs.tracing import set_attributes, span as obs_span
from repro.stream.drift import DriftDecision, DriftDetector

# The sensitivity pass now runs inside repro.core.sgl.densify, but sglbench's
# traced run still patches this module's ``edge_sensitivities`` attribute by
# name (as it patches ``spectral_edge_scaling``), so the name must resolve.
from repro.core.sensitivity import edge_sensitivities  # noqa: F401

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
        The :class:`~repro.core.SGLConfig` for full (re)fits and for the
        incremental updates; keyword overrides may be passed instead, as
        with ``SGLearner``.
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
        # The densification loop's state: unscaled working topology, the
        # candidate pool, the embedding engine and its current embedding.
        self._state: DensifyState | None = None
        self._scaled_graph: WeightedGraph | None = None
        self._scaling_factor = 1.0
        self._refit_sensitivity = config.tol
        self._last_result: SGLResult | None = None
        self._version = None
        self._n_updates = 0

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
        if self._state is None:
            raise RuntimeError("call fit() before reading the embedding")
        return self._state.embedding

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

    def _refit(self, timings: StageTimings) -> SGLResult:
        """Run the batch learner on the window and carry on from its loop state."""
        result, state = SGLearner(self.config)._fit(self.window, timings=timings)
        # Publish an embedding of the published graph.
        state.refresh(timings)
        self._last_result = result
        self._state = state
        self._scaled_graph = result.graph
        self._scaling_factor = result.scaling_factor
        final = result.history.records[-1].max_sensitivity if len(result.history) else 0.0
        self._refit_sensitivity = max(self.config.tol, final)
        self.drift.reset(self.window, self._scaled_graph)
        return result

    def _publish(self, timings: StageTimings, update: StreamUpdate | None, *, mode: str,
                 decision: DriftDecision | None, history: SGLHistory) -> object | None:
        if self.registry is None:
            return None
        with timings.stage("publish"):
            snapshot = SGLResult(
                graph=self._scaled_graph,
                unscaled_graph=self._state.graph,
                initial_graph=self._last_result.initial_graph,
                knn_graph=self._last_result.knn_graph,
                history=history,
                converged=True,
                scaling_factor=self._scaling_factor,
                config=self.config,
                timings=timings,
                engine_stats=self._state.engine.stats.as_dict(),
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
                embedding=self._state.embedding.coordinates,
            )
        return self._version

    # ------------------------------------------------------------------
    def fit(self, measurements: MeasurementSet) -> StreamUpdate:
        """Learn the initial graph from the first measurement window.

        Raises :class:`~repro.measurements.MeasurementError` for a batch
        :func:`~repro.measurements.check_measurements` rejects, before any
        state changes.
        """
        if self._state is not None:
            raise RuntimeError("fit() already ran; use update() for new batches")
        check_measurements(measurements.voltages, measurements.currents)
        start = time.perf_counter()
        timings = StageTimings()
        with obs_span("stream.fit", n_nodes=measurements.n_nodes), single_threaded_blas():
            self._append_window(measurements)
            result = self._refit(timings)
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
        return update

    def update(self, new_measurements: MeasurementSet) -> StreamUpdate:
        """Fold one new measurement batch into the learned graph.

        Raises :class:`~repro.measurements.MeasurementError` for a batch
        :func:`~repro.measurements.check_measurements` rejects, before the
        window or the drift state changes.  A batch that fails later (Step 5
        rejecting its energies, say) leaves the learner as it found it: the
        window, graphs, scale, candidate pool and drift state are restored,
        and the next update refits if the failed one had already moved the
        embedding engine's warm state.  Like :meth:`SGLearner.fit`, the
        update runs its dense kernels on one BLAS thread.
        """
        if self._state is None:
            raise RuntimeError("call fit() with the initial window first")
        check_measurements(new_measurements.voltages, new_measurements.currents)
        start = time.perf_counter()
        timings = StageTimings()
        with obs_span(
            "stream.update",
            update=self._n_updates,
            n_new=new_measurements.n_measurements,
        ), single_threaded_blas():
            saved = self._checkpoint()
            try:
                with timings.stage("drift_check"):
                    decision = self.drift.assess(new_measurements)
                self._append_window(new_measurements)
                if decision.refit:
                    mode = "refit"
                    result = self._refit(timings)
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
            except BaseException:
                self._rollback(saved)
                raise
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
        return update

    # ------------------------------------------------------------------
    def _checkpoint(self) -> tuple:
        """The state an update may change, for :meth:`_rollback`.

        An update replaces these fields, or the loop state's fields, and
        never mutates them in place, so references plus a shallow copy of
        the loop state are a complete snapshot.
        """
        return (
            self._voltages, self._currents, dataclasses.replace(self._state),
            self._scaled_graph, self._scaling_factor, self._refit_sensitivity,
            self._last_result, self._version, self.drift.snapshot(),
            self._state.engine.stats.refreshes,
        )

    def _rollback(self, saved: tuple) -> None:
        """Put back the state of :meth:`_checkpoint` after a failed update.

        The engine's warm state is not copied, so when the failed update
        already refreshed it, the next update is forced to refit.
        """
        (
            self._voltages, self._currents, self._state,
            self._scaled_graph, self._scaling_factor, self._refit_sensitivity,
            self._last_result, self._version, drift_state, refreshes,
        ) = saved
        self.drift.restore(drift_state)
        if self._state.engine.stats.refreshes != refreshes:
            self.drift.flag_degradation()

    def _incremental_pass(
        self, timings: StageTimings
    ) -> tuple[SGLHistory, int, float]:
        """Bounded densification against the current window (no cold solve)."""
        config = self.config
        state = self._state
        history, _ = densify(
            state,
            self._voltages,
            config,
            max_iterations=self.incremental_iterations,
            timings=timings,
        )
        # Publish an embedding of the published graph.
        state.refresh(timings)
        if config.edge_scaling and self._currents is not None:
            with timings.stage("edge_scaling"):
                self._scaled_graph, self._scaling_factor = spectral_edge_scaling(
                    state.graph, self._voltages, self._currents, solver=state.solver()
                )
        else:
            self._scaled_graph = state.graph
            self._scaling_factor = 1.0
        max_sensitivity = float(history.max_sensitivities[-1]) if len(history) else 0.0
        if (
            self.degradation_ratio is not None
            and max_sensitivity > self.degradation_ratio * self._refit_sensitivity
        ):
            self.drift.flag_degradation()
        return history, int(history.edges_added.sum()), max_sensitivity

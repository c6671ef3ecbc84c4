"""Tests for repro.stream: streams, drift decisions, the online learner."""

import numpy as np
import pytest

from repro.artifacts import ModelRegistry, load_result
from repro.core.sgl import SGLearner
from repro.graphs.generators import grid_2d
from repro.measurements import MeasurementError, MeasurementSet
from repro.measurements.generator import simulate_measurements
from repro.obs.session import ObsSession
from repro.stream import (
    STREAM_MODES,
    DriftDetector,
    MeasurementStream,
    OnlineSGLearner,
)


def small_stream(mode="additive", **kwargs):
    kwargs.setdefault("seed", 0)
    return MeasurementStream(grid_2d(6, 6), batch_size=10, mode=mode, **kwargs)


class TestMeasurementStream:
    def test_additive_truth_is_frozen(self):
        stream = small_stream("additive")
        for batch in stream.batches(3):
            assert batch.voltages.shape == (36, 10)
            assert batch.currents is not None
        assert stream.truth is stream.initial_truth
        assert stream.n_batches == 3

    def test_drift_perturbs_every_batch(self):
        stream = small_stream("drift", drift_rate=0.05)
        weights = [stream.truth.weights.copy()]
        for _ in stream.batches(2):
            weights.append(stream.truth.weights.copy())
        assert not np.allclose(weights[0], weights[1])
        assert not np.allclose(weights[1], weights[2])
        # Drift perturbs multiplicatively: topology never changes.
        assert stream.truth.n_edges == stream.initial_truth.n_edges

    def test_shift_jumps_exactly_once(self):
        stream = small_stream("shift", drift_rate=0.05, shift_at=2)
        weights = [stream.truth.weights.copy()]
        for _ in stream.batches(4):
            weights.append(stream.truth.weights.copy())
        assert np.array_equal(weights[0], weights[1])
        assert np.array_equal(weights[1], weights[2])
        assert not np.allclose(weights[2], weights[3])  # the jump
        assert np.array_equal(weights[3], weights[4])

    def test_batches_solve_the_current_truth(self):
        stream = small_stream("drift", drift_rate=0.1)
        batch = stream.next_batch()
        residual = stream.truth.laplacian() @ batch.voltages - batch.currents
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(batch.currents)

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            small_stream("sideways")
        with pytest.raises(ValueError, match="batch_size"):
            MeasurementStream(grid_2d(4, 4), batch_size=0)
        with pytest.raises(ValueError, match="drift_rate"):
            small_stream("drift", drift_rate=-1.0)
        assert STREAM_MODES == ("additive", "drift", "shift")


class TestDriftDetector:
    def reference(self, mode="additive", n=40, **kwargs):
        stream = small_stream(mode, **kwargs)
        columns = [stream.next_batch() for _ in range(n // stream.batch_size)]
        voltages = np.concatenate([b.voltages for b in columns], axis=1)
        currents = np.concatenate([b.currents for b in columns], axis=1)
        from repro.measurements.generator import MeasurementSet

        return stream, MeasurementSet(voltages, currents)

    def test_stable_on_fresh_batches_of_the_same_truth(self):
        stream, window = self.reference("additive")
        result = SGLearner(beta=0.05, max_iterations=30).fit(window)
        detector = DriftDetector()
        detector.reset(window, result.graph)
        for _ in range(3):
            decision = detector.assess(stream.next_batch())
            assert not decision.refit and decision.reason == "stable"
            assert decision.residual_ratio == pytest.approx(1.0, abs=0.35)
        assert detector.updates_since_refit == 3

    def test_residual_fires_on_regime_shift(self):
        stream, window = self.reference(
            "shift", drift_rate=0.1, shift_at=4, shift_scale=10.0
        )
        result = SGLearner(beta=0.05, max_iterations=30).fit(window)
        detector = DriftDetector()
        detector.reset(window, result.graph)
        decision = detector.assess(stream.next_batch())  # the jump batch
        assert decision.refit and decision.reason == "residual"
        assert decision.residual_ratio > detector.residual_threshold

    def test_energy_ratio_fires_on_conductance_rescale(self):
        stream, window = self.reference("additive")
        result = SGLearner(beta=0.05, max_iterations=30).fit(window)
        detector = DriftDetector()
        detector.reset(window, result.graph)
        batch = stream.next_batch()
        # A global 10x conductance drop scales voltages 10x: residual and
        # energy both move, and the *energy* trigger must catch it even if
        # the batch carries no currents (registry-only voltage streams).
        decision = detector.assess(batch.voltages * 10.0)
        assert decision.refit
        assert decision.reason in ("residual", "energy")
        assert decision.energy_ratio > 10.0

    def test_voltage_only_fallback_has_no_residual(self):
        _, window = self.reference("additive")
        detector = DriftDetector()
        detector.reset(window.voltages)  # no graph, no currents
        decision = detector.assess(window.voltages[:, :8])
        assert np.isnan(decision.residual_ratio)
        assert not decision.refit

    def test_cadence_forces_periodic_refit(self):
        _, window = self.reference("additive")
        detector = DriftDetector(max_updates_between_refits=2)
        detector.reset(window.voltages)
        batch = window.voltages[:, :8]
        assert not detector.assess(batch).refit
        assert not detector.assess(batch).refit
        decision = detector.assess(batch)
        assert decision.refit and decision.reason == "cadence"

    def test_snapshot_restore_undoes_assess_and_reset(self):
        _, window = self.reference("additive")
        detector = DriftDetector(max_updates_between_refits=2)
        detector.reset(window.voltages)
        batch = window.voltages[:, :8]
        detector.assess(batch)
        state = detector.snapshot()
        expected = detector.assess(batch)
        detector.reset(window.voltages[:, 8:])
        detector.flag_degradation()
        detector.restore(state)
        assert detector.updates_since_refit == 1
        again = detector.assess(batch)
        assert (again.reason, again.novelty) == (expected.reason, expected.novelty)
        assert detector.assess(batch).reason == "cadence"

    def test_degradation_latch(self):
        _, window = self.reference("additive")
        detector = DriftDetector()
        detector.reset(window.voltages)
        detector.flag_degradation()
        decision = detector.assess(window.voltages[:, :8])
        assert decision.refit and decision.reason == "degradation"
        detector.reset(window.voltages)  # reset clears the latch
        assert not detector.assess(window.voltages[:, :8]).refit

    def test_as_dict_round_trips_through_json(self):
        import json

        _, window = self.reference("additive")
        detector = DriftDetector()
        detector.reset(window.voltages)
        payload = detector.assess(window.voltages[:, :8]).as_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["reason"] == "stable"
        assert set(decoded) == {
            "refit", "reason", "residual_ratio", "novelty",
            "energy_ratio", "updates_since_refit",
        }

    def test_constructor_validation(self):
        for kwargs in (
            {"residual_threshold": 1.0},
            {"novelty_margin": 0.0},
            {"energy_threshold": 0.5},
            {"subspace_rank": 0},
            {"max_updates_between_refits": -1},
        ):
            with pytest.raises(ValueError):
                DriftDetector(**kwargs)
        with pytest.raises(RuntimeError, match="reset"):
            DriftDetector().assess(np.zeros((4, 2)))


class TestOnlineSGLearner:
    def make_learner(self, tmp_path=None, **kwargs):
        registry = None
        if tmp_path is not None:
            registry = ModelRegistry(tmp_path / "registry")
        kwargs.setdefault("beta", 0.05)
        kwargs.setdefault("max_iterations", 30)
        return OnlineSGLearner(registry=registry, model_name="grid", **kwargs), registry

    def test_initial_fit_matches_batch_learner(self):
        data = simulate_measurements(grid_2d(6, 6), n_measurements=30, seed=0)
        learner, _ = self.make_learner()
        first = learner.fit(data)
        reference = SGLearner(beta=0.05, max_iterations=30).fit(data)
        assert first.mode == "initial" and first.index == 0
        assert learner.graph == reference.graph
        assert learner.window.n_measurements == 30

    def test_updates_publish_lineage_chained_snapshots(self, tmp_path):
        stream = small_stream("additive")
        learner, registry = self.make_learner(tmp_path)
        learner.fit(stream.next_batch())
        for batch in stream.batches(3):
            update = learner.update(batch)
            assert update.version is not None
        chain = registry.lineage("grid@latest")
        assert [v.version for v in chain] == [4, 3, 2, 1]
        assert learner.last_version.version == 4
        loaded = load_result(registry.resolve("grid@latest"))
        assert loaded.graph == learner.graph
        meta = registry.get("grid@latest").metadata["stream"]
        assert meta["mode"] in ("incremental", "refit")
        assert "decision" in meta

    def test_incremental_update_only_adds_edges(self):
        stream = small_stream("additive")
        learner, _ = self.make_learner()
        learner.fit(stream.next_batch())
        before = learner.graph.n_edges
        update = None
        for batch in stream.batches(3):
            update = learner.update(batch)
            if update.mode == "incremental":
                break
        assert update is not None and update.mode == "incremental"
        assert learner.graph.n_edges >= before
        assert update.n_edges_added >= 0
        assert update.scaling_factor > 0

    def test_window_is_bounded(self):
        stream = small_stream("additive")
        learner, _ = self.make_learner(max_window=25)
        learner.fit(stream.next_batch())
        for batch in stream.batches(3):
            learner.update(batch)
        assert learner.window.n_measurements == 25

    def test_refit_on_shift_recovers_drift_reset(self):
        stream = small_stream("shift", drift_rate=0.15, shift_at=1, shift_scale=10.0)
        learner, _ = self.make_learner()
        learner.fit(stream.next_batch())
        updates = [learner.update(batch) for batch in stream.batches(3)]
        modes = [u.mode for u in updates]
        assert "refit" in modes
        refit_index = modes.index("refit")
        assert updates[refit_index].decision.reason in ("residual", "energy")

    def test_updates_emit_spans(self):
        stream = small_stream("additive")
        learner, _ = self.make_learner()
        with ObsSession() as obs:
            learner.fit(stream.next_batch())
            learner.update(stream.next_batch())
        spans = obs.tracer.spans()
        names = [s.name for s in spans]
        assert names.count("stream.fit") == 1
        assert names.count("stream.update") == 1
        assert "drift_check" in names
        update_span = next(s for s in spans if s.name == "stream.update")
        assert update_span.attributes["mode"] in ("incremental", "refit")
        assert "n_new" in update_span.attributes

    def test_published_stream_emits_the_stage_spans(self, tmp_path):
        # With a registry attached: one stream.fit, one stream.update per
        # batch, and the stream-only stages under them -- a drift_check in
        # every update and a publish for every version.
        stream = small_stream("drift", drift_rate=0.02)
        learner, registry = self.make_learner(tmp_path)
        with ObsSession() as obs:
            learner.fit(stream.next_batch())
            for batch in stream.batches(3):
                learner.update(batch)
        spans = obs.tracer.spans()
        names = [s.name for s in spans]
        assert names.count("stream.fit") == 1
        assert names.count("stream.update") == 3
        assert names.count("drift_check") == 3
        assert names.count("publish") == 4
        by_id = {s.span_id: s for s in spans}

        def root(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
            return span.name

        assert [root(s) for s in spans if s.name == "publish"] == [
            "stream.fit", "stream.update", "stream.update", "stream.update",
        ]
        assert {root(s) for s in spans if s.name == "drift_check"} == {"stream.update"}
        assert registry.get("grid@latest").version == 4

    def test_update_timings_cover_the_stream_stages(self):
        stream = small_stream("additive")
        learner, _ = self.make_learner()
        learner.fit(stream.next_batch())
        update = learner.update(stream.next_batch())
        stages = set(update.timings.stages)
        assert "drift_check" in stages
        if update.mode == "incremental":
            assert "edge_scaling" in stages

    def test_constructor_validation(self):
        # The engine is no longer a choice: the field is gone.
        with pytest.raises(TypeError, match="embedding_engine"):
            OnlineSGLearner(embedding_engine="stateless")
        with pytest.raises(ValueError, match="max_window"):
            OnlineSGLearner(max_window=0)
        with pytest.raises(ValueError, match="incremental_iterations"):
            OnlineSGLearner(incremental_iterations=0)
        from repro.core.config import SGLConfig

        with pytest.raises(ValueError, match="not both"):
            OnlineSGLearner(SGLConfig(), beta=0.1)

    def test_rejected_update_leaves_the_learner_as_it_found_it(self):
        # A batch at 1e150 passes the boundary checks, then Step 5 rejects
        # its energies.  The window must not keep the poisoned columns: the
        # next good batch must scale exactly as it would have without it.
        data = simulate_measurements(grid_2d(15, 15), 50, seed=0)
        volts, amps = data.voltages, data.currents

        def learner_after(poison):
            learner = OnlineSGLearner(beta=0.05, max_window=80)
            learner.fit(MeasurementSet(volts[:, :30], amps[:, :30]))
            if poison:
                graph, since = learner.graph, learner.drift.updates_since_refit
                with pytest.raises(MeasurementError):
                    learner.update(MeasurementSet(volts[:, 30:40] * 1e150, amps[:, 30:40]))
                assert learner.window.n_measurements == 30
                assert learner.graph is graph
                assert learner.drift.updates_since_refit == since
                assert learner.n_updates == 1
            return learner, learner.update(MeasurementSet(volts[:, 40:50], amps[:, 40:50]))

        (clean, clean_update), (poisoned, update) = learner_after(False), learner_after(True)
        assert update.scaling_factor == clean_update.scaling_factor
        assert update.mode == clean_update.mode
        assert poisoned.graph == clean.graph
        assert np.array_equal(poisoned.window.voltages, clean.window.voltages)

    def test_failed_update_that_moved_the_engine_forces_a_refit(self, monkeypatch):
        # An incremental pass that already refreshed the embedding engine
        # cannot roll the engine's warm state back; everything else is
        # restored and the next update refits.
        import repro.stream.learner as learner_module

        data = simulate_measurements(grid_2d(15, 15), 50, seed=0)
        batch = MeasurementSet(data.voltages[:, 30:40], data.currents[:, 30:40])
        # One fit iteration leaves sensitive candidates for the update to add.
        learner = OnlineSGLearner(beta=0.05, max_window=80, max_iterations=1)
        first = learner.fit(MeasurementSet(data.voltages[:, :30], data.currents[:, :30]))
        graph, scale = learner.graph, first.scaling_factor
        pool = learner._state.pool_edges.copy()
        refreshes = learner._state.engine.stats.refreshes

        def failing_scaling(*args, **kwargs):
            raise RuntimeError("step 5 failed")

        monkeypatch.setattr(learner_module, "spectral_edge_scaling", failing_scaling)
        with pytest.raises(RuntimeError, match="step 5 failed"):
            learner.update(batch)
        assert learner._state.engine.stats.refreshes > refreshes  # the pass added edges
        assert learner.graph is graph
        assert learner._state.graph.n_edges == graph.n_edges
        assert learner._scaling_factor == scale
        assert np.array_equal(learner._state.pool_edges, pool)
        assert learner.window.n_measurements == 30
        monkeypatch.undo()
        update = learner.update(batch)
        assert (update.mode, update.decision.reason) == ("refit", "degradation")

    def test_learner_keeps_no_old_update_graphs(self):
        # Each StreamUpdate holds its scaled graph; a long stream must not
        # keep every one of them alive through the learner.
        import gc
        import weakref

        from repro.stream import DriftDecision

        stream = small_stream("additive")
        learner, _ = self.make_learner()
        learner.fit(stream.next_batch())
        # Incremental updates only: a refit's result stays referenced as the
        # base of later snapshots.
        learner.drift.assess = lambda batch: DriftDecision(False, "stable", 1.0, 0.0, 1.0, 0)
        update = learner.update(stream.next_batch())
        assert update.mode == "incremental"
        # WeightedGraph has no weakref slot; its scaled weight array is this
        # update's own and lives exactly as long as the graph does (the
        # ``weights`` property hands out views of it).
        early = weakref.ref(update.graph._weights)
        del update
        for _ in range(3):
            learner.update(stream.next_batch())
        gc.collect()
        assert early() is None

    def test_update_before_fit_rejected(self):
        learner, _ = self.make_learner()
        with pytest.raises(RuntimeError, match="fit"):
            learner.update(small_stream().next_batch())
        with pytest.raises(RuntimeError, match="fit"):
            learner.graph

"""The densification loop (Steps 2-4) and its three callers.

``repro.core.sgl.densify`` runs the batch fit, the online learner's
incremental pass and the sharded stitch.  The golden cases pin the learned
edge sets and weights of all three callers, on a grid, an FEM mesh and a
circuit, for the embedding engine and for the stateless reference (a cold
solve every iteration).  They were recorded before the three loops were
merged into one; regenerate them only for a change that is meant
to move the learned graphs:

    PYTHONPATH=src python tests/test_densify.py --record
"""

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core import sgl
from repro.core.config import SGLConfig
from repro.core.sensitivity import data_distances_squared, edge_sensitivities
from repro.core.sgl import SGLearner
from repro.embedding.spectral import spectral_embedding_matrix
from repro.embedding import EmbeddingEngine
from repro.graphs.generators import circuit_grid, fe_mesh, grid_2d
from repro.measurements import simulate_measurements
from repro.partition import ShardedSGLearner
from repro.stream import DriftDecision, MeasurementStream, OnlineSGLearner
from stateless_reference import engine_under_test

GOLDEN = pathlib.Path(__file__).parent / "data" / "densify_golden.json"
INPUTS = {
    "grid": lambda: grid_2d(13, 13, weight_spread=4.0, seed=0),
    "fem": lambda: fe_mesh(170, seed=0),
    "circuit": lambda: circuit_grid(13, 13, seed=0),
}
ENGINES = ("incremental", "stateless")
#: The online learner needs a warm-capable engine.
ONLINE_ENGINES = ("incremental",)
N_UPDATES = 10
#: The update before which a refit is forced (by flagging degradation).
REFIT_AT = 5


CONFIG = SGLConfig(beta=0.03)


def _as_record(graph) -> dict:
    return {"edges": graph.edges.ravel().tolist(), "weights": graph.weights.tolist()}


def run_fit(name: str, engine: str):
    data = simulate_measurements(INPUTS[name](), 40, seed=1)
    with engine_under_test(engine):
        return SGLearner(CONFIG).fit(data).graph


def run_online(name: str, engine: str):
    """Ten updates with a refit forced before update ``REFIT_AT``."""
    stream = MeasurementStream(INPUTS[name](), batch_size=12, drift_rate=0.02, seed=2)
    learner = OnlineSGLearner(CONFIG, max_window=60)
    learner.fit(stream.next_batch())
    modes = []
    for index in range(N_UPDATES):
        if index == REFIT_AT:
            learner.drift.flag_degradation()
        modes.append(learner.update(stream.next_batch()).mode)
    return learner, modes


def run_sharded(name: str, engine: str):
    data = simulate_measurements(INPUTS[name](), 40, seed=1)
    with engine_under_test(engine):
        return ShardedSGLearner(CONFIG, num_parts=4).fit(data)


def record() -> dict:
    golden: dict = {"fit": {}, "online": {}, "sharded": {}}
    for name in INPUTS:
        for engine in ENGINES:
            key = f"{name}/{engine}"
            golden["fit"][key] = _as_record(run_fit(name, engine))
            sharded = run_sharded(name, engine)
            golden["sharded"][key] = dict(
                _as_record(sharded.graph),
                correction_edges=sharded.stitch_stats["correction_edges"],
            )
        for engine in ONLINE_ENGINES:
            learner, modes = run_online(name, engine)
            golden["online"][f"{name}/{engine}"] = dict(_as_record(learner.graph), modes=modes)
    return golden


def _golden():
    return json.loads(GOLDEN.read_text())


def _assert_matches(graph, expected: dict) -> None:
    assert graph.edges.ravel().tolist() == expected["edges"]
    np.testing.assert_allclose(graph.weights, expected["weights"], rtol=1e-10, atol=0.0)


CASES = [(name, engine) for name in INPUTS for engine in ENGINES]


@pytest.mark.parametrize(("name", "engine"), CASES)
def test_fit_matches_golden(name, engine):
    _assert_matches(run_fit(name, engine), _golden()["fit"][f"{name}/{engine}"])


@pytest.mark.parametrize(("name", "engine"), CASES)
def test_sharded_matches_golden(name, engine):
    expected = _golden()["sharded"][f"{name}/{engine}"]
    result = run_sharded(name, engine)
    _assert_matches(result.graph, expected)
    assert result.stitch_stats["correction_edges"] == expected["correction_edges"]


@pytest.mark.parametrize(("name", "engine"), [(n, e) for n in INPUTS for e in ONLINE_ENGINES])
def test_online_matches_golden(name, engine):
    expected = _golden()["online"][f"{name}/{engine}"]
    learner, modes = run_online(name, engine)
    assert modes == expected["modes"]
    assert modes[REFIT_AT] == "refit"
    _assert_matches(learner.graph, expected)


def _stream_learner():
    stream = MeasurementStream(INPUTS["grid"](), batch_size=12, drift_rate=0.02, seed=2)
    learner = OnlineSGLearner(dataclasses.replace(CONFIG, max_iterations=2), max_window=60)
    learner.fit(stream.next_batch())
    return learner, stream


def test_online_updates_refresh_the_configured_engine():
    learner, stream = _stream_learner()
    engine = learner._state.engine
    assert isinstance(engine, EmbeddingEngine)
    before = engine.stats.refreshes
    learner.drift.assess = lambda batch: DriftDecision(False, "stable", 1.0, 0.0, 1.0, 0)
    update = learner.update(stream.next_batch())
    assert update.mode == "incremental" and update.n_edges_added > 0
    assert learner._state.engine is engine
    assert engine.stats.refreshes > before
    assert update.timings.seconds("embedding_warm") > 0.0


def test_refit_adopts_the_fits_engine_without_a_cold_solve():
    learner, stream = _stream_learner()
    learner.drift.flag_degradation()
    update = learner.update(stream.next_batch())
    assert update.mode == "refit"
    engine = learner._state.engine
    # One cold solve starts the fit; the embedding the refit publishes is
    # the fit's own, refreshed warm for the last iteration's edges.
    assert engine.stats.cold_solves == learner._last_result.engine_stats["cold_solves"] == 1
    assert engine.stats.refreshes == learner._last_result.engine_stats["refreshes"] + 1
    assert learner._state.pending is None
    assert learner.embedding.n_nodes == learner.graph.n_nodes


def test_data_term_gives_the_same_sensitivities():
    graph = INPUTS["fem"]()
    data = simulate_measurements(graph, 40, seed=1)
    embedding = spectral_embedding_matrix(graph, 5)
    pairs = graph.edges
    data_term = data_distances_squared(data.voltages, pairs) / data.n_measurements
    np.testing.assert_array_equal(
        edge_sensitivities(embedding, data.voltages, pairs, data_term=data_term),
        edge_sensitivities(embedding, data.voltages, pairs),
    )


def test_densify_passes_each_iteration_the_pools_data_term(monkeypatch):
    """The data term is computed once per call and must follow the shrinking pool."""
    calls = []
    original = sgl.edge_sensitivities

    def recording(embedding, voltages, pairs, **kwargs):
        fresh = data_distances_squared(voltages, pairs) / voltages.shape[1]
        calls.append(np.array_equal(kwargs["data_term"], fresh))
        return original(embedding, voltages, pairs, **kwargs)

    monkeypatch.setattr(sgl, "edge_sensitivities", recording)
    result = SGLearner(CONFIG).fit(simulate_measurements(INPUTS["grid"](), 40, seed=1))
    assert len(calls) == len(result.history) > 1
    assert all(calls)


@pytest.mark.parametrize("seed", range(6))
def test_state_add_matches_add_edges(seed):
    """The sorted insert of ``DensifyState.add`` builds what ``add_edges`` does."""
    rng = np.random.default_rng(seed)
    tree = INPUTS[("grid", "fem", "circuit")[seed % 3]]()
    candidates = tree.add_edges(
        rng.integers(0, tree.n_nodes, size=(300, 2)), rng.random(300) + 0.5
    )
    state = sgl.DensifyState.from_candidates(tree, candidates, engine=None)
    n_pool = state.pool_edges.shape[0]
    for size in (0, 1, n_pool // 3, n_pool // 3):
        graph, pool_edges, pool_weights = state.graph, state.pool_edges, state.pool_weights
        chosen = rng.permutation(pool_edges.shape[0])[:size]
        keep = state.add(chosen)
        want = graph.add_edges(pool_edges[chosen], pool_weights[chosen])
        for got_array, want_array in (
            (state.graph.rows, want.rows),
            (state.graph.cols, want.cols),
            (state.graph.weights, want.weights),
        ):
            assert got_array.dtype == want_array.dtype
            np.testing.assert_array_equal(got_array, want_array)
        assert np.array_equal(state.pool_edges, pool_edges[keep])
        assert state.graph.has_edges(pool_edges[chosen]).all()
    assert state.graph.n_edges == candidates.n_edges - state.pool_edges.shape[0]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")

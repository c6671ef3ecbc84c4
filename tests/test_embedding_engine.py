"""Warm-start correctness of the incremental spectral engine.

The contract under test: across any number of edge-addition rounds, the
engine's embedding must match the stateless path's within the engine's
documented accuracy — and when the warm ladder fails, the engine must fall
back to a cold solve rather than return a degraded embedding.
"""

import numpy as np
import pytest

from repro import SGLearner, simulate_measurements
from repro.core.config import SGLConfig
from repro.core.scaling import edge_scaling_factor
from repro.embedding import engine as engine_module
from repro.embedding.engine import DRIFT_TOL, EmbeddingEngine
from repro.embedding.spectral import spectral_embedding_matrix
from repro.graphs.generators import grid_2d
from repro.graphs.graph import WeightedGraph
from repro.linalg.solvers import LaplacianSolver
from repro.measurements import MeasurementSet
from repro.stream import OnlineSGLearner
from stateless_reference import engine_under_test


def _edge_rounds(graph, n_rounds, per_round=8, seed=0):
    """Deterministic rounds of random new edges (no duplicates, no loops)."""
    rng = np.random.default_rng(seed)
    existing = graph.edge_set()
    rounds = []
    for _ in range(n_rounds):
        batch = []
        while len(batch) < per_round:
            s, t = rng.integers(0, graph.n_nodes, size=2)
            key = (min(int(s), int(t)), max(int(s), int(t)))
            if s != t and key not in existing:
                existing.add(key)
                batch.append(key)
        rounds.append((np.array(batch), rng.random(per_round) + 0.5))
    return rounds


def _pair_sample(n_nodes, n_pairs=300, seed=1):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n_nodes, size=(n_pairs, 2))
    return pairs[pairs[:, 0] != pairs[:, 1]]


@pytest.mark.parametrize("n_rounds", [1, 5, 12])
def test_incremental_matches_stateless_after_rounds(n_rounds):
    graph = grid_2d(18, 18)  # 324 nodes: above WARM_MIN_NODES with margin
    engine = EmbeddingEngine(r=5)
    engine.refresh(graph)
    for edges, weights in _edge_rounds(graph, n_rounds):
        graph = graph.add_edges(edges, weights)
        warm = engine.refresh(graph, added_edges=edges)
    cold = spectral_embedding_matrix(graph, 5)

    # Eigenvalues agree to the engine's advertised accuracy (DRIFT_TOL).
    np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, rtol=DRIFT_TOL)

    # Embedding geometry: squared pair distances are what the sensitivity
    # ranking consumes, so compare those rather than raw eigenvectors (which
    # have sign/rotation freedom).  Accumulated cluster-edge rotation after
    # many rounds leaves individual small distances off by more than the
    # eigenvalues, so the long-horizon contract is ranking fidelity:
    # near-perfect correlation and a bounded mean relative error.
    pairs = _pair_sample(graph.n_nodes)
    warm_d = warm.pair_distances_squared(pairs)
    cold_d = cold.pair_distances_squared(pairs)
    assert np.corrcoef(warm_d, cold_d)[0, 1] >= 0.98
    assert np.abs(warm_d - cold_d).mean() <= 0.1 * cold_d.mean()
    if n_rounds <= 5:
        np.testing.assert_allclose(warm_d, cold_d, rtol=5e-2, atol=1e-12)
    assert engine.stats.warm_refreshes >= 1


def test_engine_reports_modes_and_counts():
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(r=4)
    engine.refresh(graph)
    assert engine.last_mode == "cold"
    (edges, weights), = _edge_rounds(graph, 1)
    engine.refresh(graph.add_edges(edges, weights), added_edges=edges)
    assert engine.last_mode in ("warm-rr", "warm-inverse", "fallback")
    stats = engine.stats
    assert stats.refreshes == 2
    assert stats.refreshes == stats.cold_solves + stats.warm_refreshes
    as_dict = stats.as_dict()
    assert as_dict["refreshes"] == 2
    assert set(as_dict) >= {"cold_solves", "warm_rayleigh_ritz", "warm_inverse", "fallbacks"}


def test_unchanged_graph_refresh_is_warm():
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(r=4)
    first = engine.refresh(graph)
    second = engine.refresh(graph, added_edges=np.empty((0, 2), dtype=np.int64))
    assert engine.last_mode == "warm-rr"
    np.testing.assert_allclose(first.coordinates, second.coordinates)


def test_fallback_on_warm_failure(monkeypatch):
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(r=4)
    engine.refresh(graph)

    # Sabotage the warm ladder: every tower solve raises, so the engine must
    # fall back to a cold solve (dense at this size, no solves) and still
    # return a correct embedding.
    def boom(self, block, **kwargs):
        raise RuntimeError("injected warm-solver failure")

    monkeypatch.setattr(LaplacianSolver, "solve", boom)
    (edges, weights), = _edge_rounds(graph, 1)
    denser = graph.add_edges(edges, weights)
    refreshed = engine.refresh(denser, added_edges=edges)
    assert engine.last_mode == "fallback"
    assert engine.stats.fallbacks == 1

    cold = spectral_embedding_matrix(denser, 4)
    np.testing.assert_allclose(refreshed.eigenvalues, cold.eigenvalues, rtol=1e-8)


def test_repeated_fallbacks_disable_warm_path(monkeypatch):
    monkeypatch.setattr(engine_module, "MAX_CONSECUTIVE_FALLBACKS", 2)
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(r=4)
    engine.refresh(graph)

    monkeypatch.setattr(
        LaplacianSolver,
        "solve",
        lambda self, block, **kwargs: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    for edges, weights in _edge_rounds(graph, 3):
        graph = graph.add_edges(edges, weights)
        engine.refresh(graph, added_edges=edges)
    # Two failures trip the breaker; the third refresh goes straight to cold.
    assert engine.stats.fallbacks == 2
    assert engine.last_mode == "cold"


def test_edge_weights_empty_graph_raises_keyerror():
    from repro.graphs.graph import WeightedGraph

    empty = WeightedGraph(3)
    with pytest.raises(KeyError):
        empty.edge_weights([(0, 1)])


def test_engine_solver_is_exact_across_updates():
    """After additions, removals and weight changes the held factor is exact."""
    graph = grid_2d(15, 15)
    engine = EmbeddingEngine(r=4)
    engine.refresh(graph)
    rng = np.random.default_rng(3)
    (added, added_w), = _edge_rounds(graph, 1, per_round=6, seed=7)
    denser = graph.add_edges(added, added_w)
    # Drop six grid edges and reweight another six: a connected graph whose
    # Laplacian differs from the last one in every way an update can.
    drop = np.zeros(denser.n_edges, dtype=bool)
    drop[[3, 40, 77, 120, 200, 300]] = True
    weights = denser.weights.copy()
    weights[[10, 50, 90, 130, 170, 210]] *= rng.random(6) + 0.5
    changed = WeightedGraph(
        denser.n_nodes, denser.rows[~drop], denser.cols[~drop], weights[~drop]
    )
    assert changed.is_connected()
    factorizations = engine.stats.factorizations
    for current in (denser, changed):
        engine.refresh(current)
        rhs = rng.standard_normal((current.n_nodes, 2))
        np.testing.assert_allclose(
            engine.solver_for(current).solve(rhs),
            LaplacianSolver(current).solve(rhs),
            atol=1e-9,
        )
    # One factorisation per refresh that saw a new graph, none for a repeat.
    assert engine.stats.factorizations == factorizations + 2
    engine.refresh(changed)
    assert engine.stats.factorizations == factorizations + 2
    # The factor belongs to the refreshed object only.
    assert engine.solver_for(changed.copy()) is None
    assert engine.solver_for(denser) is None


@pytest.mark.parametrize("leak", [0.0, 1e-9])
def test_tower_keeps_mean_free_projection_on_doc_example(monkeypatch, leak):
    """The docs/api.md refresh (grid_2d(14, 14) plus two edges) is accepted warm.

    The tower's columns span many orders of magnitude, so a constant
    component the solves leave in them (``leak`` times each column's norm,
    a stand-in for rounding) must be projected out of the stacked tower
    before the QR: left in, it surfaces as spurious Ritz values below
    lambda_2 and this refresh falls back to a cold solve.
    """
    graph = grid_2d(14, 14)
    engine = EmbeddingEngine(r=5, seed=0)
    engine.refresh(graph)
    solve = LaplacianSolver.solve

    def leaky_solve(self, rhs):
        out = solve(self, rhs)
        return out + leak * np.linalg.norm(out, axis=0)

    monkeypatch.setattr(LaplacianSolver, "solve", leaky_solve)
    edges = np.array([[0, 37], [5, 130]])
    denser = graph.add_edges(edges, [1.0, 1.0])
    warm = engine.refresh(denser, added_edges=edges)
    assert engine.last_mode == "warm-inverse"
    assert engine.stats.fallbacks == 0
    monkeypatch.undo()
    cold = spectral_embedding_matrix(denser, 5)
    np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, rtol=DRIFT_TOL)


def _fresh_factor(graph, measurements):
    return edge_scaling_factor(
        graph, measurements.voltages, measurements.currents, solver=LaplacianSolver(graph)
    )


@pytest.mark.parametrize("max_iterations", [1, 100])
def test_step5_factor_matches_a_fresh_solver(max_iterations):
    """Step 5 gives the bits of a fresh solver, with or without stale edges.

    One iteration stops with ``pending`` edges the engine never factorised,
    so Step 5 must build its own solver; a converged fit hands Step 5 the
    engine's factor of the final graph, which is the same factor.
    """
    data = simulate_measurements(grid_2d(15, 15), n_measurements=30, seed=0)
    learner = SGLearner(beta=0.05, max_iterations=max_iterations)
    result, state = learner._fit(data)
    assert (state.pending is not None) == (max_iterations == 1)
    assert (state.solver() is None) == (max_iterations == 1)
    assert result.scaling_factor == _fresh_factor(result.unscaled_graph, data)


def test_step5_after_rollback_ignores_the_stale_factor(monkeypatch):
    """A failed update leaves the engine a factor of a graph that was undone."""
    import repro.stream.learner as learner_module

    data = simulate_measurements(grid_2d(15, 15), 50, seed=0)
    learner = OnlineSGLearner(beta=0.05, max_window=80, max_iterations=1)
    learner.fit(MeasurementSet(data.voltages[:, :30], data.currents[:, :30]))
    engine = learner._state.engine

    def failing_scaling(*args, **kwargs):
        raise RuntimeError("step 5 failed")

    monkeypatch.setattr(learner_module, "spectral_edge_scaling", failing_scaling)
    with pytest.raises(RuntimeError, match="step 5 failed"):
        learner.update(MeasurementSet(data.voltages[:, 30:40], data.currents[:, 30:40]))
    monkeypatch.undo()
    # The engine factorised the failed pass's graph; the restored one is older.
    assert engine._solver is not None
    assert learner._state.solver() is None
    learner.update(MeasurementSet(data.voltages[:, 40:50], data.currents[:, 40:50]))
    assert learner._scaling_factor == _fresh_factor(learner._state.graph, learner.window)


def test_learner_engines_agree_end_to_end():
    truth = grid_2d(14, 14)
    data = simulate_measurements(truth, n_measurements=40, seed=0)
    results = {}
    for engine in ("stateless", "incremental"):
        with engine_under_test(engine):
            results[engine] = SGLearner(SGLConfig(beta=0.05)).fit(data)
    stateless, incremental = results["stateless"], results["incremental"]
    assert incremental.engine_stats is not None
    assert stateless.engine_stats is None
    # The learned graphs must be equivalent in size and quality terms.
    assert abs(incremental.graph.density - stateless.graph.density) <= 0.1
    assert incremental.graph.is_connected()
    assert "embedding" in incremental.timings.stages

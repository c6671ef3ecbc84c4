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
from repro.embedding.engine import EmbeddingEngine, _IncrementalLaplacianInverse
from repro.embedding.spectral import spectral_embedding_matrix
from repro.graphs.generators import grid_2d
from repro.linalg.solvers import LaplacianSolver
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
    graph = grid_2d(18, 18)  # 324 nodes: above warm_min_nodes with margin
    engine = EmbeddingEngine(r=5, warm_min_nodes=16)
    engine.refresh(graph)
    for edges, weights in _edge_rounds(graph, n_rounds):
        graph = graph.add_edges(edges, weights)
        warm = engine.refresh(graph, added_edges=edges)
    cold = spectral_embedding_matrix(graph, 5)

    # Eigenvalues agree to the engine's advertised accuracy (drift_tol).
    np.testing.assert_allclose(warm.eigenvalues, cold.eigenvalues, rtol=engine.drift_tol)

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
    engine = EmbeddingEngine(r=4, warm_min_nodes=16)
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
    engine = EmbeddingEngine(r=4, warm_min_nodes=16)
    first = engine.refresh(graph)
    second = engine.refresh(graph, added_edges=np.empty((0, 2), dtype=np.int64))
    assert engine.last_mode == "warm-rr"
    np.testing.assert_allclose(first.coordinates, second.coordinates)


def test_fallback_on_warm_failure(monkeypatch):
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(r=4, warm_min_nodes=16)
    engine.refresh(graph)

    # Sabotage the warm ladder: every incremental solve raises, so the engine
    # must fall back to a cold solve and still return a correct embedding.
    def boom(self, block, **kwargs):
        raise RuntimeError("injected warm-solver failure")

    monkeypatch.setattr(_IncrementalLaplacianInverse, "solve", boom)
    (edges, weights), = _edge_rounds(graph, 1)
    denser = graph.add_edges(edges, weights)
    refreshed = engine.refresh(denser, added_edges=edges)
    assert engine.last_mode == "fallback"
    assert engine.stats.fallbacks == 1

    cold = spectral_embedding_matrix(denser, 4)
    np.testing.assert_allclose(refreshed.eigenvalues, cold.eigenvalues, rtol=1e-8)


def test_repeated_fallbacks_disable_warm_path(monkeypatch):
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(r=4, warm_min_nodes=16, max_consecutive_fallbacks=2)
    engine.refresh(graph)

    monkeypatch.setattr(
        _IncrementalLaplacianInverse,
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


def test_woodbury_solver_is_exact_across_updates():
    graph = grid_2d(15, 15)
    inverse = _IncrementalLaplacianInverse(graph)
    rng = np.random.default_rng(3)
    for edges, weights in _edge_rounds(graph, 4, per_round=6, seed=7):
        graph = graph.add_edges(edges, weights)
        inverse.update(graph)
        rhs = rng.standard_normal((graph.n_nodes, 2))
        got = inverse.solve(rhs)
        want = LaplacianSolver(graph).solve(rhs)
        np.testing.assert_allclose(got, want, atol=1e-9)
    assert inverse.n_corrections > 0


def test_woodbury_refactorizes_past_correction_budget():
    graph = grid_2d(15, 15)
    inverse = _IncrementalLaplacianInverse(graph, max_corrections=10)
    for edges, weights in _edge_rounds(graph, 3, per_round=6, seed=11):
        graph = graph.add_edges(edges, weights)
        inverse.update(graph)
    assert inverse.n_factorizations >= 2
    rhs = np.random.default_rng(5).standard_normal(graph.n_nodes)
    np.testing.assert_allclose(
        inverse.solve(rhs).ravel(), LaplacianSolver(graph).solve(rhs), atol=1e-9
    )


def test_learner_engines_agree_end_to_end():
    truth = grid_2d(14, 14)
    data = simulate_measurements(truth, n_measurements=40, seed=0)
    results = {}
    for engine in ("stateless", "incremental"):
        value, context = engine_under_test(engine)
        with context:
            results[engine] = SGLearner(SGLConfig(beta=0.05, embedding_engine=value)).fit(data)
    stateless, incremental = results["stateless"], results["incremental"]
    assert incremental.engine_stats is not None
    assert stateless.engine_stats is None
    # The learned graphs must be equivalent in size and quality terms.
    assert abs(incremental.graph.density - stateless.graph.density) <= 0.1
    assert incremental.graph.is_connected()
    assert "embedding" in incremental.timings.stages

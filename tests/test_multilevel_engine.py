"""Unit tests of the multilevel embedding engine and its solver substrate."""

import numpy as np
import pytest

from repro.core.config import SGLConfig
from repro.core.instrumentation import StageTimings
from repro.embedding import MultilevelEmbeddingEngine, spectral_embedding_matrix
from repro.graphs.generators import grid_2d
from repro.linalg import (
    LaplacianSolver,
    MultilevelEigensolver,
    coarsening_hierarchy,
    laplacian_eigenpairs,
)


def _dense_reference(graph, k):
    return laplacian_eigenpairs(graph, k, method="dense")


# ----------------------------------------------------------------------
# MultilevelEigensolver
# ----------------------------------------------------------------------
def _near_tree_graph():
    """MST of a randomly weighted grid plus a few off-tree edges.

    This is the SGL densification regime, where the spanning-tree
    preconditioner is near-exact (on meshes its stretch makes it weak)."""
    rng = np.random.default_rng(0)
    grid = grid_2d(16, 16)
    weighted = grid.with_weights(rng.random(grid.n_edges) + 0.5)
    from repro.knn.mst import maximum_spanning_tree

    tree = maximum_spanning_tree(weighted)
    return tree.add_edges([(0, 255), (17, 200), (40, 120)], [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "preconditioner, graph_kind, rtol",
    [
        ("jacobi", "grid", 2e-2),
        ("spanning-tree", "grid", 2e-2),
        ("spanning-tree", "near-tree", 1e-3),
    ],
)
def test_solver_matches_dense_reference(preconditioner, graph_kind, rtol):
    graph = grid_2d(16, 16) if graph_kind == "grid" else _near_tree_graph()
    solver = MultilevelEigensolver(
        coarse_size=32,
        preconditioner=preconditioner,
        refinement_steps=20,
    )
    result = solver.solve(graph, 3)
    exact_values, _ = _dense_reference(graph, 3)
    np.testing.assert_allclose(result.eigenvalues, exact_values, rtol=rtol)
    assert result.level_sizes[0] == 256


def test_solver_accepts_prebuilt_hierarchy_and_preconditioners():
    graph = grid_2d(16, 16)
    solver = MultilevelEigensolver(coarse_size=32, preconditioner="spanning-tree")
    hierarchy = solver.build_hierarchy(graph)
    preconds = solver.build_preconditioners(graph, hierarchy)
    assert len(preconds) == hierarchy.n_levels  # fine + all but the coarsest
    fresh = solver.solve(graph, 2)
    reused = solver.solve(graph, 2, hierarchy=hierarchy, preconditioners=preconds)
    np.testing.assert_allclose(reused.eigenvalues, fresh.eigenvalues, rtol=1e-6)


def test_solver_rejects_mismatched_hierarchy():
    solver = MultilevelEigensolver(coarse_size=32)
    hierarchy = solver.build_hierarchy(grid_2d(16, 16))
    with pytest.raises(ValueError, match="hierarchy"):
        solver.solve(grid_2d(18, 18), 2, hierarchy=hierarchy)


def test_solver_per_level_refinement_budgets():
    graph = grid_2d(16, 16)
    solver = MultilevelEigensolver(coarse_size=32)
    exact_values, exact_vectors = _dense_reference(graph, 2)
    # A starved uniform budget is measurably worse than spending the sweeps
    # at the finest level (last-entry-repeats semantics for deeper levels).
    warm = solver.solve(
        graph, 2, initial_vectors=exact_vectors, refinement_steps=[10, 1]
    )
    np.testing.assert_allclose(warm.eigenvalues, exact_values, rtol=1e-3)


def test_solver_validation_errors():
    with pytest.raises(ValueError):
        MultilevelEigensolver(coarse_size=2)
    with pytest.raises(ValueError):
        MultilevelEigensolver(refinement_steps=-1)
    with pytest.raises(ValueError):
        MultilevelEigensolver(preconditioner="ilu")
    with pytest.raises(ValueError):
        MultilevelEigensolver().solve(grid_2d(4, 4), 0)
    # Removed solver paths: LOBPCG cold solves and the CG Laplacian solver.
    with pytest.raises(ValueError, match="unknown method"):
        laplacian_eigenpairs(grid_2d(4, 4), 2, method="lobpcg")
    with pytest.raises(TypeError):
        LaplacianSolver(grid_2d(4, 4), method="cg")


# ----------------------------------------------------------------------
# MultilevelEmbeddingEngine
# ----------------------------------------------------------------------
def test_engine_first_refresh_builds_then_reprojects():
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64)
    engine.refresh(graph)
    assert engine.last_mode == "build"
    assert engine.has_hierarchy
    denser = graph.add_edges([(0, 399), (5, 217)], [1.0, 2.0])
    engine.refresh(denser)
    assert engine.last_mode == "reproject"
    stats = engine.stats
    assert stats.hierarchy_builds == 1
    assert stats.reprojections == 1
    assert stats.churn_rebuilds == 0
    assert stats.n_levels >= 1


def test_engine_same_graph_object_reuses_hierarchy():
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64)
    first = engine.refresh(graph)
    second = engine.refresh(graph)
    assert engine.last_mode == "reuse"
    assert engine.stats.reprojections == 0
    # Same hierarchy, warm-started refinement: the embedding stays put (the
    # warm sweep keeps polishing, so allow a few percent of drift).
    np.testing.assert_allclose(
        first.pair_distances_squared([(0, 399)]),
        second.pair_distances_squared([(0, 399)]),
        rtol=5e-2,
    )


def test_engine_rebuilds_on_churn_overflow():
    rng = np.random.default_rng(1)
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64, churn_threshold=0.01)
    engine.refresh(graph)
    existing = graph.edge_set()
    batch = []
    while len(batch) < 30:  # ~4% churn, above the 1% threshold
        s, t = (int(v) for v in rng.integers(0, graph.n_nodes, size=2))
        key = (min(s, t), max(s, t))
        if s != t and key not in existing:
            existing.add(key)
            batch.append(key)
    denser = graph.add_edges(np.array(batch), np.ones(len(batch)))
    engine.refresh(denser)
    assert engine.last_mode == "rebuild"
    assert engine.stats.churn_rebuilds == 1
    assert engine.stats.hierarchy_builds == 2


def test_engine_churn_accumulates_across_small_batches():
    """Many sub-threshold batches must still add up to a re-matching.

    Regression test: reprojection must not reset the churn baseline, or a
    loop that only ever adds small batches would reuse the first matching
    forever.
    """
    rng = np.random.default_rng(2)
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64, churn_threshold=0.05)
    engine.refresh(graph)
    existing = graph.edge_set()
    for _ in range(8):  # 8 batches of 5 edges: ~5% churn in total
        batch = []
        while len(batch) < 5:
            s, t = (int(v) for v in rng.integers(0, graph.n_nodes, size=2))
            key = (min(s, t), max(s, t))
            if s != t and key not in existing:
                existing.add(key)
                batch.append(key)
        graph = graph.add_edges(np.array(batch), np.ones(len(batch)))
        engine.refresh(graph)
    assert engine.stats.churn_rebuilds >= 1
    assert engine.stats.hierarchy_builds >= 2


def test_engine_zero_churn_threshold_always_rebuilds():
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64, churn_threshold=0.0)
    engine.refresh(graph)
    engine.refresh(graph.add_edges([(0, 399)], [1.0]))
    assert engine.stats.hierarchy_builds == 2
    assert engine.stats.reprojections == 0


def test_engine_small_graph_uses_dense_path():
    graph = grid_2d(5, 5)
    engine = MultilevelEmbeddingEngine(r=3, coarse_size=64)
    embedding = engine.refresh(graph)
    assert engine.last_mode == "dense"
    assert engine.stats.dense_solves == 1
    assert not engine.has_hierarchy
    reference = spectral_embedding_matrix(graph, 3)
    np.testing.assert_allclose(embedding.eigenvalues, reference.eigenvalues, rtol=1e-9)


def test_engine_embedding_matches_stateless():
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=5, coarse_size=64)
    embedding = engine.refresh(graph)
    reference = spectral_embedding_matrix(graph, 5)
    np.testing.assert_allclose(embedding.eigenvalues, reference.eigenvalues, rtol=5e-2)
    assert embedding.n_nodes == 400 and embedding.dimension == 4


def test_engine_records_stage_timings():
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64)
    timings = StageTimings()
    engine.refresh(graph, timings=timings)
    assert timings.stages["coarsen"].calls == 1
    assert timings.stages["refine"].calls == 1
    assert timings.seconds("refine") > 0


def test_engine_reset_forgets_state():
    graph = grid_2d(20, 20)
    engine = MultilevelEmbeddingEngine(r=4, coarse_size=64)
    engine.refresh(graph)
    engine.reset()
    assert not engine.has_hierarchy and engine.last_mode is None
    engine.refresh(graph)
    assert engine.last_mode == "build"
    assert engine.stats.hierarchy_builds == 2


def test_engine_validation_errors():
    with pytest.raises(ValueError):
        MultilevelEmbeddingEngine(r=1)
    with pytest.raises(ValueError):
        MultilevelEmbeddingEngine(churn_threshold=-0.1)
    with pytest.raises(ValueError):
        MultilevelEmbeddingEngine(guard_vectors=-1)
    with pytest.raises(ValueError):
        MultilevelEmbeddingEngine(warm_refinement_steps=-2)
    with pytest.raises(ValueError):
        MultilevelEmbeddingEngine(r=3).refresh(grid_2d(1, 1))


def test_engine_stats_dict_round_trip():
    engine = MultilevelEmbeddingEngine(r=3, coarse_size=64)
    engine.refresh(grid_2d(12, 12))
    as_dict = engine.stats.as_dict()
    assert as_dict["refreshes"] == 1
    assert set(as_dict) == {
        "refreshes",
        "hierarchy_builds",
        "churn_rebuilds",
        "reprojections",
        "dense_solves",
        "n_levels",
    }


# ----------------------------------------------------------------------
# Config / learner wiring
# ----------------------------------------------------------------------
def test_config_accepts_multilevel_engine():
    config = SGLConfig(embedding_engine="multilevel", multilevel_churn_threshold=0.25)
    assert config.embedding_engine == "multilevel"
    for removed in ("galerkin", "stateless"):
        with pytest.raises(ValueError, match="embedding_engine"):
            SGLConfig(embedding_engine=removed)
    with pytest.raises(ValueError):
        SGLConfig(multilevel_churn_threshold=-1.0)
    for removed in ("lobpcg", "multilevel"):
        with pytest.raises(ValueError, match="eigensolver"):
            SGLConfig(eigensolver=removed)


def test_hierarchy_slicing_and_sequence_protocol():
    hierarchy = coarsening_hierarchy(grid_2d(16, 16), target_size=32)
    assert hierarchy.n_levels == len(hierarchy) > 0
    assert list(hierarchy)[-1] is hierarchy[-1]
    assert [level.graph.n_nodes for level in hierarchy[:-1]] == [
        level.graph.n_nodes for level in list(hierarchy)[:-1]
    ]
    assert hierarchy.coarsest.n_nodes <= 32
    with pytest.raises(ValueError):
        hierarchy.edge_churn(grid_2d(5, 5))
    with pytest.raises(ValueError):
        hierarchy.reproject(grid_2d(5, 5))

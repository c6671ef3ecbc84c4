"""End-to-end SGL recovery on a 2-D grid (the paper's headline claim).

Learning a 20x20 grid back from 50 simulated measurement pairs must produce
an ultra-sparse graph (density well below the truth's ~2) whose effective
resistances correlate strongly with the ground truth.
"""

import numpy as np
import pytest

from repro import SGLearner, simulate_measurements
from repro.graphs.generators import grid_2d
from repro.metrics import resistance_correlation


@pytest.fixture(scope="module")
def grid_recovery():
    truth = grid_2d(20, 20)
    data = simulate_measurements(truth, n_measurements=50, seed=0)
    result = SGLearner(beta=0.025).fit(data)
    return truth, data, result


def test_learned_density_is_ultra_sparse(grid_recovery):
    _, _, result = grid_recovery
    assert result.graph.density <= 1.6


def test_learner_converges(grid_recovery):
    _, _, result = grid_recovery
    assert result.converged
    assert 0 < result.n_iterations <= result.config.max_iterations


def test_resistance_correlation_above_threshold(grid_recovery):
    truth, _, result = grid_recovery
    correlation = resistance_correlation(truth, result.graph, n_pairs=200, seed=0)
    assert correlation >= 0.75


def test_edge_scaling_applied(grid_recovery):
    _, _, result = grid_recovery
    assert result.scaling_factor > 0
    assert np.isfinite(result.scaling_factor)
    # Scaled and unscaled graphs share topology, differ only by the factor.
    assert result.graph.n_edges == result.unscaled_graph.n_edges
    np.testing.assert_allclose(
        result.graph.weights, result.unscaled_graph.weights * result.scaling_factor
    )


def test_stage_timings_recorded(grid_recovery):
    _, _, result = grid_recovery
    stages = result.timings.stages
    for name in ("knn", "initial_tree", "embedding", "sensitivity", "edge_scaling"):
        assert name in stages, f"missing stage {name!r}"
        assert stages[name].seconds >= 0
        assert stages[name].calls >= 1
    # The densification loop refreshes the embedding once per iteration
    # (incl. the final convergence check); with the incremental engine the
    # refreshes are split between cold ("embedding") and warm
    # ("embedding_warm") solves.
    embedding_calls = stages["embedding"].calls + (
        stages["embedding_warm"].calls if "embedding_warm" in stages else 0
    )
    assert embedding_calls >= result.n_iterations
    assert result.timings.total_seconds > 0


def test_engine_stats_attached(grid_recovery):
    _, _, result = grid_recovery
    stats = result.engine_stats
    assert stats is not None
    assert stats["refreshes"] == stats["cold_solves"] + stats["warm_rayleigh_ritz"] + stats["warm_inverse"]
    assert stats["cold_solves"] >= 1


def test_learned_graph_is_connected(grid_recovery):
    truth, _, result = grid_recovery
    assert result.graph.n_nodes == truth.n_nodes
    assert result.graph.is_connected()


def test_config_rejects_removed_step2_options():
    from repro import SGLConfig

    # One Step-2 engine and the paper's knobs only: neither the engine
    # choice, the multilevel engine's knobs, the cold eigensolver, the
    # sensitivity sketch nor the initial graph is a field.
    for removed, value in (
        ("embedding_engine", None),
        ("multilevel_coarse_size", None),
        ("multilevel_churn_threshold", None),
        ("eigensolver", "dense"),
        ("sensitivity_samples", 32),
        ("initial_graph", "knn"),
    ):
        with pytest.raises(TypeError, match=removed):
            SGLConfig(**{removed: value})


def test_config_fields_are_the_papers_knobs():
    import dataclasses

    from repro import SGLConfig

    assert [f.name for f in dataclasses.fields(SGLConfig)] == [
        "k",
        "knn_backend",
        "r",
        "tol",
        "beta",
        "sigma_sq",
        "max_iterations",
        "edge_scaling",
        "track_objective",
        "objective_eigenvalues",
        "seed",
    ]

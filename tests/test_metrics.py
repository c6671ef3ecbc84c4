"""Tests for the metrics subpackage: resistance, smoothness, spectral, density."""

import numpy as np
import pytest

from repro.graphs.generators import grid_2d
from repro.graphs.graph import WeightedGraph
from repro.metrics.density import (
    density_ratio,
    graph_density,
    sparsification_summary,
)
from repro.linalg.solvers import LaplacianSolver
from repro.metrics.resistance import (
    compare_effective_resistances,
    effective_resistance_batched,
    resistance_correlation,
    sample_node_pairs,
)
from repro.metrics.smoothness import signal_smoothness, total_smoothness
from repro.metrics.spectral import (
    compare_eigenvalues,
    eigenvalue_correlation,
    relative_eigenvalue_error,
)


# ----------------------------------------------------------------------
# resistance
# ----------------------------------------------------------------------
def test_sample_node_pairs_are_distinct_and_in_range():
    pairs = sample_node_pairs(10, 200, seed=0)
    assert pairs.shape == (200, 2)
    assert bool((pairs[:, 0] != pairs[:, 1]).all())
    assert pairs.min() >= 0 and pairs.max() < 10
    np.testing.assert_array_equal(pairs, sample_node_pairs(10, 200, seed=0))
    with pytest.raises(ValueError):
        sample_node_pairs(1, 5)


def test_identical_graphs_have_perfect_resistance_correlation():
    graph = grid_2d(6, 6)
    comparison = compare_effective_resistances(graph, graph.copy(), n_pairs=50, seed=0)
    assert comparison.correlation == pytest.approx(1.0)
    assert comparison.mean_relative_error == pytest.approx(0.0, abs=1e-10)


def test_scaling_all_conductances_keeps_correlation_but_not_error():
    graph = grid_2d(6, 6)
    doubled = graph.scaled(2.0)  # halves every effective resistance
    comparison = compare_effective_resistances(graph, doubled, n_pairs=80, seed=1)
    assert comparison.correlation == pytest.approx(1.0, abs=1e-9)
    assert comparison.mean_relative_error == pytest.approx(0.5, abs=1e-9)
    assert resistance_correlation(graph, doubled, n_pairs=80, seed=1) == pytest.approx(
        1.0, abs=1e-9
    )


def test_batched_resistance_blocks_fit_the_scratch_budget():
    """Blocks stay within 64 MiB of scratch, and a narrow block changes no answer."""
    n = 40_000  # above the 32k nodes that still take 256-column blocks
    path = WeightedGraph(n, np.arange(n - 1), np.arange(1, n))  # unit resistors
    pairs = sample_node_pairs(n, 300, seed=0)
    solver = LaplacianSolver(path)
    widths = []
    solve = solver.solve

    def recording(rhs):
        widths.append(rhs.shape[1])
        return solve(rhs)

    solver.solve = recording
    default = effective_resistance_batched(path, pairs, solver=solver)
    assert widths == [(1 << 26) // (8 * n), 300 - (1 << 26) // (8 * n)]
    np.testing.assert_allclose(default, np.abs(pairs[:, 0] - pairs[:, 1]), rtol=1e-9)
    narrow = effective_resistance_batched(path, pairs, solver=solver, block_size=7)
    np.testing.assert_allclose(narrow, default, rtol=1e-12)


def test_resistance_comparison_requires_matching_node_sets():
    with pytest.raises(ValueError):
        compare_effective_resistances(grid_2d(4, 4), grid_2d(5, 5))


# ----------------------------------------------------------------------
# smoothness
# ----------------------------------------------------------------------
def test_constant_signal_has_zero_smoothness():
    graph = grid_2d(5, 5)
    assert signal_smoothness(graph, np.ones(25)) == pytest.approx(0.0, abs=1e-12)


def test_smoothness_matches_quadratic_form():
    graph = WeightedGraph(3, [0, 1], [1, 2], [2.0, 3.0])
    x = np.array([1.0, 0.0, -1.0])
    expected = 2.0 * (1.0 - 0.0) ** 2 + 3.0 * (0.0 - (-1.0)) ** 2
    assert signal_smoothness(graph, x, normalize=False) == pytest.approx(expected)
    assert signal_smoothness(graph, x) == pytest.approx(expected / (x @ x))
    matrix = np.column_stack([x, 2 * x])
    assert total_smoothness(graph, matrix) == pytest.approx(expected * 5.0)


def test_smoothness_matrix_shape():
    graph = grid_2d(4, 4)
    signals = np.random.default_rng(0).standard_normal((16, 7))
    values = signal_smoothness(graph, signals)
    assert values.shape == (7,)
    assert bool((values >= 0).all())


# ----------------------------------------------------------------------
# spectral
# ----------------------------------------------------------------------
def test_identical_spectra_correlate_perfectly():
    graph = grid_2d(6, 6)
    comparison = compare_eigenvalues(graph, graph.copy(), k=10)
    assert comparison.correlation == pytest.approx(1.0)
    assert comparison.mean_relative_error == pytest.approx(0.0, abs=1e-8)
    assert comparison.max_relative_error == pytest.approx(0.0, abs=1e-8)


def test_eigenvalue_correlation_of_scaled_spectrum():
    original = np.array([1.0, 2.0, 3.0, 4.0])
    assert eigenvalue_correlation(original, 3 * original) == pytest.approx(1.0)
    assert relative_eigenvalue_error(original, 2 * original) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        eigenvalue_correlation(original, original[:2])


def test_compare_eigenvalues_clips_k_to_graph_sizes():
    big = grid_2d(6, 6)
    small = grid_2d(3, 3)  # 9 nodes: at most 8 nontrivial eigenvalues
    comparison = compare_eigenvalues(big, small, k=50)
    assert comparison.original.size == comparison.learned.size == 8
    with pytest.raises(ValueError):
        compare_eigenvalues(WeightedGraph(1), WeightedGraph(1))


# ----------------------------------------------------------------------
# density
# ----------------------------------------------------------------------
def test_density_helpers():
    graph = grid_2d(4, 4)  # 16 nodes, 24 edges
    assert graph_density(graph) == pytest.approx(1.5)
    sparser = WeightedGraph.from_edges(16, graph.edges[:12], graph.weights[:12])
    assert density_ratio(graph, sparser) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        density_ratio(WeightedGraph(4), sparser)


def test_sparsification_summary():
    original = grid_2d(10, 10)
    learned = WeightedGraph.from_edges(25, [[0, 1], [1, 2]])
    summary = sparsification_summary(original, learned)
    assert summary.original_density == pytest.approx(original.density)
    assert summary.learned_density == pytest.approx(2 / 25)
    assert summary.edge_reduction == pytest.approx(1.0 - 2 / original.n_edges)
    assert summary.size_reduction == pytest.approx(4.0)

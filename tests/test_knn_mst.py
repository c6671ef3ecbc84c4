"""Unit tests for kNN graph construction and spanning-tree extraction."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree as csgraph_mst

from repro.graphs.generators import grid_2d
from repro.graphs.graph import WeightedGraph
from repro.knn import knn_graph, maximum_spanning_tree, minimum_spanning_tree
from repro.knn.mst import _spanning_tree_edges


@pytest.fixture(scope="module")
def features():
    rng = np.random.default_rng(42)
    return rng.standard_normal((120, 8))


def test_knn_graph_is_connected(features):
    graph = knn_graph(features, 5, ensure_connected=True)
    assert graph.n_nodes == features.shape[0]
    assert graph.is_connected()


def test_knn_graph_positive_sgl_weights(features):
    graph = knn_graph(features, 5, weight_scheme="sgl")
    assert graph.n_edges > 0
    assert np.all(graph.weights > 0)


def test_knn_graph_degree_bounds(features):
    k = 4
    graph = knn_graph(features, k, ensure_connected=False)
    adjacency = graph.adjacency()
    degrees = np.diff(adjacency.indptr)
    # Undirected union of directed kNN lists: every node keeps at least its
    # own k neighbours (popular "hub" nodes may collect many more in-links),
    # and the union has at most N*k distinct edges in total.
    assert degrees.min() >= k
    assert graph.n_edges <= graph.n_nodes * k


def test_knn_graph_respects_k_cap(features):
    n = features.shape[0]
    graph = knn_graph(features, n - 1, ensure_connected=False)
    # k = N-1 yields the complete graph.
    assert graph.n_edges == n * (n - 1) // 2


def test_knn_edges_trims_duplicated_points_to_k():
    # Duplicated rows mean some nodes do not match themselves in the k+1
    # query; the vectorised trim must still return exactly k neighbours per
    # source, closest first.
    rng = np.random.default_rng(3)
    base = rng.standard_normal((30, 5))
    features = np.vstack([base, base[:7]])  # 7 exact duplicates
    k = 4
    from repro.knn import knn_edges

    edges, dists = knn_edges(features, k)
    counts = np.bincount(edges[:, 0], minlength=features.shape[0])
    assert (counts == k).all()
    assert edges.shape[0] == features.shape[0] * k
    # Per-source distances are ascending (trim keeps the nearest k).
    order = np.lexsort((dists, edges[:, 0]))
    assert np.array_equal(order, np.arange(order.size))


def test_maximum_spanning_tree_structure(features):
    graph = knn_graph(features, 5, ensure_connected=True)
    tree = maximum_spanning_tree(graph)
    assert tree.n_nodes == graph.n_nodes
    assert tree.n_edges == graph.n_nodes - 1
    assert tree.is_connected()
    # Tree edges are a subset of the source graph's edges with equal weights.
    for (s, t), w in zip(tree.edges, tree.weights):
        assert graph.has_edge(int(s), int(t))
        assert graph.edge_weight(int(s), int(t)) == pytest.approx(w)


def test_maximum_vs_minimum_spanning_tree(features):
    graph = knn_graph(features, 5, ensure_connected=True)
    maximum = maximum_spanning_tree(graph)
    minimum = minimum_spanning_tree(graph)
    assert maximum.total_weight >= minimum.total_weight
    assert minimum.n_edges == graph.n_nodes - 1


def _dict_mapped_tree_edges(graph, *, maximize):
    """The per-edge dict mapping of tree arcs to edge indices, as a reference."""
    n = graph.n_nodes
    sort_weights = -graph.weights if maximize else graph.weights
    shifted = sp.csr_matrix(
        (sort_weights - (sort_weights.min() - 1.0), (graph.rows, graph.cols)),
        shape=(n, n),
    )
    tree = csgraph_mst(shifted).tocoo()
    edge_index = {
        (int(s), int(t)): idx for idx, (s, t) in enumerate(zip(graph.rows, graph.cols))
    }
    return np.asarray(
        sorted(edge_index[(int(min(s, t)), int(max(s, t)))] for s, t in zip(tree.row, tree.col)),
        dtype=np.int64,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("maximize", [True, False])
def test_spanning_tree_mapping_matches_dict_reference_with_ties(seed, maximize):
    # Weights drawn from three values, so most of the edges tie and csgraph's
    # tie-breaking decides the tree; the vectorised mapping must pick exactly
    # the edges the per-edge dict lookup picks.
    rng = np.random.default_rng(seed)
    grid = grid_2d(9, 11)
    graph = WeightedGraph(
        grid.n_nodes, grid.rows, grid.cols, rng.choice([0.5, 1.0, 2.0], size=grid.n_edges)
    )
    expected = _dict_mapped_tree_edges(graph, maximize=maximize)
    got = _spanning_tree_edges(graph, maximize=maximize)
    assert np.array_equal(got, expected)
    tree = (maximum_spanning_tree if maximize else minimum_spanning_tree)(graph)
    reference = WeightedGraph(
        graph.n_nodes, graph.rows[expected], graph.cols[expected], graph.weights[expected]
    )
    assert np.array_equal(tree.rows, reference.rows)
    assert np.array_equal(tree.cols, reference.cols)
    assert np.array_equal(tree.weights, reference.weights)


def test_spanning_tree_mapping_matches_dict_reference_on_knn_graph(features):
    graph = knn_graph(features, 5, ensure_connected=True)
    for maximize in (True, False):
        assert np.array_equal(
            _spanning_tree_edges(graph, maximize=maximize),
            _dict_mapped_tree_edges(graph, maximize=maximize),
        )


def test_spanning_forest_of_disconnected_graph():
    graph = WeightedGraph(6, [0, 1, 0, 3, 4], [1, 2, 2, 4, 5], [1.0, 2.0, 3.0, 2.0, 2.0])
    forest = maximum_spanning_tree(graph)
    assert forest.edges.tolist() == [[0, 2], [1, 2], [3, 4], [4, 5]]
    assert minimum_spanning_tree(graph).edges.tolist() == [[0, 1], [1, 2], [3, 4], [4, 5]]
    assert maximum_spanning_tree(WeightedGraph(3)).n_edges == 0

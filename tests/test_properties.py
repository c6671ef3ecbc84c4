"""Property-based invariants of the graph substrate.

Randomised (hypothesis) checks of the contracts everything else builds on:
the canonical edge storage of :class:`~repro.graphs.graph.WeightedGraph`,
the algebraic identities of graph Laplacians, and the weight/connectivity
preservation of the Galerkin coarsening the graph partitioner builds on.

All tests run derandomised (hypothesis replays a fixed example sequence) so
CI and local runs see identical cases.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import WeightedGraph
from repro.linalg.coarsening import coarsen_graph, heavy_edge_matching

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def raw_edge_lists(draw, min_nodes=2, max_nodes=24, max_edges=60):
    """(n_nodes, rows, cols, weights) with duplicates, loops and both orientations."""
    n = draw(st.integers(min_nodes, max_nodes))
    m = draw(st.integers(0, max_edges))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = draw(
        st.lists(
            st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
            min_size=m,
            max_size=m,
        )
    )
    return n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(weights)


@st.composite
def connected_graphs(draw, min_nodes=3, max_nodes=24, max_extra_edges=40):
    """A connected WeightedGraph: a random-weight path plus random extra edges."""
    n, rows, cols, weights = draw(raw_edge_lists(min_nodes, max_nodes, max_extra_edges))
    path = np.arange(n - 1)
    path_w = draw(
        st.lists(
            st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    return WeightedGraph(
        n,
        np.concatenate([path, rows]),
        np.concatenate([path + 1, cols]),
        np.concatenate([np.array(path_w), weights]),
    )


def _brute_weights(n, rows, cols, weights):
    """Reference canonicalisation: dict of summed weights per undirected edge."""
    merged = {}
    for s, t, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
        if s == t:
            continue
        key = (min(s, t), max(s, t))
        merged[key] = merged.get(key, 0.0) + w
    return merged


# ----------------------------------------------------------------------
# WeightedGraph canonical storage
# ----------------------------------------------------------------------
@SETTINGS
@given(raw_edge_lists())
def test_canonical_form_matches_brute_force_merge(data):
    n, rows, cols, weights = data
    graph = WeightedGraph(n, rows, cols, weights)
    merged = _brute_weights(n, rows, cols, weights)
    assert graph.n_edges == len(merged)
    for (s, t), w in merged.items():
        assert graph.has_edge(s, t) and graph.has_edge(t, s)
        assert graph.edge_weight(s, t) == pytest.approx(w)
    # Canonical invariant: rows < cols, lexsorted, duplicate-free.
    assert bool((graph.rows < graph.cols).all())
    keys = graph.rows * np.int64(n) + graph.cols
    assert bool((np.diff(keys) > 0).all()) if keys.size > 1 else True


@SETTINGS
@given(raw_edge_lists())
def test_edges_round_trip_through_from_edges(data):
    n, rows, cols, weights = data
    graph = WeightedGraph(n, rows, cols, weights)
    rebuilt = WeightedGraph.from_edges(n, graph.edges, graph.weights)
    assert rebuilt == graph
    # Reversed orientation and shuffled order land on the same canonical form.
    reversed_graph = WeightedGraph(n, graph.cols, graph.rows, graph.weights)
    assert reversed_graph == graph


@SETTINGS
@given(raw_edge_lists())
def test_bulk_queries_match_scalar_queries(data):
    n, rows, cols, weights = data
    graph = WeightedGraph(n, rows, cols, weights)
    queries = np.array(
        [[s, t] for s in range(min(n, 6)) for t in range(min(n, 6))], dtype=np.int64
    )
    found = graph.has_edges(queries)
    for (s, t), hit in zip(queries.tolist(), found.tolist()):
        assert hit == graph.has_edge(s, t)
    present = queries[found]
    if present.size:
        looked_up = graph.edge_weights(present)
        for (s, t), w in zip(present.tolist(), looked_up.tolist()):
            assert w == pytest.approx(graph.edge_weight(s, t))


# ----------------------------------------------------------------------
# Laplacian identities
# ----------------------------------------------------------------------
@SETTINGS
@given(raw_edge_lists())
def test_laplacian_psd_and_zero_row_sums(data):
    n, rows, cols, weights = data
    graph = WeightedGraph(n, rows, cols, weights)
    lap = graph.laplacian().toarray()
    np.testing.assert_allclose(lap, lap.T)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-9 * max(graph.total_weight, 1.0))
    eigenvalues = np.linalg.eigvalsh(lap)
    assert eigenvalues.min() >= -1e-8 * max(graph.total_weight, 1.0)


@SETTINGS
@given(raw_edge_lists())
def test_laplacian_nullspace_dimension_counts_components(data):
    n, rows, cols, weights = data
    graph = WeightedGraph(n, rows, cols, weights)
    n_components, _ = graph.connected_components()
    eigenvalues = np.linalg.eigvalsh(graph.laplacian().toarray())
    scale = max(float(eigenvalues.max(initial=0.0)), 1.0)
    assert int((eigenvalues < 1e-9 * scale).sum()) == n_components


# ----------------------------------------------------------------------
# Coarsening invariants
# ----------------------------------------------------------------------
@SETTINGS
@given(connected_graphs(), st.integers(0, 3))
def test_prolongation_columns_partition_nodes(graph, seed):
    level = coarsen_graph(graph, seed=seed)
    p = level.prolongation.toarray()
    # Every fine node belongs to exactly one aggregate, with unit weight.
    np.testing.assert_allclose(p.sum(axis=1), 1.0)
    assert bool(((p == 0.0) | (p == 1.0)).all())
    # Every aggregate is non-empty.
    assert bool((p.sum(axis=0) >= 1.0).all())
    assert np.array_equal(np.argmax(p, axis=1), level.aggregates)


@SETTINGS
@given(connected_graphs(), st.integers(0, 3))
def test_galerkin_coarse_laplacian_identity(graph, seed):
    level = coarsen_graph(graph, seed=seed)
    p = level.prolongation
    galerkin = (p.T @ graph.laplacian() @ p).toarray()
    np.testing.assert_allclose(
        galerkin, level.graph.laplacian().toarray(), atol=1e-9 * max(graph.total_weight, 1.0)
    )


@SETTINGS
@given(connected_graphs(), st.integers(0, 3))
def test_coarsening_preserves_weight_and_connectivity(graph, seed):
    level = coarsen_graph(graph, seed=seed)
    # Weight preservation: no conductance is invented or lost — the coarse
    # total equals the fine total minus exactly the contracted
    # intra-aggregate weight.
    intra = level.aggregates[graph.rows] == level.aggregates[graph.cols]
    intra_weight = float(graph.weights[intra].sum())
    assert level.graph.total_weight == pytest.approx(graph.total_weight - intra_weight)
    # Contraction preserves the component structure.
    assert level.graph.is_connected() == graph.is_connected()
    fine_components, _ = graph.connected_components()
    coarse_components, _ = level.graph.connected_components()
    assert coarse_components == fine_components


@SETTINGS
@given(connected_graphs(min_nodes=4, max_nodes=24), st.integers(0, 3))
def test_heavy_edge_matching_is_a_valid_aggregation(graph, seed):
    aggregates = heavy_edge_matching(graph, seed=seed)
    assert aggregates.shape == (graph.n_nodes,)
    ids = np.unique(aggregates)
    # Contiguous aggregate ids, each holding one or two nodes (matching).
    assert ids.min() == 0 and ids.max() == ids.size - 1
    counts = np.bincount(aggregates)
    assert bool((counts >= 1).all()) and bool((counts <= 2).all())

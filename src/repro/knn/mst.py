"""Maximum / minimum spanning trees of weighted graphs.

SGL seeds its densification loop with the *maximum* spanning tree of the kNN
graph (Step 1): since kNN edge weights are inverse squared distances, the
maximum-weight tree keeps the shortest (most similar) connections, i.e. it is
the minimum-distance spanning tree of the underlying point cloud.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree as _csgraph_mst

from repro.graphs.graph import WeightedGraph

__all__ = ["maximum_spanning_tree", "minimum_spanning_tree"]


def _spanning_tree_edges(graph: WeightedGraph, *, maximize: bool) -> np.ndarray:
    """Sorted indices (into the graph's edge arrays) of the chosen tree edges."""
    if graph.n_edges == 0:
        return np.empty(0, dtype=np.int64)
    n = graph.n_nodes
    # csgraph treats explicit zeros as missing; shift weights to be strictly
    # negative (maximize) or strictly positive (minimize) to avoid dropping
    # edges whose weight happens to be zero after negation.
    sort_weights = -graph.weights if maximize else graph.weights
    shift = sort_weights.min() - 1.0
    shifted = sp.csr_matrix(
        (sort_weights - shift, (graph.rows, graph.cols)), shape=(n, n)
    )
    tree = _csgraph_mst(shifted).tocoo()
    # Map tree arcs back to canonical edge indices: one binary search over
    # the graph's sorted edge keys.
    lo = np.minimum(tree.row, tree.col).astype(np.int64)
    hi = np.maximum(tree.row, tree.col).astype(np.int64)
    idx, _ = graph._find_edges(lo, hi)
    return np.sort(idx)


def maximum_spanning_tree(graph: WeightedGraph) -> WeightedGraph:
    """Maximum-weight spanning forest of ``graph`` (tree if connected).

    Edge weights of the returned graph are the original weights of the chosen
    edges.
    """
    idx = _spanning_tree_edges(graph, maximize=True)
    return WeightedGraph._from_canonical(
        graph.n_nodes, graph.rows[idx], graph.cols[idx], graph.weights[idx]
    )


def minimum_spanning_tree(graph: WeightedGraph) -> WeightedGraph:
    """Minimum-weight spanning forest of ``graph``."""
    idx = _spanning_tree_edges(graph, maximize=False)
    return WeightedGraph._from_canonical(
        graph.n_nodes, graph.rows[idx], graph.cols[idx], graph.weights[idx]
    )

"""Graph coarsening by heavy-edge matching.

A greedy heavy-edge matching (the classic multigrid/METIS aggregation rule
-- each node is merged with its heaviest unmatched neighbour), the induced
piecewise-constant prolongation operator and the Galerkin coarse Laplacian
``L_c = P^T L P``.  :class:`~repro.partition.GraphPartitioner` coarsens a
graph level by level with :func:`coarsen_graph` and partitions the coarsest
one.

Because ``P`` is a partition-indicator matrix, the Galerkin product is
*weight-preserving*: the coarse graph is exactly the contraction of the fine
graph (parallel inter-aggregate edges have their conductances summed,
intra-aggregate edges disappear into the contracted node), and
``L_coarse = P^T L_fine P`` holds identically -- no mass is invented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import WeightedGraph

__all__ = [
    "CoarseLevel",
    "contract_graph",
    "heavy_edge_matching",
    "coarsen_graph",
]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening level: the contracted graph and its aggregate map.

    Attributes
    ----------
    graph:
        The coarse graph (Galerkin product of the finer graph).
    aggregates:
        Length-``N_fine`` array mapping each fine node to its coarse node.
    prolongation:
        Sparse ``(N_fine, N_coarse)`` piecewise-constant interpolation matrix
        with unit entries, so ``L_coarse = P^T L_fine P``.

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg import coarsen_graph
    >>> level = coarsen_graph(grid_2d(6, 6))
    >>> level.aggregates.shape, level.prolongation.shape[0]
    ((36,), 36)
    """

    graph: WeightedGraph
    aggregates: np.ndarray
    prolongation: sp.csr_matrix


def heavy_edge_matching(graph: WeightedGraph, *, seed: int | None = 0) -> np.ndarray:
    """Greedy heavy-edge matching.

    Visits nodes in random order; each unmatched node is merged with its
    heaviest unmatched neighbour (or left as a singleton aggregate).  Returns
    an array mapping every node to a contiguous aggregate id.

    Examples
    --------
    Matching roughly halves the node count of a mesh:

    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg import heavy_edge_matching
    >>> aggregates = heavy_edge_matching(grid_2d(8, 8), seed=0)
    >>> bool(32 <= aggregates.max() + 1 <= 40)
    True
    """
    n = graph.n_nodes
    rng = np.random.default_rng(seed)
    adjacency = graph.adjacency()
    matched = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    next_aggregate = 0
    for node in order:
        if matched[node] >= 0:
            continue
        start, end = adjacency.indptr[node], adjacency.indptr[node + 1]
        neighbors = adjacency.indices[start:end]
        weights = adjacency.data[start:end]
        best = -1
        best_weight = -np.inf
        for nb, w in zip(neighbors, weights):
            if matched[nb] < 0 and nb != node and w > best_weight:
                best, best_weight = int(nb), float(w)
        matched[node] = next_aggregate
        if best >= 0:
            matched[best] = next_aggregate
        next_aggregate += 1
    return matched


def _prolongation_from_aggregates(aggregates: np.ndarray, n_coarse: int) -> sp.csr_matrix:
    n_fine = aggregates.size
    data = np.ones(n_fine)
    return sp.csr_matrix(
        (data, (np.arange(n_fine), aggregates)), shape=(n_fine, n_coarse)
    )


def contract_graph(
    graph: WeightedGraph, aggregates: np.ndarray, n_coarse: int
) -> WeightedGraph:
    """Contract ``graph`` along an aggregate map (the Galerkin coarse graph).

    Equivalent to building ``P^T A P`` and dropping the diagonal, but done
    directly on the edge arrays: relabel both endpoints by their aggregate id
    and let the :class:`~repro.graphs.graph.WeightedGraph` constructor merge
    parallel edges (conductances sum) and drop the self loops that contracted
    intra-aggregate edges become.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs.graph import WeightedGraph
    >>> from repro.linalg.coarsening import contract_graph
    >>> square = WeightedGraph(4, [0, 1, 2, 0], [1, 2, 3, 3])
    >>> coarse = contract_graph(square, np.array([0, 0, 1, 1]), 2)
    >>> coarse.n_nodes, coarse.n_edges, coarse.total_weight  # two parallel edges merge
    (2, 1, 2.0)
    """
    aggregates = np.asarray(aggregates, dtype=np.int64)
    if aggregates.size != graph.n_nodes:
        raise ValueError("aggregates must assign every fine node to a coarse node")
    return WeightedGraph(
        n_coarse, aggregates[graph.rows], aggregates[graph.cols], graph.weights
    )


def coarsen_graph(graph: WeightedGraph, *, seed: int | None = 0) -> CoarseLevel:
    """Coarsen ``graph`` one level via heavy-edge matching.

    The coarse Laplacian is the Galerkin product ``P^T L P``; since ``P`` is
    a partition indicator matrix this is exactly the graph obtained by
    contracting each aggregate and summing parallel edge weights.

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg import coarsen_graph
    >>> fine = grid_2d(8, 8)
    >>> level = coarsen_graph(fine, seed=0)
    >>> bool(level.graph.n_nodes < fine.n_nodes)
    True
    >>> bool(level.graph.total_weight <= fine.total_weight)
    True
    """
    aggregates = heavy_edge_matching(graph, seed=seed)
    n_coarse = int(aggregates.max()) + 1 if aggregates.size else 0
    prolongation = _prolongation_from_aggregates(aggregates, n_coarse)
    coarse = contract_graph(graph, aggregates, n_coarse)
    return CoarseLevel(graph=coarse, aggregates=aggregates, prolongation=prolongation)

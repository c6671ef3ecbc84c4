"""Kron reduction of resistor networks.

Kron reduction (Schur complement of the Laplacian onto a retained node set)
is the canonical way to build a smaller electrically equivalent network: it
exactly preserves the effective resistances between every pair of retained
nodes.  The paper's reduced-network experiment (Fig. 8) learns a graph from
the voltages of 10-20% of the nodes; since those voltages encode effective
resistances between observed nodes, the Kron-reduced network is the natural
ground truth the learned reduced graph should resemble -- and is what the
reproduction's Fig. 8 driver compares against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph

__all__ = ["kron_reduction"]


def kron_reduction(
    graph: WeightedGraph,
    keep_nodes: np.ndarray | list[int],
    *,
    weight_threshold: float = 1e-10,
) -> WeightedGraph:
    """Kron-reduce ``graph`` onto ``keep_nodes``.

    Computes the Schur complement
    ``L_red = L_AA - L_AB L_BB^{-1} L_BA`` where ``A`` is the retained node
    set, and converts it back into a weighted graph (off-diagonal entries
    whose magnitude falls below ``weight_threshold`` times the largest weight
    are dropped; Kron reduction generally produces dense fill-in, so the
    result can have O(|A|^2) edges).

    Parameters
    ----------
    graph:
        Connected resistor network.
    keep_nodes:
        Nodes to retain (order defines the new node numbering).
    weight_threshold:
        Relative threshold below which reduced edge weights are discarded.
    """
    keep = np.asarray(keep_nodes, dtype=np.int64)
    if keep.size < 2:
        raise ValueError("need at least two retained nodes")
    if np.unique(keep).size != keep.size:
        raise ValueError("keep_nodes must be unique")
    n = graph.n_nodes
    if keep.min() < 0 or keep.max() >= n:
        raise ValueError("keep_nodes out of range")
    mask = np.zeros(n, dtype=bool)
    mask[keep] = True
    eliminate = np.where(~mask)[0]

    laplacian = graph.laplacian().tocsc()
    if eliminate.size == 0:
        reduced = laplacian[keep][:, keep].toarray()
    else:
        l_aa = laplacian[keep][:, keep].toarray()
        l_ab = laplacian[keep][:, eliminate].toarray()
        l_bb = laplacian[eliminate][:, eliminate].tocsc()
        # L_BB is nonsingular for a connected graph with a nonempty retained set.
        solve = spla.splu(l_bb)
        correction = l_ab @ solve.solve(l_ab.T)
        reduced = l_aa - correction

    # Convert the reduced Laplacian back into a graph.
    reduced = 0.5 * (reduced + reduced.T)
    off_diag = -reduced
    np.fill_diagonal(off_diag, 0.0)
    max_weight = float(np.max(off_diag)) if off_diag.size else 0.0
    threshold = weight_threshold * max(max_weight, 1e-300)
    rows, cols = np.where(np.triu(off_diag, k=1) > threshold)
    weights = off_diag[rows, cols]
    return WeightedGraph(keep.size, rows, cols, weights)

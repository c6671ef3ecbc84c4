"""Preconditioners for the multilevel eigensolver's LOBPCG refinement.

Two classical choices are provided:

* :func:`jacobi_preconditioner` -- diagonal scaling, cheap and always
  applicable;
* :func:`spanning_tree_preconditioner` -- support-graph preconditioning with a
  (maximum-weight) spanning tree, the simple ancestor of the
  Koutis-Miller-Peng style solvers the paper cites [7]; tree systems are
  solved exactly by a grounded sparse factorisation, which is O(N) because
  tree Laplacians have perfect elimination orderings.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph

__all__ = ["jacobi_preconditioner", "spanning_tree_preconditioner"]


def jacobi_preconditioner(matrix: sp.spmatrix | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Return a callable applying ``diag(A)^{-1}`` (zeros left untouched).

    The apply accepts a single vector ``(n,)`` or a block ``(n, m)`` of
    right-hand sides and preserves the input's shape, so it can serve as
    both the ``matvec`` and ``matmat`` of a ``LinearOperator``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.linalg import jacobi_preconditioner
    >>> apply = jacobi_preconditioner(np.diag([2.0, 4.0]))
    >>> apply(np.array([2.0, 4.0])).tolist()
    [1.0, 1.0]
    """
    mat = sp.csr_matrix(matrix)
    diag = mat.diagonal().astype(np.float64)
    inv_diag = np.where(diag > 0, 1.0 / np.maximum(diag, 1e-300), 0.0)

    def apply(vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64)
        if v.ndim == 1:
            return inv_diag * v
        return inv_diag[:, None] * v

    return apply


def spanning_tree_preconditioner(
    graph: WeightedGraph,
    *,
    tree: WeightedGraph | None = None,
    ground_node: int = 0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Return a callable applying the pseudo-inverse of a spanning-tree Laplacian.

    Parameters
    ----------
    graph:
        The graph whose Laplacian system is being preconditioned.
    tree:
        Optional explicit spanning tree; by default the maximum-weight
        spanning tree of ``graph`` is used (the heaviest edges support the
        most "current", making the tree the best single-tree approximation of
        the graph in the support-theory sense).
    ground_node:
        Node grounded when factorising the tree Laplacian.

    The returned apply accepts a single vector ``(n,)`` or a block
    ``(n, m)`` of right-hand sides and preserves the input's shape.  Block
    applies go through one grounded factorisation solve, which keeps a
    block eigensolver's preconditioning out of the per-column Python
    dispatch a ``LinearOperator`` falls back to without a ``matmat``.

    Examples
    --------
    On a tree the preconditioner *is* the exact pseudo-inverse:

    >>> import numpy as np
    >>> from repro.graphs.graph import WeightedGraph
    >>> from repro.linalg import spanning_tree_preconditioner
    >>> tree = WeightedGraph(3, [0, 1], [1, 2])
    >>> apply = spanning_tree_preconditioner(tree)
    >>> v = np.array([1.0, 0.0, -1.0])
    >>> bool(np.allclose(tree.laplacian() @ apply(v), v))
    True
    """
    from repro.knn.mst import maximum_spanning_tree

    if tree is None:
        tree = maximum_spanning_tree(graph)
    if tree.n_nodes != graph.n_nodes:
        raise ValueError("tree must span the same node set as graph")

    n = graph.n_nodes
    keep = np.ones(n, dtype=bool)
    keep[ground_node] = False
    tree_lap = tree.laplacian()
    if n == 1:
        return lambda v: np.zeros_like(np.asarray(v, dtype=np.float64))
    reduced = tree_lap[keep][:, keep].tocsc()
    lu = spla.splu(reduced)

    def apply(vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64)
        one_d = v.ndim == 1
        if one_d:
            v = v[:, None]
        v = v - v.mean(axis=0, keepdims=True)
        out = np.zeros_like(v)
        out[keep] = lu.solve(v[keep])
        out -= out.mean(axis=0, keepdims=True)
        return out[:, 0] if one_d else out

    return apply

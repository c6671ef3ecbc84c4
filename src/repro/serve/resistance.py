"""Exact batched effective-resistance oracle for tree-plus-few-edges graphs.

SGL-learned graphs are, by construction, a spanning tree plus a small set of
off-tree edges (density barely above 1).  That structure admits a far better
batched query algorithm than repeated Laplacian solves.  Split the graph as

    L = T + U W U^T,

where ``T`` is the Laplacian of a spanning tree, ``U`` the oriented
incidence columns of the ``m`` off-tree edges and ``W`` their diagonal
weights.  Grounding one node makes both sides nonsingular, and Woodbury
gives, for ``b = e_s - e_t`` (ground coordinate dropped),

    R_eff(s, t) = b^T L_g^{-1} b
                = R_tree(s, t) - v^T M^{-1} v,

with ``v = Z^T b`` for ``Z = T_g^{-1} U_g`` (one tree solve per off-tree
edge, done once) and ``M = W^{-1} + U_g^T Z`` (an SPD ``m x m`` matrix,
Cholesky-factorised once).  Per query that leaves

* ``R_tree(s, t)`` — the resistance of the tree path, computed as
  ``pot[s] + pot[t] - 2 pot[lca(s, t)]`` from root-to-node resistance
  potentials and a vectorised binary-lifting LCA (``O(log N)`` gathers per
  batch, no solves);
* the correction ``v^T M^{-1} v`` — two small BLAS calls per batch.

Everything is exact (it is algebra, not approximation); the only float
caveat is the conditioning of ``M``, which stays benign because the
spanning tree is chosen *maximum-weight* — off-tree edges are the weak
ones.  Eligibility is checked by :meth:`ResistanceOracle.eligible`: the
oracle pays ``O(m^2)`` per batched query and ``O(N m)`` memory for ``Z``,
so graphs that are not tree-like fall back to grouped multi-RHS solves
(:func:`repro.metrics.effective_resistance_batched`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph
from repro.knn.mst import maximum_spanning_tree

__all__ = ["ResistanceOracle"]

#: Off-tree-edge count beyond which the dense m x m correction stops paying.
_MAX_OFF_TREE = 2000

#: Cap on the dense ``Z`` scratch matrix (n * m doubles).
_MAX_Z_ENTRIES = 20_000_000


class ResistanceOracle:
    """Precomputed exact effective-resistance queries on a tree-like graph.

    Parameters
    ----------
    graph:
        Connected :class:`~repro.graphs.WeightedGraph`.  Use
        :meth:`eligible` first; construction raises ``ValueError`` on
        graphs with too many off-tree edges.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg import effective_resistance
    >>> from repro.serve.resistance import ResistanceOracle
    >>> graph = grid_2d(5, 5)  # 25 nodes, 40 edges: m = 16 off-tree
    >>> oracle = ResistanceOracle(graph)
    >>> pairs = [(0, 24), (3, 17), (6, 6)]
    >>> bool(np.allclose(oracle.query(pairs), effective_resistance(graph, pairs)))
    True
    """

    def __init__(self, graph: WeightedGraph) -> None:
        if not graph.is_connected():
            raise ValueError("ResistanceOracle requires a connected graph")
        n = graph.n_nodes
        m_off = graph.n_edges - (n - 1)
        if not self.eligible(graph):
            raise ValueError(
                f"graph is not tree-like enough for the oracle "
                f"({m_off} off-tree edges on {n} nodes); use grouped solves"
            )
        self.n_nodes = n
        tree = maximum_spanning_tree(graph)
        self._build_tree_tables(tree)
        self._build_correction(graph, tree)

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(graph: WeightedGraph) -> bool:
        """Whether the tree + low-rank decomposition will pay off."""
        n = graph.n_nodes
        if n < 2:
            return False
        m_off = graph.n_edges - (n - 1)
        if m_off < 0:  # disconnected; the constructor re-checks properly
            return False
        return m_off <= min(_MAX_OFF_TREE, max(n // 8, 64)) and (
            n * max(m_off, 1) <= _MAX_Z_ENTRIES
        )

    # ------------------------------------------------------------------
    def _build_tree_tables(self, tree: WeightedGraph) -> None:
        """Root the tree; build resistance potentials and LCA lifting tables."""
        n = tree.n_nodes
        order, parents = sp.csgraph.breadth_first_order(
            tree.adjacency(), i_start=0, directed=False, return_predecessors=True
        )
        parent = np.asarray(parents, dtype=np.int64)
        parent[0] = 0  # root points at itself: lifting past the root is a no-op
        order = np.asarray(order, dtype=np.int64)
        non_root = order[1:]
        edge_r = 1.0 / tree.edge_weights(
            np.column_stack([parent[non_root], non_root])
        )
        # Root potentials as unevaluated sums hi + lo (one TwoSum per edge).
        # A path resistance is a difference of two potentials that share the
        # prefix from the root; in plain float64 the prefix's rounding
        # survives that subtraction, which loses ~1e-8 relative on a short
        # path of strong edges below a long path of weak ones.  BFS order
        # guarantees parents are finalised before children.
        parent_of = parent.tolist()
        depth = [0] * n
        hi = [0.0] * n
        lo = [0.0] * n
        for node, r in zip(non_root.tolist(), edge_r.tolist()):
            p = parent_of[node]
            before = hi[p]
            total = before + r
            step = total - before
            lo[node] = lo[p] + ((before - (total - step)) + (r - step))
            hi[node] = total
            depth[node] = depth[p] + 1
        depth = np.asarray(depth, dtype=np.int64)
        self._order = order
        self._edge_r = edge_r
        self._depth = depth
        self._pot = np.asarray(hi)
        self._pot_lo = np.asarray(lo)
        levels = max(1, int(np.ceil(np.log2(max(int(depth.max()), 1) + 1))) + 1)
        up = np.empty((levels, n), dtype=np.int64)
        up[0] = parent
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
        self._up = up

    def _lca(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised binary-lifting lowest common ancestors."""
        u = u.copy()
        v = v.copy()
        depth, up = self._depth, self._up
        # Lift the deeper endpoint to the shallower one's depth.
        swap = depth[u] < depth[v]
        u[swap], v[swap] = v[swap], u[swap]
        diff = depth[u] - depth[v]
        for k in range(up.shape[0]):
            mask = (diff >> k) & 1 == 1
            if mask.any():
                u[mask] = up[k][u[mask]]
        # Lift both until the parents coincide.
        todo = u != v
        for k in range(up.shape[0] - 1, -1, -1):
            mask = todo & (up[k][u] != up[k][v])
            if mask.any():
                u[mask] = up[k][u[mask]]
                v[mask] = up[k][v[mask]]
        lca = u.copy()
        lca[todo] = up[0][u[todo]]
        return lca

    def tree_resistance(self, pairs: np.ndarray) -> np.ndarray:
        """Resistance of the spanning-tree paths (series resistors)."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        s, t = pairs[:, 0], pairs[:, 1]
        lca = self._lca(s, t)
        hi, lo = self._pot, self._pot_lo
        return ((hi[s] - hi[lca]) + (hi[t] - hi[lca])) + (
            (lo[s] - lo[lca]) + (lo[t] - lo[lca])
        )

    # ------------------------------------------------------------------
    def _build_correction(self, graph: WeightedGraph, tree: WeightedGraph) -> None:
        """Precompute ``Z`` rows and the Cholesky factor of ``M``."""
        n = graph.n_nodes
        off_mask = ~tree.has_edges(graph.edges)
        off_edges = graph.edges[off_mask]
        off_weights = graph.weights[off_mask]
        m = off_edges.shape[0]
        self.n_off_tree = m
        if m == 0:
            self._z = None
            self._cho = None
            return
        # Solve T_g Z = U_g for all off-tree edges through the tree's
        # structure, not by factorising T_g.  Eliminating a tree Laplacian
        # subtracts each edge weight from its endpoint's degree, which loses
        # every digit the weight range holds (learned weights can span 1e8:
        # ~1e-8 relative error in Z).  With B the rooted tree's incidence
        # matrix (row per non-root node x: +1 at x, -1 at its parent),
        # T_g = B^T R^{-1} B for the edge resistances R, so
        # Z = B^{-1} R B^{-T} U_g: the flow on each tree edge is a subtree
        # sum of +-1 injections (exact), and each potential is its parent's
        # plus ``r * flow``.  In BFS order B is unit lower triangular.
        order = self._order
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        child = position[order[1:]] - 1
        parent_pos = position[self._up[0][order[1:]]] - 1
        keep = parent_pos >= 0  # the root's column is grounded away
        incidence = sp.csc_matrix(
            (
                np.concatenate([np.ones(n - 1), -np.ones(int(keep.sum()))]),
                (
                    np.concatenate([child, child[keep]]),
                    np.concatenate([child, parent_pos[keep]]),
                ),
            ),
            shape=(n - 1, n - 1),
        )
        lu = spla.splu(incidence, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        rhs = np.zeros((n - 1, m))
        cols = np.arange(m)
        a, b = off_edges[:, 0], off_edges[:, 1]
        pa, pb = position[a] - 1, position[b] - 1
        mask_a = pa >= 0
        rhs[pa[mask_a], cols[mask_a]] = 1.0
        mask_b = pb >= 0
        rhs[pb[mask_b], cols[mask_b]] -= 1.0
        flow = lu.solve(rhs, trans="T")
        z = np.zeros((n, m))
        z[order[1:]] = lu.solve(self._edge_r[:, None] * flow)
        self._z = z
        gram = z[a] - z[b]  # U_g^T Z, row per off-tree edge
        M = np.diag(1.0 / off_weights) + gram
        M = 0.5 * (M + M.T)  # symmetrise fp noise before Cholesky
        self._cho = sla.cho_factor(M, lower=True)

    # ------------------------------------------------------------------
    def query(self, pairs: np.ndarray) -> np.ndarray:
        """Exact effective resistances of ``(m, 2)`` node pairs, batched."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size == 0:
            return np.empty(0)
        if pairs.min() < 0 or pairs.max() >= self.n_nodes:
            raise ValueError(f"pair endpoint out of range for {self.n_nodes} nodes")
        out = self.tree_resistance(pairs)
        if self._z is not None:
            v = self._z[pairs[:, 0]] - self._z[pairs[:, 1]]
            out = out - np.einsum(
                "ij,ij->i", v, sla.cho_solve(self._cho, v.T).T
            )
        # s == t pairs are exactly zero by construction; clamp the
        # correction's last-ulp negatives on near-duplicate nodes.
        return np.maximum(out, 0.0)

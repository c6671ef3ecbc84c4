"""Direct solver for graph Laplacian systems.

A connected graph Laplacian ``L`` is singular with null space spanned by the
all-one vector, so ``L x = b`` only has solutions when ``b`` sums to zero, and
the solution is unique only up to an additive constant.  The canonical choice
used throughout the library (and implicitly by the paper via the Moore-Penrose
pseudo-inverse) is the *mean-free* solution ``x = L^+ b``.

:class:`LaplacianSolver` wraps this convention around a grounded sparse LU:
it grounds one node, factorises the reduced SPD matrix once with SuperLU and
reuses the factorisation for many right-hand sides (this is what Step 5 of
the SGL algorithm needs: one factorisation, ``M`` solves).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph

__all__ = ["LaplacianSolver"]


def _as_laplacian(graph_or_laplacian: WeightedGraph | sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    if isinstance(graph_or_laplacian, WeightedGraph):
        return graph_or_laplacian.laplacian()
    return sp.csr_matrix(graph_or_laplacian)


def _remove_mean(x: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return x - x.mean()
    return x - x.mean(axis=0, keepdims=True)


class LaplacianSolver:
    """Reusable solver for ``L x = b`` returning the mean-free solution ``L^+ b``.

    Parameters
    ----------
    graph_or_laplacian:
        A :class:`~repro.graphs.WeightedGraph` or a sparse/dense Laplacian.
        The graph must be connected; otherwise solutions are not well defined
        and a :class:`ValueError` is raised.
    ground_node:
        Node eliminated from the factorisation.  Any node works; exposed
        mainly for tests.

    Examples
    --------
    Effective resistance across a path of two unit resistors is 2 ohms:

    >>> import numpy as np
    >>> from repro.graphs.graph import WeightedGraph
    >>> from repro.linalg import LaplacianSolver
    >>> path = WeightedGraph(3, [0, 1], [1, 2])
    >>> solver = LaplacianSolver(path)
    >>> x = solver.solve(np.array([1.0, 0.0, -1.0]))  # inject 1 A end to end
    >>> round(float(x[0] - x[2]), 6)
    2.0
    """

    def __init__(
        self,
        graph_or_laplacian: WeightedGraph | sp.spmatrix | np.ndarray,
        *,
        ground_node: int = 0,
    ) -> None:
        laplacian = _as_laplacian(graph_or_laplacian).tocsr()
        n = laplacian.shape[0]
        if laplacian.shape[0] != laplacian.shape[1]:
            raise ValueError("Laplacian must be square")
        if n == 0:
            raise ValueError("empty Laplacian")
        n_components, _ = sp.csgraph.connected_components(
            sp.csr_matrix((np.abs(laplacian.data), laplacian.indices, laplacian.indptr), shape=laplacian.shape),
            directed=False,
        )
        if n_components != 1 and n > 1:
            raise ValueError(
                "LaplacianSolver requires a connected graph "
                f"(found {n_components} connected components)"
            )
        if not 0 <= ground_node < n:
            raise ValueError("ground_node out of range")

        self._laplacian = laplacian
        self._n = n
        self._ground = int(ground_node)
        self._lu: spla.SuperLU | None = None
        self._factorize()

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Dimension of the Laplacian."""
        return self._n

    @property
    def laplacian(self) -> sp.csr_matrix:
        """The Laplacian being solved (read-only reference)."""
        return self._laplacian

    # ------------------------------------------------------------------
    def _factorize(self) -> None:
        """Sparse LU of the Laplacian with the ground node's row and column removed.

        The grounded Laplacian is SPD with symmetric sparsity, so SuperLU runs
        in symmetric mode with minimum-degree ordering on ``A + A^T`` and no
        diagonal pivoting: markedly less fill-in (and faster factor/solve)
        than the pivoting COLAMD default — on irregular graphs pivoting
        fragments SuperLU's supernodes, costing up to an order of magnitude.
        """
        keep = np.ones(self._n, dtype=bool)
        keep[self._ground] = False
        if self._n == 1:
            self._lu = None
            return
        self._lu = spla.splu(
            sp.csc_matrix(self._laplacian[keep][:, keep]),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    def _solve_vector(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.size != self._n:
            raise ValueError(f"right-hand side has length {b.size}, expected {self._n}")
        # Project the right-hand side onto the range of L (zero-sum vectors).
        b = b - b.mean()
        if self._n == 1:
            return np.zeros(1)
        return _remove_mean(self._grounded_solve(b))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``L x = rhs`` returning the mean-free solution.

        ``rhs`` may be a vector of length ``N`` or a matrix ``(N, M)`` of
        right-hand-side columns.  Right-hand sides are projected onto the
        zero-sum subspace first, matching the pseudo-inverse solution
        ``L^+ rhs``.  A matrix right-hand side is dispatched to SuperLU as
        *one* multi-RHS triangular solve — the factorisation is traversed
        once for the whole block instead of once per column, which is what
        makes the batched effective-resistance queries of :mod:`repro.serve`
        profitable.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim == 1:
            return self._solve_vector(rhs)
        if rhs.ndim != 2 or rhs.shape[0] != self._n:
            raise ValueError(f"rhs must have shape ({self._n},) or ({self._n}, M)")
        return self._solve_block(rhs)

    def _solve_block(self, rhs: np.ndarray) -> np.ndarray:
        """Multi-RHS solve: one SuperLU call per block.

        Column-wise identical to looping :meth:`_solve_vector` (SuperLU
        back-substitutes each column independently); only the traversal
        bookkeeping is amortised across the block.
        """
        b = rhs - rhs.mean(axis=0, keepdims=True)
        if self._n == 1:
            return np.zeros_like(b)
        return _remove_mean(self._grounded_solve(b))

    def _grounded_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve with the ground node's row dropped, its potential set to 0.

        Both copies go by slices, which at 10k nodes costs a third of a
        boolean-mask gather and scatter.  ``x`` keeps the layout of ``b``,
        so the mean the caller removes sums in the same order either way.
        """
        ground = self._ground
        solved = self._lu.solve(np.delete(b, ground, axis=0))
        x = np.zeros_like(b)
        x[:ground] = solved[:ground]
        x[ground + 1 :] = solved[ground:]
        return x

    def solve_grounded(self, rhs: np.ndarray, ground_value: float = 0.0) -> np.ndarray:
        """Solve with the ground node pinned to ``ground_value`` instead of mean-free.

        This mirrors how circuit simulators report node voltages relative to a
        ground reference.
        """
        x = self._solve_vector(rhs)
        return x - x[self._ground] + ground_value

    def quadratic_form_inverse(self, vector: np.ndarray) -> float:
        """Compute ``v^T L^+ v`` (e.g. an effective resistance when ``v = e_s - e_t``)."""
        x = self.solve(vector)
        v = np.asarray(vector, dtype=np.float64).ravel()
        return float((v - v.mean()) @ x)

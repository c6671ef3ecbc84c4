"""Reference computations made apart from the program, with numpy and scipy.

Everything the benchmark checks the program against is computed here from
the raw edge arrays of a graph: the Laplacian is assembled with scipy, not
with ``WeightedGraph.laplacian``, and solves use scipy's SuperLU, not
``repro.linalg``.  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

#: Node pairs sampled for ``resistance_corr``.  Pairs among a few dozen
#: anchor nodes would be cheaper, but they share endpoints: on the 10k
#: circuit grid 72 anchors gave 0.39-0.58 by anchor draw, where 2,000
#: independent pairs give 0.58-0.66.  The sample is one fixed draw, so
#: that the metric moves only when the learned graph does.
CORR_PAIRS = 2000
PAIR_SEED = 2021
#: Right-hand sides per SuperLU solve.
SOLVE_BLOCK = 500
#: Smallest nonzero Laplacian eigenvalues compared by ``spectral_err``.
N_EIGENVALUES = 10


def edge_arrays(graph) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, rows, cols, weights)`` of a graph-like object, as plain arrays."""
    return (
        int(graph.n_nodes),
        np.asarray(graph.rows, dtype=np.int64),
        np.asarray(graph.cols, dtype=np.int64),
        np.asarray(graph.weights, dtype=np.float64),
    )


def laplacian(graph) -> sp.csc_matrix:
    """``D - W`` assembled from the edge arrays."""
    n, rows, cols, weights = edge_arrays(graph)
    adjacency = sp.coo_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    ).tocsr()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sp.diags(degrees) - adjacency).tocsc()


def n_components(graph) -> int:
    """Connected components over all ``n`` nodes (isolated nodes count)."""
    n, rows, cols, _ = edge_arrays(graph)
    adjacency = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return int(csgraph.connected_components(adjacency, directed=False)[0])


class PseudoInverse:
    """Applies ``L^+`` of a connected graph: ground node 0, SuperLU, remove the mean."""

    def __init__(self, graph) -> None:
        lap = laplacian(graph)
        self.n = lap.shape[0]
        # The grounded Laplacian is SPD: symmetric ordering, no pivoting.
        self._lu = spla.splu(
            lap[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
        )

    def grounded(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with node 0 grounded (its potential is 0), without removing the mean."""
        rhs = np.asarray(rhs, dtype=np.float64)
        out = np.zeros(rhs.shape)
        out[1:] = self._lu.solve(np.ascontiguousarray(rhs[1:]))
        return out

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """``L^+ rhs`` for zero-sum columns (the mean-free solution)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        rhs = rhs - rhs.mean(axis=0)
        out = self.grounded(rhs)
        return out - out.mean(axis=0)

    def resistances(self, pairs: np.ndarray) -> np.ndarray:
        """Effective resistance of each ``(s, t)`` row: one solve per pair."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        out = np.empty(pairs.shape[0])
        for lo in range(0, pairs.shape[0], SOLVE_BLOCK):
            block = pairs[lo : lo + SOLVE_BLOCK]
            cols = np.arange(block.shape[0])
            rhs = np.zeros((self.n, block.shape[0]))
            rhs[block[:, 0], cols] += 1.0
            rhs[block[:, 1], cols] -= 1.0
            volts = self.grounded(rhs)
            out[lo : lo + SOLVE_BLOCK] = volts[block[:, 0], cols] - volts[block[:, 1], cols]
        return out


def corr_pairs(n_nodes: int) -> np.ndarray:
    """The fixed sample of ``CORR_PAIRS`` uniformly random pairs of distinct nodes."""
    rng = np.random.default_rng(PAIR_SEED)
    first = rng.integers(n_nodes, size=CORR_PAIRS)
    second = (first + rng.integers(1, n_nodes, size=CORR_PAIRS)) % n_nodes
    return np.column_stack([first, second])


def resistance_corr(truth, learned) -> float:
    """Pearson correlation of log effective resistance, learned vs truth, over :func:`corr_pairs`."""
    pairs = corr_pairs(truth.n_nodes)
    truth_r = PseudoInverse(truth).resistances(pairs)
    learned_r = PseudoInverse(learned).resistances(pairs)
    return float(np.corrcoef(np.log(truth_r), np.log(learned_r))[0, 1])


def smallest_eigenvalues(graph, k: int = N_EIGENVALUES) -> np.ndarray:
    """The ``k`` smallest nonzero Laplacian eigenvalues (shift-invert Lanczos)."""
    lap = laplacian(graph)
    vals = spla.eigsh(lap, k=k + 1, sigma=-1e-6, which="LM", return_eigenvectors=False, v0=np.ones(lap.shape[0]))
    return np.sort(vals)[1:]


def spectral_err(truth_eigenvalues: np.ndarray, learned) -> float:
    """Mean relative error of the smallest nonzero eigenvalues, learned vs truth."""
    learned_eigenvalues = smallest_eigenvalues(learned, truth_eigenvalues.size)
    return float(np.mean(np.abs(learned_eigenvalues - truth_eigenvalues) / truth_eigenvalues))


def step5_ratio(graph, voltages: np.ndarray, currents: np.ndarray) -> float:
    """Mean over measurement pairs of ``||L^+ y||^2 / ||x||^2`` (1 after Step 5)."""
    simulated = PseudoInverse(graph).apply(currents)
    return float(np.mean(np.sum(simulated**2, axis=0) / np.sum(voltages**2, axis=0)))


def brute_force_neighbors(embedding: np.ndarray, node: int, k: int) -> np.ndarray:
    """Squared embedding distances of the ``k`` nearest other nodes, ascending."""
    dist = np.sum((embedding - embedding[node]) ** 2, axis=1)
    dist[node] = np.inf
    return np.sort(np.partition(dist, k)[:k])


class ArrayGraph:
    """A graph as the three edge arrays of a stored model artifact."""

    def __init__(self, n_nodes: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> None:
        self.n_nodes, self.rows, self.cols, self.weights = n_nodes, rows, cols, weights


def read_artifact(path) -> tuple[ArrayGraph, np.ndarray]:
    """The graph and embedding stored in a model artifact, read with numpy alone."""
    with np.load(path, allow_pickle=False) as data:
        rows, cols, weights = data["graph_rows"], data["graph_cols"], data["graph_weights"]
        embedding = data["embedding"]
    n_nodes = embedding.shape[0] if embedding.size else int(max(rows.max(), cols.max())) + 1
    return ArrayGraph(n_nodes, rows, cols, weights), embedding

"""Effective-resistance comparison metrics (paper Fig. 7).

Fig. 7 evaluates learned graphs by scatter-plotting the effective resistances
of sampled node pairs computed on the learned graph against those computed on
the original graph; high correlation (points hugging the diagonal) means the
learned ultra-sparse network is electrically equivalent to the original.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.solvers import LaplacianSolver

__all__ = [
    "ResistanceComparison",
    "compare_effective_resistances",
    "effective_resistance_batched",
    "resistance_correlation",
    "sample_node_pairs",
]


@dataclass(frozen=True)
class ResistanceComparison:
    """Paired effective resistances of an original and a learned graph."""

    pairs: np.ndarray
    original: np.ndarray
    learned: np.ndarray

    @property
    def correlation(self) -> float:
        """Pearson correlation between the two resistance series."""
        if self.original.size < 2:
            return 1.0
        if np.std(self.original) == 0 or np.std(self.learned) == 0:
            return 1.0 if np.allclose(self.original, self.learned) else 0.0
        return float(np.corrcoef(self.original, self.learned)[0, 1])

    @property
    def mean_relative_error(self) -> float:
        """Mean relative deviation of the learned resistances."""
        mask = self.original > 0
        if not np.any(mask):
            return 0.0
        return float(
            np.mean(np.abs(self.learned[mask] - self.original[mask]) / self.original[mask])
        )


def sample_node_pairs(
    n_nodes: int,
    n_pairs: int,
    *,
    seed: int | None = 0,
) -> np.ndarray:
    """Uniformly random distinct node pairs (with replacement across pairs)."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    first = rng.integers(0, n_nodes, size=n_pairs)
    second = rng.integers(0, n_nodes - 1, size=n_pairs)
    second = np.where(second >= first, second + 1, second)
    return np.column_stack([first, second])


def effective_resistance_batched(
    graph_or_laplacian: WeightedGraph | np.ndarray,
    pairs: np.ndarray | list[tuple[int, int]],
    *,
    solver: LaplacianSolver | None = None,
    block_size: int = 256,
) -> np.ndarray:
    """Effective resistances of many node pairs via *grouped* RHS solves.

    :func:`repro.linalg.effective_resistance` performs one Laplacian solve
    per pair.  This fast path instead stacks up to ``block_size`` indicator
    right-hand sides ``e_s - e_t`` into a matrix and solves each block with a
    single multi-RHS call, so the factorisation is traversed once per block
    instead of once per pair.  Results are identical (the solver
    back-substitutes each column independently); only the Python- and
    traversal-overhead is amortised.  Both the serve layer
    (:meth:`repro.serve.GraphSession.effective_resistance`) and the Fig. 7
    correlation metric (:func:`compare_effective_resistances`) run on this
    path.

    Parameters
    ----------
    graph_or_laplacian:
        The resistor network (must be connected), or its Laplacian.
    pairs:
        ``(m, 2)`` array of node pairs; ``s == t`` rows yield 0.
    solver:
        Optional pre-built :class:`~repro.linalg.LaplacianSolver` to reuse
        its factorisation across calls (what a serving session does).
    block_size:
        Maximum number of right-hand sides per grouped solve.  Each block
        is further capped at ``max(1, 2**26 // (8 N))`` columns, so its
        dense ``(N, block)`` scratch matrix stays within 64 MiB: the cap
        leaves graphs up to 32k nodes at the default 256 columns and takes
        a 1M-node graph to 8.

    Examples
    --------
    >>> from repro.graphs.graph import WeightedGraph
    >>> from repro.metrics import effective_resistance_batched
    >>> path = WeightedGraph(3, [0, 1], [1, 2])  # two unit resistors
    >>> effective_resistance_batched(path, [(0, 2), (0, 1), (1, 1)]).round(6).tolist()
    [2.0, 1.0, 0.0]
    """
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    if solver is None:
        solver = LaplacianSolver(graph_or_laplacian)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = solver.n_nodes
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)][0]
        raise ValueError(f"pair ({bad[0]}, {bad[1]}) out of range for {n} nodes")
    out = np.zeros(pairs.shape[0])
    distinct = np.where(pairs[:, 0] != pairs[:, 1])[0]
    block_size = min(block_size, max(1, (1 << 26) // (8 * n)))
    for start in range(0, distinct.size, block_size):
        chunk = distinct[start:start + block_size]
        s, t = pairs[chunk, 0], pairs[chunk, 1]
        rhs = np.zeros((n, chunk.size))
        cols = np.arange(chunk.size)
        rhs[s, cols] = 1.0
        rhs[t, cols] -= 1.0  # -= keeps s == t rows at 0 even if they slip in
        x = solver.solve(rhs)
        out[chunk] = x[s, cols] - x[t, cols]
    return out


def compare_effective_resistances(
    original: WeightedGraph,
    learned: WeightedGraph,
    *,
    n_pairs: int = 200,
    pairs: np.ndarray | None = None,
    seed: int | None = 0,
) -> ResistanceComparison:
    """Effective resistances of the same node pairs on both graphs.

    Both graphs must share the node numbering (which SGL guarantees, since it
    learns a graph over the measured nodes).
    """
    if original.n_nodes != learned.n_nodes:
        raise ValueError("graphs must share the same node set")
    if pairs is None:
        pairs = sample_node_pairs(original.n_nodes, n_pairs, seed=seed)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    original_r = effective_resistance_batched(original, pairs)
    learned_r = effective_resistance_batched(learned, pairs)
    return ResistanceComparison(pairs=pairs, original=original_r, learned=learned_r)


def resistance_correlation(
    original: WeightedGraph,
    learned: WeightedGraph,
    *,
    n_pairs: int = 200,
    seed: int | None = 0,
) -> float:
    """Shortcut for ``compare_effective_resistances(...).correlation``."""
    return compare_effective_resistances(
        original, learned, n_pairs=n_pairs, seed=seed
    ).correlation

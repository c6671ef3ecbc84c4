"""Balanced vertex partitions derived from heavy-edge-matching coarsening.

Domain decomposition needs vertex partitions that are *balanced* (shards do
comparable work), *local* (few cut edges, so stitching has little to repair)
and *cheap to compute at million-node scale*.  Rather than pulling in a
graph-partitioning dependency, :class:`GraphPartitioner` builds on the
heavy-edge-matching coarsening of :mod:`repro.linalg.coarsening`:

1. **Coarsen** the graph by repeated heavy-edge matching until at most
   ``oversample * num_parts`` supernodes remain.  Matching merges strongly
   coupled neighbours, so supernodes are contiguous, well-connected blobs —
   exactly the granules a locality-preserving partition wants to move
   around.  The oversampling leaves the packer enough granules to balance.
2. **Pack** supernodes into ``num_parts`` bins, largest first: each
   supernode joins the bin holding its most strongly connected
   already-placed neighbours (greedy modularity-style affinity) unless that
   would overflow the balance capacity, in which case it falls to the
   lightest bin.
3. **Project** bin ids back through the composed aggregate maps to fine
   nodes, then repair balance at node granularity: bounded donor-to-
   recipient moves (boundary nodes first) until every part is within the
   configured tolerance and above the minimum size.

The result is a :class:`GraphPartition`: the assignment vector, the cut
edges (each canonical graph edge crossing parts appears exactly once) and
per-part halo vertices (the out-of-part endpoints of a part's cut edges —
what a distributed solver would ghost-exchange).

Examples
--------
>>> from repro.graphs.generators import grid_2d
>>> from repro.partition import GraphPartitioner
>>> part = GraphPartitioner(4, seed=0).partition(grid_2d(16, 16))
>>> part.n_parts, int(part.part_sizes.sum())
(4, 256)
>>> bool(part.balance_factor <= 1.2)
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.coarsening import coarsen_graph

__all__ = ["GraphPartition", "GraphPartitioner"]


@dataclass(frozen=True)
class GraphPartition:
    """A balanced vertex partition of one graph.

    Attributes
    ----------
    n_nodes:
        Number of nodes of the partitioned graph.
    n_parts:
        Number of parts (``assignment`` values are ``0 .. n_parts - 1``).
    assignment:
        Length-``n_nodes`` int64 array mapping each node to its part.
    cut_rows, cut_cols, cut_weights:
        The cut edges — every canonical edge of the partitioned graph whose
        endpoints land in different parts, in canonical order.  Each such
        edge appears here exactly once (and in no part's interior).
    """

    n_nodes: int
    n_parts: int
    assignment: np.ndarray
    cut_rows: np.ndarray
    cut_cols: np.ndarray
    cut_weights: np.ndarray

    # ------------------------------------------------------------------
    @property
    def part_sizes(self) -> np.ndarray:
        """Node count per part (length ``n_parts``)."""
        return np.bincount(self.assignment, minlength=self.n_parts)

    @property
    def n_cut_edges(self) -> int:
        """Number of edges crossing parts."""
        return int(self.cut_rows.size)

    @property
    def cut_edges(self) -> np.ndarray:
        """The cut edges as an ``(m, 2)`` array of global node ids."""
        return np.column_stack([self.cut_rows, self.cut_cols])

    @property
    def balance_factor(self) -> float:
        """``max part size / ceil(n_nodes / n_parts)`` (1.0 = perfect)."""
        ideal = -(-self.n_nodes // self.n_parts)
        return float(self.part_sizes.max()) / float(max(ideal, 1))

    # ------------------------------------------------------------------
    def part_nodes(self, part: int) -> np.ndarray:
        """Global node ids of ``part``, ascending (the shard-local order)."""
        self._check_part(part)
        return np.where(self.assignment == part)[0]

    def halo_nodes(self, part: int) -> np.ndarray:
        """Out-of-part endpoints of ``part``'s cut edges, ascending.

        These are the ghost vertices a distributed solver owning ``part``
        would need values for.  Halos are symmetric by construction: ``u``
        is in ``halo(part(v))`` iff ``v`` is in ``halo(part(u))`` for every
        cut edge ``(u, v)``.
        """
        self._check_part(part)
        row_part = self.assignment[self.cut_rows]
        col_part = self.assignment[self.cut_cols]
        external = np.concatenate(
            [self.cut_cols[row_part == part], self.cut_rows[col_part == part]]
        )
        return np.unique(external)

    def _check_part(self, part: int) -> None:
        if not 0 <= part < self.n_parts:
            raise ValueError(f"part must be in [0, {self.n_parts}), got {part}")

    def as_dict(self) -> dict:
        """JSON-ready summary (sizes and cut statistics, not the arrays)."""
        return {
            "n_nodes": self.n_nodes,
            "n_parts": self.n_parts,
            "part_sizes": [int(s) for s in self.part_sizes],
            "n_cut_edges": self.n_cut_edges,
            "balance_factor": self.balance_factor,
        }


class GraphPartitioner:
    """Derive balanced vertex partitions from coarsening matchings.

    Parameters
    ----------
    num_parts:
        Number of parts to produce (each part is guaranteed non-empty).
    balance_tolerance:
        Upper bound on :attr:`GraphPartition.balance_factor`; parts never
        exceed ``balance_tolerance * ceil(N / num_parts)`` nodes.
    oversample:
        Coarsening stops once at most ``oversample * num_parts`` supernodes
        remain; larger values give the packer more granularity (better
        balance) at the cost of locality.
    min_part_size:
        Minimum nodes per part (callers fitting per-shard SGL problems need
        at least 3).
    seed:
        Seed for the per-level matching order (level ``i`` uses
        ``seed + i``); the whole pipeline is deterministic given the seed.
    max_levels:
        Hard cap on coarsening levels.

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.partition import GraphPartitioner
    >>> partitioner = GraphPartitioner(3, seed=1)
    >>> part = partitioner.partition(grid_2d(10, 10))
    >>> sorted(set(part.assignment)) == [0, 1, 2]
    True
    >>> part.n_cut_edges == partitioner.partition(grid_2d(10, 10)).n_cut_edges
    True
    """

    def __init__(
        self,
        num_parts: int,
        *,
        balance_tolerance: float = 1.2,
        oversample: int = 8,
        min_part_size: int = 1,
        seed: int = 0,
        max_levels: int = 40,
    ) -> None:
        if num_parts < 1:
            raise ValueError("num_parts must be at least 1")
        if balance_tolerance < 1.0:
            raise ValueError("balance_tolerance must be at least 1.0")
        if oversample < 2:
            raise ValueError("oversample must be at least 2")
        if min_part_size < 1:
            raise ValueError("min_part_size must be at least 1")
        if max_levels < 1:
            raise ValueError("max_levels must be at least 1")
        self.num_parts = int(num_parts)
        self.balance_tolerance = float(balance_tolerance)
        self.oversample = int(oversample)
        self.min_part_size = int(min_part_size)
        self.seed = int(seed)
        self.max_levels = int(max_levels)

    # ------------------------------------------------------------------
    def partition(self, graph: WeightedGraph) -> GraphPartition:
        """Partition ``graph`` into ``num_parts`` balanced parts."""
        n_nodes = graph.n_nodes
        if n_nodes < self.num_parts * self.min_part_size:
            raise ValueError(
                f"cannot split {n_nodes} nodes into {self.num_parts} parts "
                f"of at least {self.min_part_size} nodes each"
            )
        if self.num_parts == 1:
            empty = np.empty(0, dtype=np.int64)
            return GraphPartition(
                n_nodes=n_nodes,
                n_parts=1,
                assignment=np.zeros(n_nodes, dtype=np.int64),
                cut_rows=empty,
                cut_cols=empty.copy(),
                cut_weights=np.empty(0, dtype=np.float64),
            )

        fine_to_super, coarse = self._coarsen(graph)
        assignment = self._pack(fine_to_super, coarse)[fine_to_super]
        assignment = self._rebalance(graph, assignment)

        cross = assignment[graph.rows] != assignment[graph.cols]
        return GraphPartition(
            n_nodes=n_nodes,
            n_parts=self.num_parts,
            assignment=assignment,
            cut_rows=graph.rows[cross].copy(),
            cut_cols=graph.cols[cross].copy(),
            cut_weights=graph.weights[cross].copy(),
        )

    # ------------------------------------------------------------------
    def _coarsen(self, graph: WeightedGraph) -> tuple[np.ndarray, WeightedGraph]:
        """Coarsen until ``<= oversample * num_parts`` supernodes remain.

        Returns the composed fine-to-supernode map and the coarse graph.
        """
        target = self.oversample * self.num_parts
        fine_to_super = np.arange(graph.n_nodes, dtype=np.int64)
        current = graph
        for level_index in range(self.max_levels):
            if current.n_nodes <= target:
                break
            level = coarsen_graph(current, seed=self.seed + level_index)
            if level.graph.n_nodes >= int(0.95 * current.n_nodes):
                break  # matching saturated; more levels would not shrink
            fine_to_super = level.aggregates[fine_to_super]
            current = level.graph
        return fine_to_super, current

    def _pack(self, fine_to_super: np.ndarray, coarse: WeightedGraph) -> np.ndarray:
        """Greedy affinity packing of supernodes into ``num_parts`` bins."""
        n_parts = self.num_parts
        n_super = coarse.n_nodes
        sizes = np.bincount(fine_to_super, minlength=n_super).astype(np.int64)
        n_fine = int(sizes.sum())
        ideal = -(-n_fine // n_parts)
        capacity = int(self.balance_tolerance * ideal)

        adjacency = coarse.adjacency()
        bin_of = np.full(n_super, -1, dtype=np.int64)
        loads = np.zeros(n_parts, dtype=np.int64)
        # Descending size, ties by ascending supernode id: the big blobs
        # anchor the bins, the small ones fill the balance gaps.
        order = np.argsort(-sizes, kind="stable")
        n_filled = 0
        for node in order:
            size = sizes[node]
            if n_filled < n_parts:
                # Seed every bin before honouring affinity so no part can
                # end up empty.
                target = int(np.argmin(loads))
                n_filled += 1
            else:
                start, end = adjacency.indptr[node], adjacency.indptr[node + 1]
                neighbor_bins = bin_of[adjacency.indices[start:end]]
                placed = neighbor_bins >= 0
                target = -1
                if placed.any():
                    affinity = np.bincount(
                        neighbor_bins[placed],
                        weights=adjacency.data[start:end][placed],
                        minlength=n_parts,
                    )
                    affinity[loads + size > capacity] = 0.0
                    if affinity.max() > 0.0:
                        target = int(np.argmax(affinity))
                if target < 0:
                    target = int(np.argmin(loads))
            bin_of[node] = target
            loads[target] += size
        return bin_of

    def _rebalance(self, graph: WeightedGraph, assignment: np.ndarray) -> np.ndarray:
        """Node-granular repair: enforce the capacity and minimum-size bounds.

        Bounded donor-to-recipient moves — each round either fixes the
        recipient (to the ideal size / the minimum) or brings the donor to
        the ideal, so the loop terminates after O(num_parts) rounds.  Moved
        nodes are taken from the donor's current boundary first (nodes with
        a cut edge), lowest ids first, keeping the repair deterministic.
        """
        n_parts = self.num_parts
        assignment = assignment.copy()
        sizes = np.bincount(assignment, minlength=n_parts).astype(np.int64)
        ideal = -(-graph.n_nodes // n_parts)
        capacity = int(self.balance_tolerance * ideal)

        for _ in range(4 * n_parts + 16):
            if sizes.max() <= capacity and sizes.min() >= self.min_part_size:
                break
            donor = int(np.argmax(sizes))
            recipient = int(np.argmin(sizes))
            if sizes.max() > capacity:
                n_move = min(sizes[donor] - ideal, max(ideal - sizes[recipient], 1))
            else:
                # Some part is above the minimum whenever another is below
                # it (sum(sizes) = N >= num_parts * min_part_size), so the
                # clamp never drops the donor under the minimum and each
                # round strictly shrinks the recipient's deficit.
                n_move = min(
                    self.min_part_size - sizes[recipient],
                    sizes[donor] - self.min_part_size,
                )
            n_move = int(max(n_move, 1))
            donor_nodes = np.where(assignment == donor)[0]
            on_boundary = np.zeros(graph.n_nodes, dtype=bool)
            cross = assignment[graph.rows] != assignment[graph.cols]
            on_boundary[graph.rows[cross]] = True
            on_boundary[graph.cols[cross]] = True
            movable = np.concatenate(
                [donor_nodes[on_boundary[donor_nodes]], donor_nodes[~on_boundary[donor_nodes]]]
            )
            moved = movable[:n_move]
            assignment[moved] = recipient
            sizes[donor] -= moved.size
            sizes[recipient] += moved.size
        return assignment

"""k-nearest-neighbour graph construction and spanning-tree extraction.

Step 1 of the SGL algorithm builds a connected kNN graph from the voltage
measurement vectors and extracts its maximum spanning tree as the initial
graph.  This subpackage provides:

* :mod:`repro.knn.backends` -- pluggable search backends behind
  :func:`~repro.knn.backends.build_index`: exact KD-tree, blocked-BLAS exact
  brute force, and a JL-projected mode with exact re-ranking, plus the
  ``auto`` selection policy;
* :mod:`repro.knn.knn_graph` -- kNN graphs over any backend with the paper's
  inverse-squared-distance edge weights and connectivity repair;
* :mod:`repro.knn.mst` -- maximum/minimum spanning trees.
"""

from repro.knn.backends import (
    BACKENDS,
    BruteForceIndex,
    JLIndex,
    KDTreeIndex,
    build_index,
    effective_rank,
    select_backend,
    sketch_dimension,
)
from repro.knn.knn_graph import knn_graph, knn_edges
from repro.knn.mst import maximum_spanning_tree, minimum_spanning_tree

__all__ = [
    "BACKENDS",
    "BruteForceIndex",
    "JLIndex",
    "KDTreeIndex",
    "build_index",
    "effective_rank",
    "select_backend",
    "sketch_dimension",
    "knn_graph",
    "knn_edges",
    "maximum_spanning_tree",
    "minimum_spanning_tree",
]

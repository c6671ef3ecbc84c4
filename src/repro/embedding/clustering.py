"""Spectral clustering of graph nodes (Laplacian eigenmaps + k-means).

Used by the paper purely for visualisation (nodes in the same spectral cluster
share a colour in the graph drawings), but also a convenient downstream task
for checking that SGL-learned graphs preserve community structure: clustering
the learned graph should give nearly the same partition as clustering the
original graph.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.embedding.kmeans import kmeans
from repro.linalg.eigen import laplacian_eigenpairs

__all__ = ["spectral_clustering", "clustering_agreement"]


def spectral_clustering(
    graph: WeightedGraph,
    n_clusters: int,
    *,
    n_eigenvectors: int | None = None,
    normalize_rows: bool = True,
    seed: int | None = 0,
) -> np.ndarray:
    """Partition graph nodes into ``n_clusters`` spectral clusters.

    Parameters
    ----------
    graph:
        Connected graph to cluster.
    n_clusters:
        Number of clusters.
    n_eigenvectors:
        Number of nontrivial eigenvectors used as features (defaults to
        ``n_clusters``).
    normalize_rows:
        Normalise each node's spectral feature vector to unit length before
        k-means (the standard Ng-Jordan-Weiss step; improves robustness on
        graphs with unbalanced clusters).

    Returns
    -------
    numpy.ndarray
        Length-``N`` integer cluster labels.

    Examples
    --------
    Two triangles joined by a single weak edge split cleanly in two:

    >>> from repro.graphs.graph import WeightedGraph
    >>> from repro.embedding import spectral_clustering
    >>> barbell = WeightedGraph(
    ...     6,
    ...     [0, 0, 1, 3, 3, 4, 2],
    ...     [1, 2, 2, 4, 5, 5, 3],
    ...     [1, 1, 1, 1, 1, 1, 0.05],
    ... )
    >>> labels = spectral_clustering(barbell, 2, seed=0)
    >>> bool(labels[0] == labels[1] == labels[2] != labels[3])
    True
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if n_clusters == 1:
        return np.zeros(graph.n_nodes, dtype=np.int64)
    k = n_eigenvectors if n_eigenvectors is not None else n_clusters
    k = min(k, graph.n_nodes - 1)
    _, vectors = laplacian_eigenpairs(graph, k, seed=seed)
    features = vectors
    if normalize_rows:
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        features = features / norms
    return kmeans(features, n_clusters, seed=seed).labels


def clustering_agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Best-match clustering agreement in [0, 1] between two labelings.

    Uses a greedy label matching (sufficient for the small cluster counts used
    in the experiments) and returns the fraction of nodes whose clusters agree
    under that matching.
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape:
        raise ValueError("labelings must have the same length")
    clusters_a = np.unique(labels_a)
    clusters_b = list(np.unique(labels_b))
    matched = 0
    used: set[int] = set()
    for ca in clusters_a:
        best_overlap, best_cb = 0, None
        mask_a = labels_a == ca
        for cb in clusters_b:
            if cb in used:
                continue
            overlap = int(np.sum(mask_a & (labels_b == cb)))
            if overlap > best_overlap:
                best_overlap, best_cb = overlap, cb
        if best_cb is not None:
            used.add(best_cb)
            matched += best_overlap
    return matched / labels_a.size

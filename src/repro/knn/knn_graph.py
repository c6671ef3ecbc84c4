"""k-nearest-neighbour graph construction from measurement vectors.

Nodes of the learned graph correspond to rows of the voltage measurement
matrix ``X`` (each node's feature vector is its ``M`` measured voltages).  The
kNN graph connects each node to its ``k`` most similar nodes in Euclidean
distance; following Eqs. (14)-(15) of the paper, the natural edge weight is

    w_st = M / ||x_s - x_t||^2,

so that the maximum spectral-embedding distortion of the optimal graph is one.
Connectivity (required for a well-defined Laplacian pseudo-inverse and MST)
is repaired, if needed, by linking nearest components.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np
from scipy.spatial import cKDTree

from repro.graphs.graph import WeightedGraph
from repro.knn.backends import build_index

__all__ = ["knn_edges", "knn_graph"]

WeightScheme = Literal["sgl", "inverse_distance", "gaussian", "unit"]


def knn_edges(
    features: np.ndarray,
    k: int,
    *,
    index: "object | None" = None,
    backend: str = "auto",
    backend_options: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Directed kNN edge list and distances.

    Parameters
    ----------
    features:
        ``(N, M)`` feature matrix (rows are nodes).
    k:
        Number of neighbours per node (excluding the node itself).
    index:
        Optional pre-built nearest-neighbour index exposing a
        ``query(features, k)`` method (e.g. any :mod:`repro.knn.backends`
        index); overrides ``backend``.
    backend:
        Search backend name passed to :func:`repro.knn.backends.build_index`
        when no ``index`` is given: ``"auto"`` (default), ``"brute"``,
        ``"kdtree"`` or ``"jl"``.
    backend_options:
        Extra keyword arguments for the backend factory (e.g. ``seed``).

    Returns
    -------
    (edges, distances):
        ``edges`` is an ``(N*k, 2)`` array of directed pairs ``(i, neighbour)``
        and ``distances`` the corresponding Euclidean distances.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn import knn_edges
    >>> points = np.random.default_rng(0).standard_normal((50, 3))
    >>> edges, distances = knn_edges(points, k=2)
    >>> edges.shape, distances.shape
    ((100, 2), (100,))
    >>> brute_edges, brute_dists = knn_edges(points, k=2, backend="brute")
    >>> bool((brute_edges == edges).all() and (brute_dists == distances).all())
    True
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D (N, M) array")
    n = features.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < N")

    if index is None:
        index = build_index(features, backend, **(backend_options or {}))
    distances, neighbors = index.query(features, k=k + 1)
    distances = np.asarray(distances, dtype=np.float64)
    neighbors = np.asarray(neighbors, dtype=np.int64)

    sources = np.repeat(np.arange(n), neighbors.shape[1])
    targets = neighbors.ravel()
    dists = distances.ravel()
    mask = sources != targets
    sources = sources[mask]
    targets = targets[mask]
    dists = dists[mask]

    # Keep only k neighbours per source (the self-match removal may leave k+1
    # for nodes that did not match themselves, e.g. duplicated points).
    # ``sources`` stays sorted after masking, so the rank of each entry
    # within its source group is its offset from the group start.
    group_starts = np.searchsorted(sources, np.arange(n))
    rank_in_group = np.arange(sources.size) - group_starts[sources]
    keep = rank_in_group < k
    edges = np.column_stack([sources[keep], targets[keep]])
    return edges, dists[keep]


def _edge_weights(
    distances: np.ndarray,
    n_measurements: int,
    scheme: WeightScheme | Callable[[np.ndarray], np.ndarray],
    *,
    gaussian_bandwidth: float | None = None,
) -> np.ndarray:
    if callable(scheme):
        return np.asarray(scheme(distances), dtype=np.float64)
    # Guard against zero distances (duplicate measurement vectors).
    floor = max(np.max(distances), 1.0) * 1e-12
    safe = np.maximum(distances, floor)
    if scheme == "sgl":
        return n_measurements / safe**2
    if scheme == "inverse_distance":
        return 1.0 / safe
    if scheme == "gaussian":
        bandwidth = gaussian_bandwidth if gaussian_bandwidth is not None else float(np.median(safe))
        return np.exp(-(safe**2) / (2.0 * bandwidth**2))
    if scheme == "unit":
        return np.ones_like(safe)
    raise ValueError(f"unknown weight scheme {scheme!r}")


def _connect_components(
    graph: WeightedGraph,
    features: np.ndarray,
    n_measurements: int,
    scheme: WeightScheme | Callable[[np.ndarray], np.ndarray],
    *,
    search_features: np.ndarray | None = None,
    search_tree: "cKDTree | None" = None,
) -> WeightedGraph:
    """Link disconnected components through their closest node pairs.

    The closest-pair search runs over ``search_features`` when given (the
    JL backend passes its sketch, so repair never rebuilds full-dimension
    KD-trees) and reuses ``search_tree`` (a prebuilt tree over exactly
    those features) when the index exposes one; the repair edge's weight
    is always computed from the exact full-dimension distance.
    """
    if search_features is None:
        search_features = features
    n_components, labels = graph.connected_components()
    if n_components <= 1:
        return graph
    # One global tree serves every repair round; adding a repair edge only
    # merges two component labels, so components are tracked by relabelling
    # instead of rebuilding the graph (and its adjacency) per round.
    labels = labels.copy()
    global_tree = cKDTree(search_features) if search_tree is None else search_tree
    repair_edges: list[tuple[int, int]] = []
    repair_dists: list[float] = []
    while n_components > 1:
        # Connect the smallest component to the closest node outside it.
        counts = np.bincount(labels)
        counts[counts == 0] = np.iinfo(counts.dtype).max
        smallest = int(np.argmin(counts))
        inside = np.where(labels == smallest)[0]
        # Nearby outside nodes usually appear among the first few global
        # neighbours.  For an inside node whose beam contains an outside
        # node, the first such hit IS its true nearest outside neighbour;
        # for a node whose beam is entirely internal, the beam radius lower-
        # bounds its outside distance.  The beam answer is therefore
        # provably the closest pair unless some all-internal beam could
        # still hide a closer pair — only then pay for the exact search.
        beam = min(16, search_features.shape[0])
        dists, idx = global_tree.query(search_features[inside], k=beam)
        if beam == 1:
            dists = dists[:, None]
            idx = idx[:, None]
        outside_mask = labels[idx] != smallest
        found = outside_mask.any(axis=1)
        nearest_outside = np.where(outside_mask, dists, np.inf).min(axis=1)
        best_found = float(nearest_outside.min())
        hidden_bound = float(dists[~found, -1].min()) if (~found).any() else np.inf
        if best_found <= hidden_bound:
            best = int(np.argmin(nearest_outside))
            col = int(np.argmax(np.where(outside_mask[best], -dists[best], -np.inf)))
            s = int(inside[best])
            t = int(idx[best, col])
        else:
            # Fallback: exact closest pair against the explicit outside set.
            outside = np.where(labels != smallest)[0]
            tree = cKDTree(search_features[outside])
            dists1, idx1 = tree.query(search_features[inside], k=1)
            best = int(np.argmin(dists1))
            s = int(inside[best])
            t = int(outside[int(idx1[best])])
        repair_edges.append((s, t))
        repair_dists.append(float(np.linalg.norm(features[s] - features[t])))
        labels[labels == labels[t]] = smallest
        n_components -= 1
    weights = _edge_weights(np.asarray(repair_dists), n_measurements, scheme)
    return graph.add_edges(np.asarray(repair_edges, dtype=np.int64), weights)


def knn_graph(
    features: np.ndarray,
    k: int = 5,
    *,
    weight_scheme: WeightScheme | Callable[[np.ndarray], np.ndarray] = "sgl",
    ensure_connected: bool = True,
    gaussian_bandwidth: float | None = None,
    index: "object | None" = None,
    backend: str = "auto",
    backend_options: dict | None = None,
) -> WeightedGraph:
    """Undirected kNN graph over the rows of ``features``.

    Parameters
    ----------
    features:
        ``(N, M)`` matrix whose rows are the per-node measurement vectors
        (``X`` in the paper).
    k:
        Number of neighbours; the paper uses ``k = 5`` throughout.
    weight_scheme:
        ``"sgl"`` (default) uses the paper's ``M / distance^2`` conductances;
        ``"inverse_distance"``, ``"gaussian"`` and ``"unit"`` are provided for
        baselines; a callable mapping distances to weights is also accepted.
    ensure_connected:
        Repair connectivity by linking nearest components (the paper requires
        a connected initial graph).
    index:
        Optional pre-built nearest-neighbour index (see :func:`knn_edges`).
    backend, backend_options:
        Search backend selection when no ``index`` is given (see
        :func:`repro.knn.backends.build_index`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn import knn_graph
    >>> points = np.random.default_rng(0).standard_normal((60, 20))
    >>> graph = knn_graph(points, k=4, backend="brute")
    >>> graph.n_nodes, graph.is_connected()
    (60, True)
    """
    features = np.asarray(features, dtype=np.float64)
    if index is None and features.ndim == 2 and features.shape[0] >= 2:
        index = build_index(features, backend, **(backend_options or {}))
    edges, dists = knn_edges(features, k, index=index)
    n = features.shape[0]
    n_measurements = features.shape[1]
    weights = _edge_weights(
        dists, n_measurements, weight_scheme, gaussian_bandwidth=gaussian_bandwidth
    )
    # Mutual pairs appear as both (i -> j) and (j -> i); keep one directed
    # copy per undirected edge.  The unique pass leaves canonical (lo < hi)
    # endpoints sorted by packed key, which is exactly WeightedGraph's
    # canonical form, so the trusted constructor can skip re-sorting.
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = lo * np.int64(n) + hi
    unique_keys, first_idx = np.unique(keys, return_index=True)
    unique_weights = np.ascontiguousarray(weights[first_idx], dtype=np.float64)
    # The trusted constructor skips WeightedGraph's validation; keep its
    # positivity invariant (a callable weight scheme may return zeros).
    if unique_weights.size and not np.all(unique_weights > 0):
        raise ValueError("edge weights must be strictly positive")
    graph = WeightedGraph._from_canonical(
        n,
        lo[first_idx],
        hi[first_idx],
        unique_weights,
    )
    if ensure_connected and not graph.is_connected():
        graph = _connect_components(
            graph,
            features,
            n_measurements,
            weight_scheme,
            search_features=getattr(index, "search_features", None),
            search_tree=getattr(index, "kdtree", None),
        )
    return graph

"""Spectral graph drawing (paper Sec. III-A visualisation, Koren [6]).

The paper draws every graph by placing node ``i`` at coordinates
``(u_2[i], u_3[i])`` -- the entries of the first two nontrivial Laplacian
eigenvectors -- and colours nodes by spectral cluster.  :func:`spectral_layout`
reproduces those coordinates so the learned and original graphs can be
compared visually (or programmatically via layout correlation in tests).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import laplacian_eigenpairs

__all__ = ["spectral_layout"]


def spectral_layout(
    graph: WeightedGraph,
    *,
    dimensions: int = 2,
    seed: int | None = 0,
) -> np.ndarray:
    """Node coordinates from the first nontrivial Laplacian eigenvectors.

    Parameters
    ----------
    graph:
        Connected graph to draw.
    dimensions:
        Number of coordinates per node; 2 (``u_2``, ``u_3``) matches the
        paper's figures.

    Returns
    -------
    numpy.ndarray
        ``(N, dimensions)`` array of node coordinates.

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.embedding import spectral_layout
    >>> spectral_layout(grid_2d(5, 5)).shape
    (25, 2)
    """
    if dimensions < 1:
        raise ValueError("dimensions must be at least 1")
    k = min(dimensions, graph.n_nodes - 1)
    _, vectors = laplacian_eigenpairs(graph, k, seed=seed)
    coords = vectors[:, :dimensions]
    if coords.shape[1] < dimensions:
        pad = np.zeros((graph.n_nodes, dimensions - coords.shape[1]))
        coords = np.hstack([coords, pad])
    return coords

"""Spectral embedding of graph nodes (paper Eq. 12).

The embedding matrix used by SGL is

    U_r = [ u_2 / sqrt(lambda_2 + 1/sigma^2), ..., u_r / sqrt(lambda_r + 1/sigma^2) ],

whose rows place each node in an (r-1)-dimensional space where squared
Euclidean distances approximate effective resistances (exactly so when
``sigma^2 -> inf`` and ``r -> N``).  :class:`SpectralEmbedding` wraps the
eigenpairs, the scaled subspace matrix and the node-pair distance queries the
sensitivity computation needs.

:func:`spectral_embedding_matrix` is the *stateless* entry point: every call
solves the eigenproblem from scratch.  The SGL densification loop, which
re-embeds an only-slightly-changed graph every iteration, uses the stateful
warm-started :class:`~repro.embedding.engine.EmbeddingEngine` instead and
only falls back to this function for cold solves.
:class:`StatelessEmbeddingEngine` puts this function behind the engine
interface (``refresh(graph, added_edges, *, timings)``) that the loop
drives, for the sharded stitch's correction sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import laplacian_eigenpairs

__all__ = [
    "SpectralEmbedding",
    "StatelessEmbeddingEngine",
    "embedding_from_eigenpairs",
    "spectral_embedding_matrix",
]


@dataclass(frozen=True)
class SpectralEmbedding:
    """Scaled spectral embedding of a graph.

    Attributes
    ----------
    eigenvalues:
        The nontrivial eigenvalues ``lambda_2 <= ... <= lambda_r`` used.
    eigenvectors:
        The matching unit eigenvectors as columns, shape ``(N, r-1)``.
    coordinates:
        The rows of ``U_r`` (Eq. 12): eigenvectors scaled by
        ``1/sqrt(lambda_i + 1/sigma^2)``, shape ``(N, r-1)``.
    sigma_sq:
        The prior variance used for the scaling (``inf`` by default).

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.embedding import spectral_embedding_matrix
    >>> emb = spectral_embedding_matrix(grid_2d(6, 6), r=4)
    >>> emb.n_nodes, emb.dimension
    (36, 3)
    >>> int(emb.pair_distances_squared([(0, 35)]).argmax())
    0
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coordinates: np.ndarray
    sigma_sq: float

    @property
    def n_nodes(self) -> int:
        """Number of embedded nodes."""
        return self.coordinates.shape[0]

    @property
    def dimension(self) -> int:
        """Embedding dimension ``r - 1``."""
        return self.coordinates.shape[1]

    def pair_distances_squared(self, pairs: np.ndarray) -> np.ndarray:
        """Squared embedding distances ``z_emb = ||U_r^T (e_s - e_t)||^2`` (Eq. 13)."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        diffs = self.coordinates[pairs[:, 0]] - self.coordinates[pairs[:, 1]]
        return np.einsum("ij,ij->i", diffs, diffs)


def embedding_from_eigenpairs(
    values: np.ndarray,
    vectors: np.ndarray,
    sigma_sq: float = np.inf,
) -> SpectralEmbedding:
    """Wrap precomputed nontrivial eigenpairs into a :class:`SpectralEmbedding`.

    Applies the Eq. (12) scaling ``u_i / sqrt(lambda_i + 1/sigma^2)``.  This
    is the shared final step of the stateless path
    (:func:`spectral_embedding_matrix`) and the warm-started incremental
    engine (:class:`~repro.embedding.engine.EmbeddingEngine`), which obtain
    the eigenpairs differently but scale them identically.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.embedding.spectral import embedding_from_eigenpairs
    >>> values = np.array([1.0, 4.0])
    >>> vectors = np.eye(3)[:, :2]
    >>> emb = embedding_from_eigenpairs(values, vectors)
    >>> emb.coordinates[0, 0], emb.coordinates[1, 1]  # 1/sqrt(1), 1/sqrt(4)
    (np.float64(1.0), np.float64(0.5))
    """
    values = np.asarray(values, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    shift = 0.0 if not np.isfinite(sigma_sq) else 1.0 / sigma_sq
    denom = np.sqrt(np.maximum(values + shift, 1e-300))
    coordinates = vectors / denom[None, :]
    return SpectralEmbedding(
        eigenvalues=values,
        eigenvectors=vectors,
        coordinates=coordinates,
        sigma_sq=float(sigma_sq) if np.isfinite(sigma_sq) else np.inf,
    )


def spectral_embedding_matrix(
    graph: WeightedGraph,
    r: int = 5,
    *,
    sigma_sq: float = np.inf,
    seed: int | None = 0,
) -> SpectralEmbedding:
    """Compute the spectral embedding ``U_r`` of Eq. (12).

    Parameters
    ----------
    graph:
        Connected graph to embed.
    r:
        Number of eigenvectors as in the paper: the embedding uses the
        ``r - 1`` nontrivial eigenvectors ``u_2 ... u_r`` (the paper sets
        ``r = 5``).
    sigma_sq:
        Prior feature variance; ``inf`` (default) scales by ``1/sqrt(lambda)``
        so squared distances converge to effective resistances.
    seed:
        Seed of the Lanczos start vector, forwarded to
        :func:`repro.linalg.laplacian_eigenpairs` (whose ``"auto"`` policy
        solves dense up to 600 nodes).

    Examples
    --------
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.embedding.spectral import spectral_embedding_matrix
    >>> emb = spectral_embedding_matrix(grid_2d(5, 5), r=3)
    >>> emb.n_nodes, emb.dimension
    (25, 2)
    """
    if r < 2:
        raise ValueError("r must be at least 2 (at least one nontrivial eigenvector)")
    k = min(r - 1, graph.n_nodes - 1)
    values, vectors = laplacian_eigenpairs(graph, k, drop_trivial=True, seed=seed)
    return embedding_from_eigenpairs(values, vectors, sigma_sq)


class StatelessEmbeddingEngine:
    """Step-2 engine that embeds cold on every refresh and keeps no state.

    The parameters are :func:`spectral_embedding_matrix`'s.  The class gives
    the stateless path the stateful engine's ``refresh`` interface, so the
    densification loop drives both alike; ``stats`` is ``None``, as there is
    nothing to count.

    >>> from repro.graphs.generators import grid_2d
    >>> StatelessEmbeddingEngine(r=3).refresh(grid_2d(5, 5)).dimension
    2
    """

    stats = None

    def __init__(self, r: int = 5, *, sigma_sq: float = np.inf, seed: int | None = 0) -> None:
        self.r = int(r)
        self.sigma_sq = sigma_sq
        self.seed = seed

    def refresh(self, graph: WeightedGraph, added_edges=None, *, timings=None) -> SpectralEmbedding:
        """Embed ``graph`` from scratch (``added_edges`` is ignored).

        With ``timings``, the solve is recorded as one ``embedding`` stage.
        """
        if timings is None:
            return spectral_embedding_matrix(graph, self.r, sigma_sq=self.sigma_sq, seed=self.seed)
        with timings.stage("embedding"):
            return self.refresh(graph)

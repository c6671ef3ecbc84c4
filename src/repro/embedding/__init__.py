"""Spectral graph embedding, drawing and clustering.

Step 2 of SGL embeds graph nodes with the first ``r - 1`` nontrivial Laplacian
eigenvectors scaled by ``1 / sqrt(lambda_i + 1/sigma^2)`` (Eq. 12).  Two entry
points compute that embedding:

* :func:`spectral_embedding_matrix` -- stateless, solves the eigenproblem
  from scratch on every call (:class:`StatelessEmbeddingEngine` wraps it in
  the engine's ``refresh`` interface for the sharded stitch);
* :class:`EmbeddingEngine` -- stateful and warm-started, reusing the previous
  call's eigenvectors to refresh the embedding of an incrementally densified
  graph in a few iterations (the SGL learner's only Step-2 engine).

The same eigenvectors also drive the paper's visualisation methodology:
spectral graph drawing (u2/u3 as 2-D node coordinates, Koren [6]) and spectral
clustering for node colouring [15].
"""

from repro.embedding.spectral import (
    SpectralEmbedding,
    StatelessEmbeddingEngine,
    embedding_from_eigenpairs,
    spectral_embedding_matrix,
)
from repro.embedding.engine import EmbeddingEngine, EngineStats
from repro.embedding.drawing import spectral_layout
from repro.embedding.kmeans import KMeansResult, kmeans
from repro.embedding.clustering import spectral_clustering

__all__ = [
    "SpectralEmbedding",
    "EmbeddingEngine",
    "EngineStats",
    "StatelessEmbeddingEngine",
    "embedding_from_eigenpairs",
    "spectral_embedding_matrix",
    "spectral_layout",
    "KMeansResult",
    "kmeans",
    "spectral_clustering",
]

"""Configuration of the SGL algorithm (Algorithm 1 inputs).

All defaults follow the paper's experimental setup (Sec. III-A): ``k = 5``
nearest neighbours for the initial graph, ``r = 5`` eigenvectors for the
spectral embedding, edge-sampling ratio ``beta = 1e-3``, sensitivity tolerance
``tol = 1e-12`` and ``sigma^2 -> inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SGLConfig"]


@dataclass(frozen=True)
class SGLConfig:
    """Tunable parameters of the SGL graph learner.

    Attributes
    ----------
    k:
        Number of nearest neighbours for the initial kNN graph (Step 1).
    knn_backend:
        Nearest-neighbour search backend for Step 1: ``"auto"`` (default;
        picks from the feature shape — see
        :func:`repro.knn.backends.select_backend`), ``"kdtree"``,
        ``"brute"`` or ``"jl"``.
    r:
        Number of Laplacian eigenvectors for the spectral embedding (Eq. 12);
        the embedding uses the ``r - 1`` nontrivial vectors ``u_2 .. u_r``.
    tol:
        Maximum-edge-sensitivity convergence threshold (Step 4).  Smaller
        values add more edges and match the data distances more precisely.
    beta:
        Edge-sampling ratio: at most ``ceil(N * beta)`` of the highest-
        sensitivity off-tree edges are added per iteration (Step 3).
    sigma_sq:
        Prior feature variance in ``Theta = L + I / sigma^2``; the paper
        analyses (and we default to) the ``sigma^2 -> inf`` limit.
    max_iterations:
        Safety cap on densification iterations.
    edge_scaling:
        Whether to apply Step 5 spectral edge scaling when current
        measurements are available.
    track_objective:
        If True, the graphical-Lasso objective (Eq. 2) is evaluated every
        iteration and stored in the history (needed for Fig. 2/4-6 but
        costly, so off by default).
    objective_eigenvalues:
        Number of smallest nonzero eigenvalues used to approximate
        ``log det`` in the objective (the paper uses 50).
    seed:
        Random seed shared by the eigensolver starts and the kNN backends'
        random projections.

    Examples
    --------
    >>> from repro import SGLConfig
    >>> config = SGLConfig(k=5, beta=0.01)
    >>> config.edges_per_iteration(1000)
    10
    >>> config.knn_backend
    'auto'
    """

    k: int = 5
    knn_backend: str = "auto"
    r: int = 5
    tol: float = 1e-12
    beta: float = 1e-3
    sigma_sq: float = np.inf
    max_iterations: int = 500
    edge_scaling: bool = True
    track_objective: bool = False
    objective_eigenvalues: int = 50
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.r < 2:
            raise ValueError("r must be at least 2")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.knn_backend not in {"auto", "brute", "kdtree", "jl"}:
            raise ValueError(f"unknown knn_backend {self.knn_backend!r}")
        if self.objective_eigenvalues < 1:
            raise ValueError("objective_eigenvalues must be at least 1")

    def edges_per_iteration(self, n_nodes: int) -> int:
        """Number of edges considered for inclusion each iteration, ``ceil(N beta)``."""
        return max(1, int(np.ceil(n_nodes * self.beta)))

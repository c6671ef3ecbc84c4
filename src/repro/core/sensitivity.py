"""Edge sensitivities, embedding distortions and eigenvalue perturbations.

This module implements the analytical heart of the paper:

* Theorem II.1 -- the first-order eigenvalue perturbation caused by adding a
  candidate edge, ``delta lambda_i = delta_w (u_i^T e_st)^2``
  (:func:`eigenvalue_perturbations`);
* Eq. (13)    -- the edge sensitivity
  ``s_st = ||U_r^T e_st||^2 - (1/M) ||X^T e_st||^2 = z_emb - z_data / M``
  used to rank candidate edges (:func:`edge_sensitivities`);
* Eq. (14/15) -- the spectral embedding distortion
  ``eta_st = M z_emb / z_data`` which equals the edge leverage score
  ``w_st R_eff(s,t)`` in the ``sigma^2 -> inf`` limit
  (:func:`spectral_embedding_distortion`).
"""

from __future__ import annotations

import numpy as np

from repro.embedding.spectral import SpectralEmbedding

__all__ = [
    "data_distances_squared",
    "edge_sensitivities",
    "spectral_embedding_distortion",
    "eigenvalue_perturbations",
    "sgl_edge_weights",
]


def data_distances_squared(voltages: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Squared data-space distances ``z_data = ||X^T (e_s - e_t)||^2`` (Eq. 13).

    Parameters
    ----------
    voltages:
        Measurement matrix ``X`` of shape ``(N, M)``; row ``i`` holds node
        ``i``'s voltages across the ``M`` measurements.
    pairs:
        ``(m, 2)`` array of node pairs.
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    diffs = voltages[pairs[:, 0]] - voltages[pairs[:, 1]]
    return np.einsum("ij,ij->i", diffs, diffs)


def sgl_edge_weights(voltages: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The paper's candidate edge weights ``w_st = M / z_data`` (Eq. 15)."""
    voltages = np.asarray(voltages, dtype=np.float64)
    z_data = data_distances_squared(voltages, pairs)
    n_measurements = voltages.shape[1]
    floor = max(float(z_data.max(initial=0.0)), 1.0) * 1e-15
    return n_measurements / np.maximum(z_data, floor)


def edge_sensitivities(
    embedding: SpectralEmbedding,
    voltages: np.ndarray,
    pairs: np.ndarray,
    *,
    data_term: np.ndarray | None = None,
) -> np.ndarray:
    """Edge sensitivities ``s_st = dF / dw_st ~= z_emb - z_data / M`` (Eq. 13).

    Positive sensitivity means including the edge increases the graphical-
    Lasso objective (the embedding distance between its endpoints is still
    larger than the measured data distance); the SGL loop adds the largest
    ones each iteration.

    ``data_term`` is ``z_data / M`` for ``pairs``, when the caller already
    has it: the data do not change inside the densification loop, so
    :func:`repro.core.sgl.densify` computes it once per call.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.sensitivity import edge_sensitivities
    >>> from repro.embedding.spectral import SpectralEmbedding
    >>> coords = np.array([[0.0], [2.0], [3.0]])
    >>> emb = SpectralEmbedding(
    ...     eigenvalues=np.ones(1), eigenvectors=coords,
    ...     coordinates=coords, sigma_sq=float("inf"),
    ... )
    >>> voltages = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 3.0]])
    >>> edge_sensitivities(emb, voltages, np.array([[0, 1], [1, 2]])).tolist()
    [3.0, -1.0]
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    z_emb = embedding.pair_distances_squared(pairs)
    if data_term is None:
        data_term = data_distances_squared(voltages, pairs) / voltages.shape[1]
    return z_emb - data_term


def spectral_embedding_distortion(
    embedding: SpectralEmbedding,
    voltages: np.ndarray,
    pairs: np.ndarray,
) -> np.ndarray:
    """Spectral embedding distortion ``eta_st = M z_emb / z_data`` (Eq. 14).

    At the global optimum of the learning problem the maximum distortion over
    candidate edges equals one; values above one indicate edges whose
    endpoints are still too far apart on the learned graph.
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    z_emb = embedding.pair_distances_squared(pairs)
    z_data = data_distances_squared(voltages, pairs)
    floor = max(float(z_data.max(initial=0.0)), 1.0) * 1e-15
    return voltages.shape[1] * z_emb / np.maximum(z_data, floor)


def eigenvalue_perturbations(
    eigenvectors: np.ndarray,
    edge: tuple[int, int],
    delta_weight: float,
) -> np.ndarray:
    """First-order eigenvalue shifts from adding an edge (Theorem II.1).

    ``delta lambda_i = delta_w * (u_i^T (e_s - e_t))^2`` for each eigenvector
    column ``u_i`` of ``eigenvectors``.
    """
    eigenvectors = np.asarray(eigenvectors, dtype=np.float64)
    s, t = edge
    diffs = eigenvectors[s, :] - eigenvectors[t, :]
    return delta_weight * diffs**2

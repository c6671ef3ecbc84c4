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
from repro.measurements.jl import jl_projection_matrix

__all__ = [
    "data_distances_squared",
    "edge_sensitivities",
    "spectral_embedding_distortion",
    "eigenvalue_perturbations",
    "sgl_edge_weights",
]


def _sketch_columns(matrix: np.ndarray, n_samples: int, seed: int | None) -> np.ndarray:
    """Hutchinson-style column sketch: ``matrix @ R`` with random-sign probes.

    ``R`` has shape ``(n_columns, n_samples)`` with entries
    ``+-1/sqrt(n_samples)``, so for any row-difference vector ``v``,
    ``E[||v @ R||^2] = ||v||^2`` — squared pair distances computed from the
    sketched matrix are unbiased estimates of the exact ones.  When the
    sketch would not shrink the matrix it is returned unchanged.
    """
    n_columns = matrix.shape[1]
    if n_samples >= n_columns:
        return matrix
    return matrix @ jl_projection_matrix(n_columns, n_samples, seed=seed)


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
    n_samples: int | None = None,
    seed: int | None = 0,
    data_term: np.ndarray | None = None,
) -> np.ndarray:
    """Edge sensitivities ``s_st = dF / dw_st ~= z_emb - z_data / M`` (Eq. 13).

    Positive sensitivity means including the edge increases the graphical-
    Lasso objective (the embedding distance between its endpoints is still
    larger than the measured data distance); the SGL loop adds the largest
    ones each iteration.

    ``n_samples`` opts into the Hutchinson-style stochastic estimator
    (``SGLConfig.sensitivity_samples``): instead of touching all ``M``
    measurement columns (and all embedding coordinates) per candidate edge,
    both matrices are first compressed through random-sign probe sketches of
    that many columns, an unbiased estimate of the exact squared distances.
    ``None`` (default) keeps the exact pass.

    ``data_term`` is the exact pass's ``z_data / M`` for ``pairs``, when the
    caller already has it: the data do not change inside the densification
    loop, so :func:`repro.core.sgl.densify` computes it once per call.  It
    cannot be combined with ``n_samples``.

    Examples
    --------
    The estimator is unbiased, so with enough probes the ranking agrees
    with the exact pass:

    >>> import numpy as np
    >>> from repro.core.sensitivity import edge_sensitivities
    >>> from repro.embedding.spectral import SpectralEmbedding
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.standard_normal((30, 4))
    >>> emb = SpectralEmbedding(
    ...     eigenvalues=np.ones(4), eigenvectors=coords,
    ...     coordinates=coords, sigma_sq=float("inf"),
    ... )
    >>> voltages = rng.standard_normal((30, 64))
    >>> pairs = np.array([[0, 1], [2, 3], [4, 5]])
    >>> exact = edge_sensitivities(emb, voltages, pairs)
    >>> approx = edge_sensitivities(emb, voltages, pairs, n_samples=48, seed=1)
    >>> bool(np.allclose(exact, approx, atol=1.0))
    True
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n_measurements = voltages.shape[1]
    if n_samples is not None:
        if data_term is not None:
            raise ValueError("data_term is the exact pass's; it cannot be combined with n_samples")
        if n_samples < 1:
            raise ValueError("n_samples must be None or at least 1")
        # Sketch before differencing: z_data/M is preserved in expectation
        # because the probe matrix is scaled by 1/sqrt(n_samples) and the
        # 1/M normalisation is applied to the *exact* column count below.
        voltages_sk = _sketch_columns(voltages, n_samples, seed)
        coords_sk = _sketch_columns(
            np.asarray(embedding.coordinates, dtype=np.float64), n_samples, seed
        )
        diffs = coords_sk[pairs[:, 0]] - coords_sk[pairs[:, 1]]
        z_emb = np.einsum("ij,ij->i", diffs, diffs)
        z_data = data_distances_squared(voltages_sk, pairs)
        return z_emb - z_data / n_measurements
    z_emb = embedding.pair_distances_squared(pairs)
    if data_term is None:
        data_term = data_distances_squared(voltages, pairs) / n_measurements
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

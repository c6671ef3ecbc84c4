"""Eigenvalue comparison metrics (the paper's eigenvalue scatter plots).

Figures 3-6 and 8-10 of the paper compare the first ~30-50 nonzero Laplacian
eigenvalues of the learned graph ("approximate eigenvalues") against those of
the original graph ("true eigenvalues"), either as a scatter plot or via a
correlation coefficient (Fig. 8 reports 0.999 / 0.994).  These helpers produce
the same series and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import laplacian_eigenpairs

__all__ = [
    "EigenvalueComparison",
    "compare_eigenvalues",
    "eigenvalue_correlation",
    "relative_eigenvalue_error",
]


@dataclass(frozen=True)
class EigenvalueComparison:
    """Paired eigenvalue series of an original and a learned graph."""

    original: np.ndarray
    learned: np.ndarray

    @property
    def correlation(self) -> float:
        """Pearson correlation coefficient between the two series."""
        return eigenvalue_correlation(self.original, self.learned)

    @property
    def mean_relative_error(self) -> float:
        """Mean of ``|learned - original| / original`` over nonzero originals."""
        return relative_eigenvalue_error(self.original, self.learned)

    @property
    def max_relative_error(self) -> float:
        """Worst-case relative eigenvalue error."""
        mask = self.original > 0
        if not np.any(mask):
            return 0.0
        return float(
            np.max(np.abs(self.learned[mask] - self.original[mask]) / self.original[mask])
        )


def eigenvalue_correlation(original: np.ndarray, learned: np.ndarray) -> float:
    """Pearson correlation between two eigenvalue series (Fig. 8's 'Corr. Coef.')."""
    original = np.asarray(original, dtype=np.float64)
    learned = np.asarray(learned, dtype=np.float64)
    if original.shape != learned.shape:
        raise ValueError("eigenvalue series must have the same length")
    if original.size < 2:
        return 1.0
    if np.std(original) == 0 or np.std(learned) == 0:
        return 1.0 if np.allclose(original, learned) else 0.0
    return float(np.corrcoef(original, learned)[0, 1])


def relative_eigenvalue_error(original: np.ndarray, learned: np.ndarray) -> float:
    """Mean relative error of the learned eigenvalues."""
    original = np.asarray(original, dtype=np.float64)
    learned = np.asarray(learned, dtype=np.float64)
    if original.shape != learned.shape:
        raise ValueError("eigenvalue series must have the same length")
    mask = original > 0
    if not np.any(mask):
        return 0.0
    return float(np.mean(np.abs(learned[mask] - original[mask]) / original[mask]))


def compare_eigenvalues(
    original: WeightedGraph,
    learned: WeightedGraph,
    k: int = 50,
    *,
    seed: int | None = 0,
) -> EigenvalueComparison:
    """First ``k`` nonzero eigenvalues of both graphs, paired by index.

    The graphs may have different node counts (the reduced-network experiment
    of Fig. 8 compares a 10%-sized learned graph against the original); ``k``
    is clipped to what both graphs support.
    """
    k_eff = min(k, original.n_nodes - 1, learned.n_nodes - 1)
    if k_eff < 1:
        raise ValueError("graphs are too small to compare eigenvalues")
    original_values, _ = laplacian_eigenpairs(original, k_eff, seed=seed)
    learned_values, _ = laplacian_eigenpairs(learned, k_eff, seed=seed)
    return EigenvalueComparison(original=original_values, learned=learned_values)

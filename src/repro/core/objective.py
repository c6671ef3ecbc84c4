"""The graphical-Lasso objective with Laplacian-like precision matrices (Eq. 2).

SGL maximises

    F(Theta) = log det(Theta) - (1/M) Tr(X^T Theta X) - beta ||Theta||_1,
    Theta = L + I / sigma^2,

over valid graph Laplacians ``L``.  The paper evaluates F approximately using
the first 50 nonzero Laplacian eigenvalues for the log-determinant term; the
same approximation is used here (configurable), which keeps the evaluation
cheap even for large graphs and matches the numbers plotted in Figs. 2, 4-6.

In the ``sigma^2 -> inf`` limit the (singular) Laplacian has log det = -inf;
following standard practice (and the paper's approximation) the zero
eigenvalue is excluded, i.e. the pseudo-determinant is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import WeightedGraph
from repro.graphs.laplacian import laplacian_quadratic_form
from repro.linalg.eigen import laplacian_eigenpairs

__all__ = ["ObjectiveTerms", "graphical_lasso_objective", "objective_terms"]


@dataclass(frozen=True)
class ObjectiveTerms:
    """The three terms of the graphical-Lasso objective (Eq. 2)."""

    log_det: float
    trace_term: float
    l1_term: float

    @property
    def value(self) -> float:
        """The objective ``F = log_det - trace_term - l1_term``."""
        return self.log_det - self.trace_term - self.l1_term


def _as_graph_and_laplacian(
    graph_or_laplacian: WeightedGraph | sp.spmatrix | np.ndarray,
) -> tuple[WeightedGraph | None, sp.csr_matrix]:
    if isinstance(graph_or_laplacian, WeightedGraph):
        return graph_or_laplacian, graph_or_laplacian.laplacian()
    return None, sp.csr_matrix(graph_or_laplacian)


def objective_terms(
    graph_or_laplacian: WeightedGraph | sp.spmatrix | np.ndarray,
    voltages: np.ndarray,
    *,
    sigma_sq: float = np.inf,
    beta: float = 0.0,
    n_eigenvalues: int = 50,
    seed: int | None = 0,
) -> ObjectiveTerms:
    """Evaluate the three terms of Eq. (2) separately.

    Parameters
    ----------
    graph_or_laplacian:
        The learned graph (or its Laplacian).
    voltages:
        Measurement matrix ``X`` of shape ``(N, M)``.
    sigma_sq:
        Prior variance in ``Theta = L + I/sigma^2`` (default: infinite).
    beta:
        Sparsity-regularisation weight (the paper sets it to zero; it does
        not change the edge ranking).
    n_eigenvalues:
        Number of smallest nonzero eigenvalues used for the log-det
        approximation (paper: 50).
    """
    graph, laplacian = _as_graph_and_laplacian(graph_or_laplacian)
    voltages = np.asarray(voltages, dtype=np.float64)
    n = laplacian.shape[0]
    if voltages.shape[0] != n:
        raise ValueError("voltages must have one row per node")
    n_measurements = voltages.shape[1]
    shift = 0.0 if not np.isfinite(sigma_sq) else 1.0 / sigma_sq

    k = min(n_eigenvalues, n - 1)
    values, _ = laplacian_eigenpairs(laplacian, k, drop_trivial=True, seed=seed)
    values = np.maximum(values, 1e-300)
    log_det = float(np.sum(np.log(values + shift)))
    if shift > 0:
        # Account for the trivial eigenvalue's contribution log(0 + 1/sigma^2).
        log_det += float(np.log(shift))

    quad = laplacian_quadratic_form(laplacian, voltages)
    trace_lap = float(np.sum(quad))
    trace_shift = shift * float(np.sum(voltages**2))
    trace_term = (trace_lap + trace_shift) / n_measurements

    l1_term = 0.0
    if beta != 0.0:
        if graph is not None:
            entry_sum = 4.0 * graph.total_weight + n * shift
        else:
            entry_sum = float(np.abs(laplacian).sum()) + n * shift
        l1_term = beta * entry_sum
    return ObjectiveTerms(log_det=log_det, trace_term=trace_term, l1_term=l1_term)


def graphical_lasso_objective(
    graph_or_laplacian: WeightedGraph | sp.spmatrix | np.ndarray,
    voltages: np.ndarray,
    *,
    sigma_sq: float = np.inf,
    beta: float = 0.0,
    n_eigenvalues: int = 50,
    seed: int | None = 0,
) -> float:
    """The objective value ``F`` of Eq. (2) (higher is better)."""
    return objective_terms(
        graph_or_laplacian,
        voltages,
        sigma_sq=sigma_sq,
        beta=beta,
        n_eigenvalues=n_eigenvalues,
        seed=seed,
    ).value

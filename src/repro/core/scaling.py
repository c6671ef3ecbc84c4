"""Spectral edge scaling -- Step 5 of the SGL algorithm (Eqs. 21-23).

The densification loop fixes the graph *topology* and relative edge weights;
its absolute conductance scale, however, is only determined up to the constant
implied by the measurement magnitudes.  Step 5 corrects the scale by comparing
the voltage responses of the learned graph against the measured ones:

    ||x_i||^2      = y_i^T (L*^+)^2 y_i       (ground truth, Eq. 21)
    ||x~_i||^2     = y_i^T (L^+)^2  y_i       (learned graph, Eq. 22)
    w_st <- w~_st * sqrt( (1/M) sum_i ||x~_i||^2 / ||x_i||^2 )   (Eq. 23)

If the learned graph is too resistive its simulated voltages are too large,
the ratio exceeds one, and all conductances are scaled up accordingly (and
vice versa).  Only a single Laplacian factorisation and ``M`` solves are
needed, so the step is nearly linear time.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.solvers import LaplacianSolver
from repro.measurements.validation import MeasurementError

__all__ = ["edge_scaling_factor", "spectral_edge_scaling"]


def edge_scaling_factor(
    graph: WeightedGraph,
    voltages: np.ndarray,
    currents: np.ndarray,
    *,
    solver: LaplacianSolver | None = None,
) -> float:
    """The global conductance correction factor of Eq. (23).

    Parameters
    ----------
    graph:
        The learned graph (before scaling); must be connected.
    voltages:
        Measured voltages ``X`` of shape ``(N, M)``.
    currents:
        The corresponding current excitations ``Y`` of shape ``(N, M)``.
    solver:
        Optional pre-built solver for ``graph``'s Laplacian.

    Raises
    ------
    repro.measurements.MeasurementError
        When a voltage column has zero energy while the learned graph's
        response to its current does not, or no column carries energy.
        Columns where both are zero carry no information and are skipped.
    """
    voltages = np.asarray(voltages, dtype=np.float64)
    currents = np.asarray(currents, dtype=np.float64)
    if voltages.shape != currents.shape:
        raise ValueError("voltages and currents must have the same shape")
    if voltages.shape[0] != graph.n_nodes:
        raise ValueError("measurement rows must match the graph's node count")
    if solver is None:
        solver = LaplacianSolver(graph)

    simulated = solver.solve(currents)  # x~_i columns
    measured_norms = np.einsum("ij,ij->j", voltages, voltages)
    simulated_norms = np.einsum("ij,ij->j", simulated, simulated)
    informative = measured_norms > 0
    unmatched = np.flatnonzero(~informative & (simulated_norms > 0))
    if unmatched.size:
        column = int(unmatched[0])
        raise MeasurementError(
            f"voltage column {column} has zero energy but the graph's response to its current does not",
            column=column,
        )
    if not informative.any():
        raise MeasurementError("no measurement column has nonzero voltage energy")
    ratios = simulated_norms[informative] / measured_norms[informative]
    return float(np.sqrt(ratios.mean()))


def spectral_edge_scaling(
    graph: WeightedGraph,
    voltages: np.ndarray,
    currents: np.ndarray,
    *,
    solver: LaplacianSolver | None = None,
) -> tuple[WeightedGraph, float]:
    """Apply Step 5: return the rescaled graph and the factor used.

    Raises :class:`~repro.measurements.MeasurementError` when the factor is
    not a finite positive number (degenerate or out-of-range measurements).
    """
    factor = edge_scaling_factor(graph, voltages, currents, solver=solver)
    if not (np.isfinite(factor) and factor > 0):
        raise MeasurementError(
            f"Step-5 scaling factor is {factor}; the measurements' energies are degenerate"
        )
    return graph.scaled(factor), factor

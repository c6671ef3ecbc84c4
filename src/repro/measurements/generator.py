"""Voltage / current measurement simulation (paper Sec. III-A).

The experimental procedure of the paper is:

1. draw ``M`` current-source vectors with i.i.d. standard-normal entries;
2. normalise each current vector and project it orthogonal to the all-one
   vector (so it is a valid Kirchhoff excitation with zero net current);
3. solve the ground-truth Laplacian ``L* x_i = y_i`` for the node voltages;
4. stack voltages and currents into ``X, Y in R^{N x M}``.

:func:`simulate_measurements` implements exactly this and returns a
:class:`MeasurementSet`, the input object consumed by the SGL learner, the
baselines and the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.linalg.solvers import LaplacianSolver

__all__ = ["MeasurementSet", "simulate_measurements", "random_current_vectors"]


@dataclass(frozen=True)
class MeasurementSet:
    """A bundle of linear measurements of a resistor network.

    Attributes
    ----------
    voltages:
        ``X in R^{N x M}``; column ``i`` is the voltage response to the i-th
        current excitation.
    currents:
        ``Y in R^{N x M}``; may be ``None`` when only voltages are available
        (e.g. the reduced-network learning experiment of Fig. 8, which uses a
        subset of node voltages and no currents).
    noise_level:
        The multiplicative noise level ``zeta`` applied to the voltages
        (0 for noiseless measurements).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.measurements import MeasurementSet
    >>> data = MeasurementSet(np.zeros((4, 10)))
    >>> data.n_nodes, data.n_measurements, data.has_currents
    (4, 10, False)
    """

    voltages: np.ndarray
    currents: np.ndarray | None = None
    noise_level: float = 0.0

    def __post_init__(self) -> None:
        voltages = np.asarray(self.voltages, dtype=np.float64)
        object.__setattr__(self, "voltages", voltages)
        if voltages.ndim != 2:
            raise ValueError("voltages must be an (N, M) matrix")
        if self.currents is not None:
            currents = np.asarray(self.currents, dtype=np.float64)
            if currents.shape != voltages.shape:
                raise ValueError("currents must have the same shape as voltages")
            object.__setattr__(self, "currents", currents)

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``N``."""
        return self.voltages.shape[0]

    @property
    def n_measurements(self) -> int:
        """Number of measurement pairs ``M``."""
        return self.voltages.shape[1]

    @property
    def has_currents(self) -> bool:
        """Whether current excitations are available (needed for edge scaling)."""
        return self.currents is not None

    def with_voltages(self, voltages: np.ndarray, **changes) -> "MeasurementSet":
        """Return a copy with the voltage matrix (and other fields) replaced."""
        return replace(self, voltages=voltages, **changes)

    def subset_measurements(self, indices: np.ndarray | list[int]) -> "MeasurementSet":
        """Keep only the measurement columns in ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        currents = None if self.currents is None else self.currents[:, indices]
        return MeasurementSet(self.voltages[:, indices], currents, self.noise_level)

    def restrict_to_nodes(self, nodes: np.ndarray | list[int]) -> "MeasurementSet":
        """Keep only the rows (nodes) in ``nodes``; currents are dropped.

        This models observing voltages at a subset of circuit nodes only,
        which is the setting of the paper's reduced-network experiment.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        return MeasurementSet(self.voltages[nodes], None, self.noise_level)


def random_current_vectors(
    n_nodes: int,
    n_measurements: int,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = 0,
) -> np.ndarray:
    """Random current excitations: unit-norm, orthogonal to the all-one vector."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if n_measurements < 1:
        raise ValueError("need at least one measurement")
    if rng is None:
        rng = np.random.default_rng(seed)
    currents = rng.standard_normal((n_nodes, n_measurements))
    currents -= currents.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(currents, axis=0, keepdims=True)
    norms[norms == 0] = 1.0
    return currents / norms


def simulate_measurements(
    graph: WeightedGraph,
    n_measurements: int = 50,
    *,
    seed: int | None = 0,
    solver: LaplacianSolver | None = None,
) -> MeasurementSet:
    """Simulate the paper's measurement procedure on a ground-truth network.

    Parameters
    ----------
    graph:
        The ground-truth resistor network ``G*`` (must be connected).
    n_measurements:
        Number of (voltage, current) pairs ``M``; the paper defaults to 50.
    seed:
        Seed for the random current excitations.
    solver:
        Optional pre-built solver for the graph Laplacian (reused across
        calls by the experiment harness).

    Returns
    -------
    MeasurementSet
        Noiseless voltages ``X`` and currents ``Y``.

    Examples
    --------
    >>> from repro import simulate_measurements
    >>> from repro.graphs.generators import grid_2d
    >>> data = simulate_measurements(grid_2d(5, 5), n_measurements=20, seed=0)
    >>> data.voltages.shape, data.has_currents
    ((25, 20), True)
    """
    if solver is None:
        solver = LaplacianSolver(graph)
    currents = random_current_vectors(graph.n_nodes, n_measurements, seed=seed)
    voltages = solver.solve(currents)
    return MeasurementSet(voltages=voltages, currents=currents, noise_level=0.0)

"""Boundary checks on measurement matrices.

A bad measurement used to fail deep inside the stack or silently: one NaN
voltage surfaced as ``LinAlgError: SVD did not converge`` in the kNN
backend, a NaN current or data scaled past float64's range made Step 5
return a factor of 1.0, and a zeroed voltage column inflated the Step-5
factor to ~1e11.  :func:`check_measurements` rejects those inputs where they
enter the learners, with a :class:`MeasurementError` that names the
offending entry or column.

Examples
--------
>>> import numpy as np
>>> from repro.measurements import MeasurementError, check_measurements
>>> voltages = np.ones((4, 3))
>>> voltages[2, 1] = np.nan
>>> try:
...     check_measurements(voltages)
... except MeasurementError as error:
...     print(error, (error.row, error.column))
voltages[2, 1] is nan (2, 1)
"""

from __future__ import annotations

import numpy as np

__all__ = ["MeasurementError", "check_measurements"]


class MeasurementError(ValueError):
    """Measurements no graph can be learned from.

    ``row`` and ``column`` name the offending entry; ``row`` is ``None`` when
    a whole measurement column is at fault.
    """

    def __init__(self, message: str, *, row: int | None = None, column: int | None = None) -> None:
        super().__init__(message)
        self.row = row
        self.column = column


def _column_energies(matrix: np.ndarray, name: str) -> np.ndarray:
    """``||column||^2`` of every column; raises for non-finite entries or overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        energies = np.einsum("ij,ij->j", matrix, matrix)
    if np.isfinite(energies).all():
        return energies
    bad = ~np.isfinite(matrix)
    if bad.any():
        row, column = (int(index) for index in np.argwhere(bad)[0])
        raise MeasurementError(f"{name}[{row}, {column}] is {matrix[row, column]}", row=row, column=column)
    column = int(np.flatnonzero(~np.isfinite(energies))[0])
    raise MeasurementError(
        f"{name} column {column} overflows float64 when squared; rescale the measurements",
        column=column,
    )


def check_measurements(voltages: np.ndarray, currents: np.ndarray | None = None) -> None:
    """Raise :class:`MeasurementError` unless ``(voltages, currents)`` can be learned from.

    Rejected: a non-finite entry in either matrix, a column whose energy
    ``||x_i||^2`` overflows float64, currents of another shape than the
    voltages, and a voltage column of zero energy whose current column is
    nonzero (Step 5 would divide the simulated response by zero).
    """
    voltage_energies = _column_energies(voltages, "voltages")
    if currents is None:
        return
    if currents.shape != voltages.shape:
        raise MeasurementError(
            f"currents have shape {currents.shape}, voltages {voltages.shape}; they must match"
        )
    _column_energies(currents, "currents")
    silent = np.flatnonzero(voltage_energies == 0)
    driven = silent[np.any(currents[:, silent] != 0, axis=0)]
    if driven.size:
        column = int(driven[0])
        raise MeasurementError(
            f"voltage column {column} has zero energy but its current column is nonzero",
            column=column,
        )

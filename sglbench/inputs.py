"""Seeded inputs: truth graphs from ``repro.graphs.generators``, measurements simulated here.

The program receives only arrays: the excitations ``Y`` and responses
``X = L*^+ Y`` are drawn and solved with numpy/scipy in this module
(:mod:`reference`), following the paper's procedure (Sec. III-A: Gaussian
currents, mean removed, unit norm).

The truth graphs, the excitations a model is learned from and the stream's
drift and batches are fixed draws, as the paper's test matrices are.  On
these inputs another excitation draw alone moves ``spectral_err`` of the
circuit grid from 0.05 to 0.23 and the mesh fit from 27 to 35 iterations,
and over five drift draws the stream's final ``spectral_err`` had quartiles
0.05 and 0.09: seed-to-seed spread would hide any change smaller than that.
``--seed`` drives the rest: the fit order, the serve request table and the
stream's probes and read bursts.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.generators import circuit_grid, fe_mesh, grid_2d

import reference

#: Seed of the fixed excitation draws the models are learned from.
DRAW_SEED = 2021


def fit_truths() -> list[tuple[str, object]]:
    """The ``fit`` workload's three ~10k-node truth graphs, one per structural class."""
    return [
        ("mesh", grid_2d(100, 100)),
        ("fem", fe_mesh(10_000, seed=3)),
        ("circuit", circuit_grid(100, seed=4)),
    ]


def circuit_truth():
    """The 4,900-node irregular circuit grid served by ``serve`` and streamed by ``stream``."""
    return circuit_grid(70, seed=4)


def warmup_truth():
    """A 400-node grid whose fit pays the first-call costs before timing starts."""
    return circuit_grid(20, seed=4)


def currents(n_nodes: int, n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian current excitations, mean removed, unit norm per column."""
    y = rng.standard_normal((n_nodes, n_pairs))
    y -= y.mean(axis=0)
    return y / np.linalg.norm(y, axis=0)


def measure(truth, n_pairs: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Y)`` for ``n_pairs`` excitations of ``truth``."""
    y = currents(truth.n_nodes, n_pairs, rng)
    return reference.PseudoInverse(truth).apply(y), y


class DriftingCircuit:
    """A truth graph whose conductances take a log-normal random walk per batch."""

    def __init__(self, truth, rate: float, rng: np.random.Generator) -> None:
        self.truth = truth
        self.rate = rate
        self._rng = rng

    def next_batch(self, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
        steps = np.exp(self.rate * self._rng.standard_normal(self.truth.n_edges))
        self.truth = self.truth.with_weights(self.truth.weights * steps)
        return measure(self.truth, n_pairs, self._rng)

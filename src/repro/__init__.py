"""repro -- a full reproduction of "SGL: Spectral Graph Learning from Measurements".

The package learns ultra-sparse resistor networks (weighted undirected graphs)
from linear voltage/current measurements, following Feng's DAC 2021 paper, and
ships every substrate the algorithm relies on: graph generators, Laplacian
solvers and eigensolvers, kNN/MST construction, spectral embedding, metrics,
baselines and an experiment harness reproducing every figure of the paper.

Quickstart
----------
>>> from repro import SGLearner, simulate_measurements
>>> from repro.graphs.generators import grid_2d
>>> truth = grid_2d(20, 20)                                    # ground-truth network
>>> data = simulate_measurements(truth, n_measurements=50)     # voltages + currents
>>> result = SGLearner(beta=0.01).fit(data)                    # learn it back
>>> round(result.graph.density, 2) <= 1.6
True
"""

from repro.core import SGLConfig, SGLearner, SGLResult, learn_graph
from repro.graphs import WeightedGraph
from repro.measurements import MeasurementError, MeasurementSet, simulate_measurements

__version__ = "1.2.0"

__all__ = [
    "SGLConfig",
    "SGLearner",
    "SGLResult",
    "learn_graph",
    "WeightedGraph",
    "MeasurementError",
    "MeasurementSet",
    "simulate_measurements",
    "__version__",
]

"""Measurement simulation: currents, voltages, noise, JL sketches, node subsets.

The paper's experimental setup (Sec. III-A) drives the ground-truth resistor
network with random current excitations and records the resulting node
voltages; SGL then learns the network back from those (X, Y) pairs.  This
subpackage implements that full measurement pipeline:

* :mod:`generator` -- random Gaussian current vectors orthogonal to the
  all-one vector and the corresponding voltage solves (default setup);
* :mod:`jl`        -- the Johnson-Lindenstrauss measurement construction of
  Sec. II-D used in the sample-complexity analysis;
* :mod:`noise`     -- the multiplicative Gaussian noise model of Fig. 9;
* :mod:`reduction` -- node-subset voltage sampling for learning reduced
  networks (Fig. 8);
* :mod:`validation` -- the boundary checks the learners run on their input.
"""

from repro.measurements.generator import MeasurementSet, simulate_measurements
from repro.measurements.jl import jl_measurements, jl_project, jl_projection_matrix
from repro.measurements.noise import add_measurement_noise
from repro.measurements.reduction import sample_node_subset, subset_measurements
from repro.measurements.validation import MeasurementError, check_measurements

__all__ = [
    "MeasurementError",
    "MeasurementSet",
    "check_measurements",
    "simulate_measurements",
    "jl_measurements",
    "jl_project",
    "jl_projection_matrix",
    "add_measurement_noise",
    "sample_node_subset",
    "subset_measurements",
]

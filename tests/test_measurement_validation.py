"""Bad measurements fail at the API boundary with a named ``MeasurementError``.

Each case below used to fail deep inside the stack or silently on
``grid_2d(15, 15)``: a NaN voltage raised ``LinAlgError: SVD did not
converge``, a NaN current and data scaled by 1e150 gave a Step-5 factor of
1.0, and a zeroed voltage column gave a factor of ~1e11.
"""

import numpy as np
import pytest

from repro import MeasurementError, MeasurementSet, SGLearner, simulate_measurements
from repro.core.scaling import edge_scaling_factor, spectral_edge_scaling
from repro.graphs.generators import grid_2d
from repro.stream import OnlineSGLearner


@pytest.fixture(scope="module")
def data():
    return simulate_measurements(grid_2d(15, 15), n_measurements=50, seed=0)


def _nan_voltage(data):
    voltages = data.voltages.copy()
    voltages[3, 5] = np.nan
    return MeasurementSet(voltages, data.currents)


def _nan_current(data):
    currents = data.currents.copy()
    currents[3, 5] = np.nan
    return MeasurementSet(data.voltages, currents)


def _zero_voltage_column(data):
    voltages = data.voltages.copy()
    voltages[:, 5] = 0.0
    return MeasurementSet(voltages, data.currents)


CASES = [
    (_nan_voltage, "voltages\\[3, 5\\] is nan", (3, 5)),
    (_nan_current, "currents\\[3, 5\\] is nan", (3, 5)),
    (_zero_voltage_column, "voltage column 5 has zero energy", (None, 5)),
]


@pytest.mark.parametrize("corrupt, message, where", CASES, ids=["nan-voltage", "nan-current", "zero-column"])
def test_fit_names_the_bad_entry(data, corrupt, message, where):
    with pytest.raises(MeasurementError, match=message) as caught:
        SGLearner(beta=0.025).fit(corrupt(data))
    assert (caught.value.row, caught.value.column) == where


@pytest.mark.parametrize("corrupt, message, where", CASES, ids=["nan-voltage", "nan-current", "zero-column"])
def test_fit_rejects_bare_arrays_too(data, corrupt, message, where):
    bad = corrupt(data)
    with pytest.raises(MeasurementError, match=message):
        SGLearner(beta=0.025).fit(bad.voltages, bad.currents)


@pytest.mark.parametrize("corrupt, message, where", CASES, ids=["nan-voltage", "nan-current", "zero-column"])
def test_online_fit_rejects_before_state_changes(data, corrupt, message, where):
    learner = OnlineSGLearner(beta=0.025)
    with pytest.raises(MeasurementError, match=message):
        learner.fit(corrupt(data))
    assert learner.n_updates == 0
    # The rejected batch left nothing behind: a clean fit still works.
    assert learner.fit(data).mode == "initial"


@pytest.mark.parametrize("corrupt, message, where", CASES, ids=["nan-voltage", "nan-current", "zero-column"])
def test_online_update_rejects_before_state_changes(data, corrupt, message, where):
    learner = OnlineSGLearner(beta=0.025)
    learner.fit(data.subset_measurements(range(40)))
    window = learner.window.voltages.copy()
    batch = corrupt(data).subset_measurements(range(10))
    with pytest.raises(MeasurementError, match=message):
        learner.update(batch)
    assert learner.n_updates == 1
    np.testing.assert_array_equal(learner.window.voltages, window)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
def test_out_of_range_scale_raises_instead_of_returning_one(data):
    scaled = MeasurementSet(data.voltages * 1e150, data.currents * 1e150)
    with pytest.raises(MeasurementError, match="Step-5 scaling factor"):
        SGLearner(beta=0.025).fit(scaled)


def test_overflowing_column_energy_is_named():
    voltages = np.ones((4, 3))
    voltages[:, 2] = 1e160
    with pytest.raises(MeasurementError, match="column 2 overflows") as caught:
        SGLearner().fit(voltages)
    assert (caught.value.row, caught.value.column) == (None, 2)


def test_step5_rejects_a_degenerate_factor(data):
    graph = grid_2d(15, 15)
    with pytest.raises(MeasurementError, match="Step-5 scaling factor is nan"):
        spectral_edge_scaling(graph, data.voltages, data.currents * np.nan)


def test_step5_skips_columns_with_no_signal(data):
    """A column whose voltage and current are both zero carries no information."""
    graph = grid_2d(15, 15)
    voltages, currents = data.voltages.copy(), data.currents.copy()
    voltages[:, 5] = 0.0
    currents[:, 5] = 0.0
    keep = np.arange(data.n_measurements) != 5
    expected = edge_scaling_factor(graph, data.voltages[:, keep], data.currents[:, keep])
    assert edge_scaling_factor(graph, voltages, currents) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(MeasurementError, match="voltage column 5"):
        edge_scaling_factor(graph, voltages, data.currents)


def test_clean_measurements_still_learn(data):
    result = SGLearner(beta=0.025).fit(data)
    assert np.isfinite(result.scaling_factor) and result.scaling_factor > 0
    assert result.graph.is_connected()

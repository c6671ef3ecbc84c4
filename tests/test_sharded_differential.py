"""Differential correctness of the partition-parallel learner.

The sharded engine's contract against the serial learner, checked run
against run:

* ``num_parts=1`` is **bit-compatible** with :class:`~repro.core.SGLearner`
  — same edges, same weight bytes, same scaling factor;
* the process-pool shard execution is **byte-identical** to the in-process
  sequential order (extending the PR 5 ``--jobs`` parallel-vs-serial
  guarantee into the shard pool);
* multi-part fits stay within tolerance of the whole-graph fit on the
  graphical-lasso objective and edge density, and — on every medium-tier
  scenario family — the learned graph's effective-resistance correlation
  with the ground truth is within 0.05 of the serial fit's.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.registry import get_scenario, list_scenarios
from repro.bench.runner import quality_metrics
from repro.core.objective import graphical_lasso_objective
from repro.core.sgl import SGLearner
from repro.graphs.generators import grid_2d
from repro.measurements import simulate_measurements
from repro.partition import ShardedSGLearner

BETA = 0.05


@pytest.fixture(scope="module")
def small_case():
    graph = grid_2d(14, 14)
    data = simulate_measurements(graph, n_measurements=30, seed=0)
    return graph, data


@pytest.fixture(scope="module")
def serial_result(small_case):
    _, data = small_case
    return SGLearner(beta=BETA).fit(data)


def _graphs_identical(a, b) -> bool:
    return (
        a.n_nodes == b.n_nodes
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and a.weights.tobytes() == b.weights.tobytes()
    )


# ----------------------------------------------------------------------
# parts=1: bit-compatibility with the serial learner
# ----------------------------------------------------------------------
def test_single_part_bit_compatible_with_serial(small_case, serial_result):
    _, data = small_case
    sharded = ShardedSGLearner(beta=BETA, num_parts=1).fit(data)
    assert _graphs_identical(sharded.graph, serial_result.graph)
    assert _graphs_identical(sharded.unscaled_graph, serial_result.unscaled_graph)
    assert sharded.scaling_factor == serial_result.scaling_factor
    assert sharded.converged == serial_result.converged


# ----------------------------------------------------------------------
# Multi-part: within tolerance of the whole-graph fit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("num_parts", [2, 4])
def test_multi_part_close_to_whole_graph(small_case, serial_result, num_parts):
    truth, data = small_case
    sharded = ShardedSGLearner(beta=BETA, num_parts=num_parts).fit(data)
    assert sharded.graph.is_connected()
    assert sharded.n_parts == num_parts

    # Edge density within 30% of the serial fit.
    ratio = sharded.density / serial_result.graph.density
    assert 0.7 <= ratio <= 1.3

    # Graphical-lasso objective at most 10% worse than the serial fit
    # (one-sided: the extra cross-boundary edges the stitch admits can —
    # and on this case do — *improve* the objective).
    obj_serial = graphical_lasso_objective(serial_result.graph, data.voltages)
    obj_sharded = graphical_lasso_objective(sharded.graph, data.voltages)
    assert obj_sharded <= obj_serial + 0.10 * abs(obj_serial)

    # Resistance correlation with the truth within 0.05 of the serial fit.
    q_serial = quality_metrics(truth, serial_result.graph, data.voltages, seed=0)
    q_sharded = quality_metrics(truth, sharded.graph, data.voltages, seed=0)
    assert (
        q_sharded["resistance_correlation"]
        >= q_serial["resistance_correlation"] - 0.05
    )


# ----------------------------------------------------------------------
# Shard pool: byte-identical to in-process sequential execution
# ----------------------------------------------------------------------
def test_process_pool_byte_identical_to_sequential(small_case):
    _, data = small_case
    sequential = ShardedSGLearner(beta=BETA, num_parts=2, jobs=1).fit(data)
    pooled = ShardedSGLearner(beta=BETA, num_parts=2, jobs=2).fit(data)
    assert _graphs_identical(sequential.graph, pooled.graph)
    assert sequential.scaling_factor == pooled.scaling_factor
    assert sequential.stitch_stats == pooled.stitch_stats
    for a, b in zip(sequential.shard_results, pooled.shard_results):
        assert _graphs_identical(a.graph, b.graph)


# ----------------------------------------------------------------------
# Acceptance sweep: every medium-tier scenario family
# ----------------------------------------------------------------------
MEDIUM_SCENARIOS = sorted(
    name
    for name in list_scenarios()
    if name.endswith("/medium")
)


@pytest.mark.parametrize("name", MEDIUM_SCENARIOS)
def test_medium_tier_resistance_correlation_within_5pct(name):
    """Sharded (4 parts) vs whole-graph on every medium family.

    Both fits run a bounded workload (incremental engine, three
    densification rounds) so the sweep stays test-suite-sized; the
    acceptance bar is the *relative* one from the issue — the sharded fit's
    resistance correlation with the truth must be within 0.05 of the
    whole-graph fit's.
    """
    spec = get_scenario(name)
    truth = spec.build_graph()
    data = spec.build_measurements(truth)
    config = dataclasses.replace(
        spec.make_config(truth.n_nodes),
        max_iterations=3,
    )

    serial = SGLearner(config).fit(data)
    sharded = ShardedSGLearner(config, num_parts=4).fit(data)
    assert sharded.graph.is_connected()

    q_serial = quality_metrics(
        truth, serial.graph, data.voltages, n_pairs=60, seed=spec.seed
    )
    q_sharded = quality_metrics(
        truth, sharded.graph, data.voltages, n_pairs=60, seed=spec.seed
    )
    assert (
        q_sharded["resistance_correlation"]
        >= q_serial["resistance_correlation"] - 0.05
    ), (
        f"{name}: sharded corr {q_sharded['resistance_correlation']:.4f} "
        f"vs serial {q_serial['resistance_correlation']:.4f}"
    )
    # The stitched graph keeps every per-shard spanning tree *plus* the
    # global MST backbone; on geometry-free families (erdos_renyi) those
    # trees overlap little, so allow more density headroom than the small
    # mesh case above.
    density_ratio = q_sharded["density"] / q_serial["density"]
    assert 0.7 <= density_ratio <= 1.5

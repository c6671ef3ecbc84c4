"""Workload definitions for the paper-reproduction experiments.

A workload bundles the ground-truth test case, the measurement count and the
SGL configuration used for one experiment.  The paper's settings (Sec. III-A)
are: M = 50 measurements by default (100 for the per-graph studies), k = 5,
r = 5, beta = 1e-3 and tol = 1e-12.

Because the reproduction's default graphs are smaller than the paper's (a few
thousand nodes instead of 10k-150k; see DESIGN.md), the default edge-sampling
ratio ``beta`` is raised so roughly the same *number of edges per iteration*
is added and runs converge in a comparable number of iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


from repro.core.config import SGLConfig
from repro.graphs.graph import WeightedGraph
from repro.graphs.io.suite import get_test_case
from repro.measurements.generator import MeasurementSet, simulate_measurements

__all__ = ["ExperimentWorkload", "default_workload"]


@dataclass(frozen=True)
class ExperimentWorkload:
    """One experiment's inputs: ground truth, measurements, SGL parameters."""

    name: str
    graph: WeightedGraph
    n_measurements: int = 50
    seed: int = 0
    config: SGLConfig = field(default_factory=SGLConfig)

    def measurements(self, *, noise_level: float = 0.0) -> MeasurementSet:
        """Simulate the workload's measurement set (optionally noisy)."""
        from repro.measurements.noise import add_measurement_noise

        data = simulate_measurements(self.graph, self.n_measurements, seed=self.seed)
        if noise_level > 0:
            data = add_measurement_noise(data, noise_level, seed=self.seed + 1)
        return data

    def with_config(self, **changes) -> "ExperimentWorkload":
        """Return a copy with SGL configuration fields replaced."""
        return replace(self, config=replace(self.config, **changes))

    def with_measurements(self, n_measurements: int) -> "ExperimentWorkload":
        """Return a copy with a different measurement count."""
        return replace(self, n_measurements=n_measurements)


def default_workload(
    test_case: str,
    *,
    scale: str = "small",
    n_measurements: int = 50,
    seed: int = 0,
    knn_backend: str | None = None,
    **config_overrides,
) -> ExperimentWorkload:
    """Build the default workload for one of the paper's test cases.

    Parameters
    ----------
    test_case:
        Name from :func:`repro.graphs.io.list_test_cases` (e.g. ``"airfoil"``).
    scale:
        Generator scale (``"tiny"``, ``"small"``, ``"medium"``, ``"paper"``).
    n_measurements:
        Number of (voltage, current) measurement pairs.
    knn_backend:
        Step-1 search backend (``"auto"``, ``"brute"``, ``"kdtree"`` or
        ``"jl"``); ``None`` keeps the config default.  The
        ``auto`` policy probes the measurement matrix's effective rank
        (:func:`repro.knn.backends.select_backend`): the smooth mesh cases
        stay on the KD-tree at every scale, while high-rank cases like
        ``g2_circuit`` route through the JL-projected backend; pass an
        explicit name to pin a backend for A/B runs.
    config_overrides:
        Extra :class:`~repro.core.SGLConfig` fields.  If ``beta`` is not
        given, it is chosen so that about 10 edges are considered per
        iteration, mirroring the paper's ``beta = 1e-3`` at 10,000 nodes.

    Examples
    --------
    >>> from repro.experiments import default_workload
    >>> workload = default_workload("airfoil", scale="tiny", knn_backend="brute")
    >>> workload.config.knn_backend
    'brute'
    """
    case = get_test_case(test_case, scale)
    graph = case.graph
    if "beta" not in config_overrides:
        config_overrides["beta"] = min(1.0, max(1e-3, 10.0 / max(graph.n_nodes, 1)))
    if knn_backend is not None:
        config_overrides["knn_backend"] = knn_backend
    config = SGLConfig(**config_overrides)
    return ExperimentWorkload(
        name=f"{test_case}[{scale}]",
        graph=graph,
        n_measurements=n_measurements,
        seed=seed,
        config=config,
    )

"""Declarative scenario registry for the benchmark harness.

A *scenario* is a fully specified, seeded, reproducible benchmark input: a
graph family (one of the generators shipped with the library) crossed with a
scale tier, a measurement count and a noise level.  Scenarios are named
``family/tier`` with optional variant suffixes (``+noise0.05``, ``+m25``) and
grouped into *suites*:

``smoke``
    Tiny instances of every family; the whole suite (learner + one baseline)
    finishes in well under two minutes and is run in CI on every PR.
``full``
    Small-tier instances plus noise and sample-count variants — the default
    quality/performance tracking suite.
``scaling``
    One structured and one irregular family swept across tiers, reproducing
    the runtime-scalability axis of the paper's Fig. 11.
``paper``
    The paper's five structural classes at the paper's node counts
    (10k-150k nodes; Table of Sec. III-A).  Long-running and therefore
    opt-in: it is only executed via ``repro.bench run --suite paper``.
``huge``
    Million-node instances (grid / circuit / geometric) beyond the paper's
    scale, intended for the partition-parallel engine
    (``repro.bench run --suite huge --engine sharded --parts N``), plus a
    ~100k-node smoke variant the CI sharded job runs.  Opt-in like
    ``paper``.

The registry is *declarative*: a :class:`ScenarioSpec` stores only JSON-ready
builder parameters, never live graph objects, so specs can be embedded in
benchmark artifacts and rebuilt bit-identically later (see DESIGN.md,
"benchmark harness").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import SGLConfig
from repro.graphs.graph import WeightedGraph
from repro.graphs.generators import (
    airfoil_mesh,
    circuit_grid,
    cracked_plate_mesh,
    erdos_renyi_graph,
    fe_mesh,
    grid_2d,
    grid_3d,
    random_geometric_graph,
    watts_strogatz_graph,
)
from repro.knn.knn_graph import knn_graph
from repro.measurements.generator import MeasurementSet, simulate_measurements
from repro.measurements.noise import add_measurement_noise

__all__ = [
    "ScenarioSpec",
    "FAMILIES",
    "get_scenario",
    "iter_suite",
    "list_scenarios",
    "list_suites",
    "register_scenario",
]


def _knn_point_cloud(
    n_points: int,
    *,
    n_clusters: int = 4,
    dim: int = 3,
    k: int = 6,
    seed: int = 0,
) -> WeightedGraph:
    """kNN graph over a Gaussian-mixture point cloud (the "kNN cloud" family)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(n_clusters, dim))
    assignment = rng.integers(0, n_clusters, size=n_points)
    points = centers[assignment] + rng.standard_normal((n_points, dim))
    return knn_graph(points, k, weight_scheme="gaussian", ensure_connected=True)


#: Graph families available to scenarios: name -> builder(**params).
FAMILIES: dict[str, Callable[..., WeightedGraph]] = {
    "grid_2d": grid_2d,
    "grid_3d": grid_3d,
    "circuit": circuit_grid,
    "airfoil": airfoil_mesh,
    "crack": cracked_plate_mesh,
    "fem": fe_mesh,
    "erdos_renyi": erdos_renyi_graph,
    "watts_strogatz": watts_strogatz_graph,
    "geometric": random_geometric_graph,
    "knn_cloud": _knn_point_cloud,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seeded, reproducible benchmark scenario.

    Attributes
    ----------
    name:
        Unique registry key, e.g. ``"grid_2d/tiny"`` or
        ``"airfoil/small+noise0.05"``.
    family:
        Key into :data:`FAMILIES` selecting the graph builder.
    tier:
        Scale tier label (``tiny`` / ``small`` / ``medium`` / ``paper`` /
        ``huge``; see DESIGN.md).
    params:
        Keyword arguments for the family builder (JSON-ready scalars only).
    n_measurements:
        Number of simulated (voltage, current) measurement pairs.
    noise_level:
        Multiplicative voltage-noise level ``zeta`` (0 = noiseless).
    seed:
        Master seed for measurement simulation (noise uses ``seed + 1``).
    sgl:
        :class:`~repro.core.SGLConfig` field overrides.  When ``beta`` is
        absent it defaults to ``10 / N`` (the same per-iteration edge budget
        rationale as :func:`repro.experiments.default_workload`).
    description:
        One-line human description shown by ``repro.bench list``.
    """

    name: str
    family: str
    tier: str
    params: dict = field(default_factory=dict)
    n_measurements: int = 50
    noise_level: float = 0.0
    seed: int = 0
    sgl: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise KeyError(
                f"unknown graph family {self.family!r}; available: {sorted(FAMILIES)}"
            )
        if self.n_measurements < 1:
            raise ValueError("n_measurements must be at least 1")
        if self.noise_level < 0:
            raise ValueError("noise_level must be non-negative")

    # ------------------------------------------------------------------
    def build_graph(self) -> WeightedGraph:
        """Build the scenario's ground-truth graph (deterministic)."""
        return FAMILIES[self.family](**self.params)

    def build_measurements(self, graph: WeightedGraph | None = None) -> MeasurementSet:
        """Simulate the scenario's measurement set (deterministic)."""
        if graph is None:
            graph = self.build_graph()
        data = simulate_measurements(graph, self.n_measurements, seed=self.seed)
        if self.noise_level > 0:
            data = add_measurement_noise(data, self.noise_level, seed=self.seed + 1)
        return data

    def make_config(self, n_nodes: int) -> SGLConfig:
        """The scenario's SGL configuration (``beta`` defaults to ``10/N``)."""
        overrides = dict(self.sgl)
        if "beta" not in overrides:
            overrides["beta"] = min(1.0, max(1e-3, 10.0 / max(n_nodes, 1)))
        return SGLConfig(**overrides)

    def as_dict(self) -> dict:
        """JSON-ready description embedded in benchmark artifacts."""
        return {
            "name": self.name,
            "family": self.family,
            "tier": self.tier,
            "params": dict(self.params),
            "n_measurements": self.n_measurements,
            "noise_level": self.noise_level,
            "seed": self.seed,
            "sgl": dict(self.sgl),
        }


# ----------------------------------------------------------------------
# Default registry
# ----------------------------------------------------------------------
#: Builder parameters per family and tier (approximate node counts:
#: tiny ~200-350, small ~1.6k-2.5k, medium ~4k-6.5k, paper = the node
#: counts of the paper's five test cases, 10k-150k).
_TIER_PARAMS: dict[str, dict[str, dict]] = {
    "grid_2d": {
        "tiny": {"n_rows": 15},
        "small": {"n_rows": 40},
        "medium": {"n_rows": 70},
        "paper": {"n_rows": 100},
        "huge": {"n_rows": 1024},
    },
    "grid_3d": {
        "tiny": {"nx": 7, "ny": 7, "nz": 5},
        "small": {"nx": 13, "ny": 13, "nz": 10},
        "medium": {"nx": 18, "ny": 18, "nz": 13},
    },
    "circuit": {
        "tiny": {"n_rows": 16, "seed": 4},
        "small": {"n_rows": 40, "seed": 4},
        "medium": {"n_rows": 70, "seed": 4},
        "paper": {"n_rows": 388, "seed": 4},
        "huge": {"n_rows": 1024, "seed": 4},
    },
    "airfoil": {
        "tiny": {"n_points": 260, "seed": 1},
        "small": {"n_points": 1500, "seed": 1},
        "medium": {"n_points": 3000, "seed": 1},
        "paper": {"n_points": 4253, "seed": 1},
    },
    "crack": {
        "tiny": {"n_points": 260, "seed": 2},
        "small": {"n_points": 1600, "seed": 2},
        "medium": {"n_points": 4000, "seed": 2},
        "paper": {"n_points": 10240, "seed": 2},
    },
    "fem": {
        "tiny": {"n_points": 260, "seed": 3},
        "small": {"n_points": 1600, "seed": 3},
        "medium": {"n_points": 4000, "seed": 3},
        "paper": {"n_points": 11143, "seed": 3},
    },
    "erdos_renyi": {
        "tiny": {"n_nodes": 250, "edge_probability": 0.02, "seed": 5},
        "small": {"n_nodes": 1600, "edge_probability": 0.004, "seed": 5},
        "medium": {"n_nodes": 4000, "edge_probability": 0.0016, "seed": 5},
    },
    "watts_strogatz": {
        "tiny": {"n_nodes": 250, "k": 4, "rewire_probability": 0.1, "seed": 6},
        "small": {"n_nodes": 1600, "k": 4, "rewire_probability": 0.1, "seed": 6},
        "medium": {"n_nodes": 4000, "k": 4, "rewire_probability": 0.1, "seed": 6},
    },
    "geometric": {
        "tiny": {"n_nodes": 250, "seed": 7},
        "small": {"n_nodes": 1600, "seed": 7},
        "medium": {"n_nodes": 4000, "seed": 7},
        "huge": {"n_nodes": 1_000_000, "radius": 0.0024, "seed": 7},
    },
    "knn_cloud": {
        "tiny": {"n_points": 250, "seed": 8},
        "small": {"n_points": 1600, "seed": 8},
        "medium": {"n_points": 4000, "seed": 8},
    },
}

_FAMILY_BLURB = {
    "grid_2d": "regular 2-D grid mesh (paper '2D mesh')",
    "grid_3d": "3-D grid mesh (3-D power-delivery network)",
    "circuit": "irregular circuit grid (paper 'G2_circuit' analogue)",
    "airfoil": "airfoil FEM triangulation analogue",
    "crack": "cracked-plate FEM triangulation analogue",
    "fem": "graded FEM triangulation analogue",
    "erdos_renyi": "connected Erdos-Renyi random graph",
    "watts_strogatz": "Watts-Strogatz small-world graph",
    "geometric": "random geometric graph in the unit square",
    "knn_cloud": "kNN graph over a Gaussian-mixture point cloud",
}

_REGISTRY: dict[str, ScenarioSpec] = {}
_SUITES: dict[str, list[str]] = {}


def register_scenario(
    spec: ScenarioSpec,
    *,
    suites: tuple[str, ...] | list[str] = (),
    overwrite: bool = False,
) -> ScenarioSpec:
    """Add a scenario to the registry (and optionally to suites)."""
    if spec.name in _REGISTRY and not overwrite:
        raise KeyError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    for suite in suites:
        members = _SUITES.setdefault(suite, [])
        if spec.name not in members:
            members.append(spec.name)
    return spec


def _populate_default_registry() -> None:
    smoke_families = (
        "grid_2d",
        "grid_3d",
        "circuit",
        "airfoil",
        "erdos_renyi",
        "knn_cloud",
    )
    # Million-node scenarios need a bounded workload: few measurements and a
    # handful of densification rounds.  The per-shard fits of the sharded
    # engine inherit these too.
    huge_sgl = {
        "r": 6,
        "max_iterations": 4,
        "beta": 2e-3,
    }
    for family, tiers in _TIER_PARAMS.items():
        for tier, params in tiers.items():
            suites = []
            if tier == "tiny" and family in smoke_families:
                suites.append("smoke")
            if tier == "small":
                suites.append("full")
            if family in ("grid_2d", "circuit") and tier not in ("paper", "huge"):
                suites.append("scaling")
            if tier == "paper":
                # Opt-in long-running suite at the paper's node counts.
                suites.append("paper")
            if tier == "huge":
                suites.append("huge")
            register_scenario(
                ScenarioSpec(
                    name=f"{family}/{tier}",
                    family=family,
                    tier=tier,
                    params=params,
                    n_measurements=8 if tier == "huge" else 50,
                    sgl=dict(huge_sgl) if tier == "huge" else {},
                    description=f"{_FAMILY_BLURB[family]}, {tier} tier",
                ),
                suites=suites,
            )

    # Variant scenarios: measurement noise and reduced sample counts.
    register_scenario(
        ScenarioSpec(
            name="grid_2d/tiny+noise0.05",
            family="grid_2d",
            tier="tiny",
            params=_TIER_PARAMS["grid_2d"]["tiny"],
            noise_level=0.05,
            description="tiny 2-D grid with 5% multiplicative voltage noise",
        ),
        suites=("smoke",),
    )
    register_scenario(
        ScenarioSpec(
            name="grid_2d/small+noise0.05",
            family="grid_2d",
            tier="small",
            params=_TIER_PARAMS["grid_2d"]["small"],
            noise_level=0.05,
            description="small 2-D grid with 5% multiplicative voltage noise",
        ),
        suites=("full",),
    )
    register_scenario(
        ScenarioSpec(
            name="grid_2d/huge+smoke100k",
            family="grid_2d",
            tier="huge",
            params={"n_rows": 316},
            n_measurements=12,
            sgl=dict(huge_sgl),
            description="~100k-node 2-D grid: the CI-sized sharded-engine smoke",
        ),
        suites=("huge",),
    )
    register_scenario(
        ScenarioSpec(
            name="grid_2d/small+m25",
            family="grid_2d",
            tier="small",
            params=_TIER_PARAMS["grid_2d"]["small"],
            n_measurements=25,
            description="small 2-D grid learned from only 25 measurements",
        ),
        suites=("full",),
    )


_populate_default_registry()


# ----------------------------------------------------------------------
# Lookup API
# ----------------------------------------------------------------------
def list_scenarios(suite: str | None = None) -> list[str]:
    """Registered scenario names, optionally restricted to one suite."""
    if suite is None:
        return sorted(_REGISTRY)
    if suite not in _SUITES:
        raise KeyError(f"unknown suite {suite!r}; available: {list_suites()}")
    return list(_SUITES[suite])


def list_suites() -> list[str]:
    """Names of the registered suites."""
    return sorted(_SUITES)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; see `python -m repro.bench list`"
        ) from None


def iter_suite(suite: str) -> list[ScenarioSpec]:
    """The specs of one suite, in registration order."""
    return [_REGISTRY[name] for name in list_scenarios(suite)]

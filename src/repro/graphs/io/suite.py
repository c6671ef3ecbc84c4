"""Named test-case registry mirroring the paper's benchmark suite.

The paper evaluates SGL on five graphs:

==============  ==========  ==========  =========
Name            |V| (paper) |E| (paper) density
==============  ==========  ==========  =========
``2d_mesh``     10,000      20,000      2.00
``airfoil``     4,253       12,289      2.89
``crack``       10,240      30,380      2.97
``fe_4elt2``    11,143      32,818      2.95
``g2_circuit``  150,102     288,286     1.92
==============  ==========  ==========  =========

The original matrices are SuiteSparse downloads; the registry below maps each
name to the synthetic generator of the same structural class (see DESIGN.md,
"substitutions") at three scales:

* ``tiny``  -- a few hundred nodes, for unit tests,
* ``small`` -- a few thousand nodes, default for examples and benchmarks,
* ``paper`` -- the paper's node count (long-running; provided for users who
  want to push to full scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graphs.graph import WeightedGraph
from repro.graphs.generators import (
    airfoil_mesh,
    circuit_grid,
    cracked_plate_mesh,
    fe_mesh,
    grid_2d,
)

__all__ = ["TestCase", "get_test_case", "list_test_cases", "PAPER_SIZES"]

#: Node / edge counts reported in the paper for each test case.
PAPER_SIZES: dict[str, tuple[int, int]] = {
    "2d_mesh": (10_000, 20_000),
    "airfoil": (4_253, 12_289),
    "crack": (10_240, 30_380),
    "fe_4elt2": (11_143, 32_818),
    "g2_circuit": (150_102, 288_286),
}


@dataclass(frozen=True)
class TestCase:
    """A named benchmark graph with provenance metadata."""

    name: str
    graph: WeightedGraph
    scale: str
    description: str
    paper_nodes: int
    paper_edges: int

    @property
    def density(self) -> float:
        """Density ``|E|/|V|`` of the generated graph."""
        return self.graph.density


def _builders() -> dict[str, dict[str, Callable[[], WeightedGraph]]]:
    return {
        "2d_mesh": {
            "tiny": lambda: grid_2d(15, 15),
            "small": lambda: grid_2d(40, 40),
            "medium": lambda: grid_2d(70, 70),
            "paper": lambda: grid_2d(100, 100),
        },
        "airfoil": {
            "tiny": lambda: airfoil_mesh(260, seed=1),
            "small": lambda: airfoil_mesh(1_500, seed=1),
            "medium": lambda: airfoil_mesh(3_000, seed=1),
            "paper": lambda: airfoil_mesh(4_253, seed=1),
        },
        "crack": {
            "tiny": lambda: cracked_plate_mesh(260, seed=2),
            "small": lambda: cracked_plate_mesh(1_600, seed=2),
            "medium": lambda: cracked_plate_mesh(4_000, seed=2),
            "paper": lambda: cracked_plate_mesh(10_240, seed=2),
        },
        "fe_4elt2": {
            "tiny": lambda: fe_mesh(260, seed=3),
            "small": lambda: fe_mesh(1_600, seed=3),
            "medium": lambda: fe_mesh(4_000, seed=3),
            "paper": lambda: fe_mesh(11_143, seed=3),
        },
        "g2_circuit": {
            "tiny": lambda: circuit_grid(16, 16, seed=4),
            "small": lambda: circuit_grid(40, 40, seed=4),
            "medium": lambda: circuit_grid(80, 80, seed=4),
            "paper": lambda: circuit_grid(388, 388, seed=4),
        },
    }


_DESCRIPTIONS = {
    "2d_mesh": "Regular 2-D grid resistor mesh (paper: '2D mesh').",
    "airfoil": "Airfoil FEM triangulation analogue (paper: 'airfoil').",
    "crack": "Cracked-plate FEM triangulation analogue (paper: 'crack').",
    "fe_4elt2": "Graded FEM triangulation analogue (paper: 'fe_4elt2').",
    "g2_circuit": "Irregular circuit-grid analogue (paper: 'G2_circuit').",
}


def list_test_cases() -> list[str]:
    """Names of the registered paper test cases."""
    return sorted(_builders())


def get_test_case(name: str, scale: str = "small") -> TestCase:
    """Build the named test case at the requested scale.

    Parameters
    ----------
    name:
        One of :func:`list_test_cases` (e.g. ``"airfoil"``).
    scale:
        ``"tiny"``, ``"small"``, ``"medium"`` or ``"paper"``.
    """
    builders = _builders()
    if name not in builders:
        raise KeyError(f"unknown test case {name!r}; available: {list_test_cases()}")
    scales = builders[name]
    if scale not in scales:
        raise KeyError(f"unknown scale {scale!r}; available: {sorted(scales)}")
    paper_nodes, paper_edges = PAPER_SIZES[name]
    return TestCase(
        name=name,
        graph=scales[scale](),
        scale=scale,
        description=_DESCRIPTIONS[name],
        paper_nodes=paper_nodes,
        paper_edges=paper_edges,
    )

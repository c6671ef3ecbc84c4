"""Sparse linear algebra substrate for Laplacian matrices.

The SGL algorithm needs three numerical kernels, all centred on graph
Laplacians (singular, symmetric, diagonally dominant M-matrices):

* solving ``L x = b`` for right-hand sides orthogonal to the all-one vector
  (voltage simulation, Step 5 edge scaling) -- :mod:`repro.linalg.solvers`
  (a grounded sparse LU);
* computing the first few nontrivial Laplacian eigenpairs (Step 2 spectral
  embedding) -- :mod:`repro.linalg.eigen`;
* effective-resistance computations (exact and Johnson-Lindenstrauss
  approximated) -- :mod:`repro.linalg.pseudoinverse`.

:mod:`repro.linalg.coarsening` (heavy-edge matching and Galerkin
contraction) is the substrate of the graph partitioner in
:mod:`repro.partition`.
"""

from repro.linalg.solvers import LaplacianSolver
from repro.linalg.eigen import laplacian_eigenpairs
from repro.linalg.coarsening import (
    CoarseLevel,
    coarsen_graph,
    contract_graph,
    heavy_edge_matching,
)
from repro.linalg.pseudoinverse import (
    effective_resistance,
    effective_resistance_matrix,
    effective_resistances_jl,
    laplacian_pseudoinverse,
)

__all__ = [
    "LaplacianSolver",
    "laplacian_eigenpairs",
    "CoarseLevel",
    "coarsen_graph",
    "contract_graph",
    "heavy_edge_matching",
    "effective_resistance",
    "effective_resistance_matrix",
    "effective_resistances_jl",
    "laplacian_pseudoinverse",
]

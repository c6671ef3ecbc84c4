"""Sparse linear algebra substrate for Laplacian matrices.

The SGL algorithm needs three numerical kernels, all centred on graph
Laplacians (singular, symmetric, diagonally dominant M-matrices):

* solving ``L x = b`` for right-hand sides orthogonal to the all-one vector
  (voltage simulation, Step 5 edge scaling) -- :mod:`repro.linalg.solvers`
  (a grounded sparse LU);
* computing the first few nontrivial Laplacian eigenpairs (Step 2 spectral
  embedding) -- :mod:`repro.linalg.eigen` and the nearly-linear-time
  :mod:`repro.linalg.multilevel` solver built on
  :mod:`repro.linalg.coarsening`;
* effective-resistance computations (exact and Johnson-Lindenstrauss
  approximated) -- :mod:`repro.linalg.pseudoinverse`.

The multilevel solver refines each level with LOBPCG, preconditioned by
:mod:`repro.linalg.preconditioners`.
"""

from repro.linalg.solvers import LaplacianSolver
from repro.linalg.preconditioners import (
    jacobi_preconditioner,
    spanning_tree_preconditioner,
)
from repro.linalg.eigen import laplacian_eigenpairs
from repro.linalg.coarsening import (
    CoarseLevel,
    CoarseningHierarchy,
    coarsen_graph,
    coarsening_hierarchy,
    contract_graph,
    heavy_edge_matching,
)
from repro.linalg.multilevel import MultilevelEigensolver
from repro.linalg.pseudoinverse import (
    effective_resistance,
    effective_resistance_matrix,
    effective_resistances_jl,
    laplacian_pseudoinverse,
)

__all__ = [
    "LaplacianSolver",
    "jacobi_preconditioner",
    "spanning_tree_preconditioner",
    "laplacian_eigenpairs",
    "CoarseLevel",
    "CoarseningHierarchy",
    "coarsen_graph",
    "coarsening_hierarchy",
    "contract_graph",
    "heavy_edge_matching",
    "MultilevelEigensolver",
    "effective_resistance",
    "effective_resistance_matrix",
    "effective_resistances_jl",
    "laplacian_pseudoinverse",
]

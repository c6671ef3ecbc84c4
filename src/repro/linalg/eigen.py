"""Eigensolvers for the smallest nontrivial Laplacian eigenpairs.

Step 2 of the SGL algorithm needs the first ``r`` nontrivial eigenvectors of
the current graph Laplacian.  :func:`laplacian_eigenpairs` provides a single
entry point with two backends:

* ``"dense"``        -- ``numpy.linalg.eigh`` on the full matrix (small N,
  also the reference the other backends are tested against);
* ``"shift-invert"`` -- Lanczos (ARPACK ``eigsh``) on the pseudo-inverse
  ``L^+``, applied through the grounded sparse LU of
  :class:`~repro.linalg.LaplacianSolver`: shift-invert with shift 0 on the
  mean-free subspace, the workhorse for medium/large sparse Laplacians.
  Pass a :class:`~repro.linalg.LaplacianSolver` instead of the graph to run
  the iteration on a factor the caller already holds.

The shift-invert backend has no absolute constant in it: the largest
eigenvalues ``mu = 1 / lambda`` of ``L^+`` are well separated exactly where
the smallest ``lambda`` are, whatever the units of the edge weights, so
scaling ``L`` by any ``c > 0`` scales the eigenvalues by ``c`` and leaves
the eigenvectors and the iteration count alone.

The incremental engine in :mod:`repro.embedding.engine` keeps eigenpair
state across the SGL densification loop with its own inverse-iteration
ladder on one factor per refresh, and falls back to this entry point for
cold solves, handing it that factor.

The trivial eigenpair (eigenvalue 0, constant eigenvector) is dropped by
default, matching the paper's use of ``u_2 ... u_r``.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import WeightedGraph
from repro.linalg.solvers import LaplacianSolver

__all__ = ["laplacian_eigenpairs"]


def _as_laplacian(graph_or_laplacian: WeightedGraph | sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    if isinstance(graph_or_laplacian, WeightedGraph):
        return graph_or_laplacian.laplacian()
    return sp.csr_matrix(graph_or_laplacian)


def _dense_eigenpairs(lap: sp.csr_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eigh(lap.toarray())
    return values[: k], vectors[:, : k]


def _shift_invert_eigenpairs(
    lap: sp.csr_matrix,
    k: int,
    tol: float,
    seed: int | None,
    solver: LaplacianSolver | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest eigenpairs, the exact trivial pair first.

    Lanczos runs on ``L^+`` (largest eigenvalues ``mu = 1 / lambda``), whose
    matvec is one solve with the grounded LU.  ``L^+`` maps into the
    mean-free subspace, so a mean-free start vector keeps every Krylov
    vector orthogonal to the constant one and the trivial pair never enters
    the iteration; it is prepended exactly.  ``solver`` is a factor of
    ``lap`` to reuse, or None to build one.
    """
    n = lap.shape[0]
    values = np.zeros(k)
    # Column-major, like ARPACK's and LAPACK's output: each eigenvector is
    # contiguous, and so is every row-normalised copy callers make of them
    # (k-means over spectral features runs ~1.6x faster on that layout).
    vectors = np.empty((n, k), order="F")
    vectors[:, 0] = 1.0 / np.sqrt(n)
    if k == 1:
        return values, vectors
    if solver is None:
        solver = LaplacianSolver(lap)
    pseudo_inverse = spla.LinearOperator((n, n), matvec=solver.solve, dtype=np.float64)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    v0 -= v0.mean()
    mu, u = spla.eigsh(pseudo_inverse, k=k - 1, which="LA", tol=tol, v0=v0)
    order = np.argsort(mu)[::-1]
    values[1:] = 1.0 / mu[order]
    vectors[:, 1:] = u[:, order]
    return values, vectors


def laplacian_eigenpairs(
    graph_or_laplacian: WeightedGraph | LaplacianSolver | sp.spmatrix | np.ndarray,
    k: int,
    *,
    method: Literal["auto", "dense", "shift-invert"] = "auto",
    drop_trivial: bool = True,
    tol: float = 0.0,
    seed: int | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest Laplacian eigenpairs, ascending.

    Parameters
    ----------
    graph_or_laplacian:
        Graph or sparse/dense Laplacian of a connected graph; the
        shift-invert backend raises :class:`ValueError` for a disconnected
        one.  A :class:`~repro.linalg.LaplacianSolver` stands for its
        Laplacian, and the shift-invert backend iterates on its factor
        instead of factorising again.
    k:
        Number of *nontrivial* eigenpairs requested when ``drop_trivial`` is
        True (the default); otherwise the total number of smallest eigenpairs.
    method:
        Backend; ``"auto"`` picks dense for small problems and shift-invert
        Lanczos otherwise.
    drop_trivial:
        Drop the near-zero eigenvalue and its constant eigenvector, returning
        ``lambda_2 <= ... <= lambda_{k+1}`` and ``u_2 ... u_{k+1}``.
    tol:
        Backend tolerance (0 means backend default / machine precision).
    seed:
        Seed for the shift-invert backend's random starting vector.

    Returns
    -------
    (eigenvalues, eigenvectors):
        ``eigenvalues`` has shape ``(k,)``; ``eigenvectors`` has shape
        ``(N, k)`` with unit-norm columns.

    Examples
    --------
    The path graph on three nodes has Laplacian spectrum ``{0, 1, 3}``; the
    trivial eigenpair is dropped by default:

    >>> import numpy as np
    >>> from repro.graphs.graph import WeightedGraph
    >>> from repro.linalg.eigen import laplacian_eigenpairs
    >>> path = WeightedGraph(3, [0, 1], [1, 2])
    >>> values, vectors = laplacian_eigenpairs(path, 2, method="dense")
    >>> np.round(values, 6).tolist()
    [1.0, 3.0]
    >>> vectors.shape
    (3, 2)
    """
    solver = graph_or_laplacian if isinstance(graph_or_laplacian, LaplacianSolver) else None
    lap = solver.laplacian if solver is not None else _as_laplacian(graph_or_laplacian).tocsr()
    n = lap.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes for nontrivial eigenpairs")
    if k < 1:
        raise ValueError("k must be at least 1")

    n_wanted = k + 1 if drop_trivial else k
    n_wanted = min(n_wanted, n)

    if method == "auto":
        method = "dense" if (n <= 600 or n_wanted >= n - 2) else "shift-invert"

    if method == "dense":
        values, vectors = _dense_eigenpairs(lap, n_wanted)
    elif method == "shift-invert":
        values, vectors = _shift_invert_eigenpairs(lap, n_wanted, tol, seed, solver)
    else:
        raise ValueError(f"unknown method {method!r}")

    if drop_trivial:
        values, vectors = values[1:], vectors[:, 1:]
    return values[:k], vectors[:, :k]

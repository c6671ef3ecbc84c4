"""The shift-invert eigensolver: Lanczos on the grounded pseudo-inverse ``L^+``.

It has no absolute constant in it, so scaling the Laplacian by ``c > 0``
scales the eigenvalues by ``c`` and moves nothing else, and its iteration
count follows the spectrum's shape, not the size of the largest degree.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import repro.linalg.eigen as eigen
from repro.core import SGLearner
from repro.core.instrumentation import StageTimings
from repro.graphs.generators import fe_mesh, grid_2d
from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import laplacian_eigenpairs
from repro.measurements import simulate_measurements


@pytest.fixture(scope="module")
def spread_graph():
    """A grid whose weights span six decades, so no eigenvalue repeats."""
    grid = grid_2d(10, 10)
    rng = np.random.default_rng(0)
    return grid.with_weights(10.0 ** rng.uniform(-3.0, 3.0, grid.n_edges))


def _assert_same_subspace(a: np.ndarray, b: np.ndarray) -> None:
    cosines = np.linalg.svd(a.T @ b, compute_uv=False)
    np.testing.assert_allclose(cosines, 1.0, atol=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponent=st.integers(-100, 100))
def test_scaling_the_laplacian_scales_only_the_eigenvalues(spread_graph, exponent):
    lap = spread_graph.laplacian()
    values, vectors = laplacian_eigenpairs(lap, 4, method="shift-invert")
    scale = 10.0**exponent
    scaled_values, scaled_vectors = laplacian_eigenpairs(scale * lap, 4, method="shift-invert")
    np.testing.assert_allclose(scaled_values, scale * values, rtol=1e-9, atol=0.0)
    _assert_same_subspace(vectors, scaled_vectors)


def test_matches_the_dense_reference(spread_graph):
    dense_values, dense_vectors = laplacian_eigenpairs(spread_graph, 4, method="dense")
    values, vectors = laplacian_eigenpairs(spread_graph, 4, method="shift-invert")
    np.testing.assert_allclose(values, dense_values, rtol=1e-9)
    _assert_same_subspace(vectors, dense_vectors)
    # Column-major, as ARPACK returned them: k-means over row-normalised
    # copies (serving's cluster labels) is markedly slower on row-major ones.
    assert vectors.flags.f_contiguous


def test_keeping_the_trivial_pair_prepends_it_exactly(spread_graph):
    n = spread_graph.n_nodes
    values, vectors = laplacian_eigenpairs(spread_graph, 4, method="shift-invert", drop_trivial=False)
    nontrivial, nontrivial_vectors = laplacian_eigenpairs(spread_graph, 3, method="shift-invert")
    assert values[0] == 0.0
    np.testing.assert_array_equal(vectors[:, 0], np.full(n, 1.0 / np.sqrt(n)))
    np.testing.assert_allclose(values[1:], nontrivial, rtol=1e-12)
    _assert_same_subspace(vectors[:, 1:], nontrivial_vectors)
    only_trivial, constant = laplacian_eigenpairs(spread_graph, 1, method="shift-invert", drop_trivial=False)
    assert only_trivial.tolist() == [0.0] and constant.shape == (n, 1)


def test_disconnected_graph_is_a_named_error():
    two_paths = WeightedGraph(6, [0, 1, 3, 4], [1, 2, 4, 5])
    with pytest.raises(ValueError, match="requires a connected graph"):
        laplacian_eigenpairs(two_paths, 2, method="shift-invert")


class _CountingSpla:
    """``scipy.sparse.linalg`` whose ``eigsh`` counts operator applications.

    Either form of shift-invert is counted: ``eigsh(L, sigma=s)`` gets an
    explicit, counted ``(L - s I)^{-1}``, and ``eigsh(op)`` a counted ``op``.
    """

    def __init__(self) -> None:
        self.applications = 0

    def __getattr__(self, name):
        return getattr(spla, name)

    def _counted(self, apply):
        def matvec(x):
            self.applications += 1
            return apply(x)

        return matvec

    def eigsh(self, operator, k, *, sigma=None, **options):
        n = operator.shape[0]
        if sigma is not None:
            lu = spla.splu(sp.csc_matrix(operator - sigma * sp.identity(n)))
            inverse = spla.LinearOperator((n, n), matvec=self._counted(lu.solve), dtype=np.float64)
            return spla.eigsh(operator, k, sigma=sigma, OPinv=inverse, **options)
        counted = spla.LinearOperator((n, n), matvec=self._counted(operator.matvec), dtype=np.float64)
        return spla.eigsh(counted, k, **options)


def test_wide_weight_spread_does_not_slow_the_cold_solve(monkeypatch):
    """An FEM initial tree's degrees span five decades above its lambda_2.

    A shift of -1e-6 x max degree, far below lambda_2, took 167 operator
    applications on this tree; Lanczos on ``L^+`` takes one restart cycle.
    """
    data = simulate_measurements(fe_mesh(2000, seed=3), 50, seed=0)
    _, tree = SGLearner(beta=0.005)._initial_graphs(data.voltages, StageTimings())
    dense_values, _ = laplacian_eigenpairs(tree, 5, method="dense")
    assert tree.laplacian().diagonal().max() > 1e5 * dense_values[0]
    counting = _CountingSpla()
    monkeypatch.setattr(eigen, "spla", counting)
    values, _ = laplacian_eigenpairs(tree, 5, method="shift-invert", tol=1e-7)
    assert 0 < counting.applications <= 40
    np.testing.assert_allclose(values, dense_values, rtol=1e-6)


def test_removed_solver_paths_are_rejected():
    # LOBPCG cold solves and the CG Laplacian solver are gone.
    from repro.linalg import LaplacianSolver

    with pytest.raises(ValueError, match="unknown method"):
        laplacian_eigenpairs(grid_2d(4, 4), 2, method="lobpcg")
    with pytest.raises(TypeError):
        LaplacianSolver(grid_2d(4, 4), method="cg")

"""Chebyshev-filtered refinement and sketching.

Covers the mixed-precision refinement stack end to end:

* :func:`chebyshev_filter` / :func:`chebyshev_refine` -- filtering accuracy,
  the polynomial-intractable window bypass, residual acceptance semantics;
* the Hutchinson-style stochastic sensitivity estimator;
* the mixed-precision acceptance gates: the chebyshev engine's embedding
  agrees with the stateless reference (subspace angle), and float32 /
  float64 filtering land within 0.01 resistance correlation of each other
  on all five medium scenario families.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from repro.bench.registry import get_scenario
from repro.core.config import SGLConfig
from repro.core.sensitivity import edge_sensitivities
from repro.core.sgl import SGLearner
from repro.embedding import MultilevelEmbeddingEngine, spectral_embedding_matrix
from repro.embedding.spectral import SpectralEmbedding
from repro.graphs.generators import grid_2d
from repro.linalg import MultilevelEigensolver, laplacian_eigenpairs
from repro.linalg.chebyshev import (
    chebyshev_filter,
    chebyshev_refine,
    lanczos_spectral_bound,
)
from repro.metrics.resistance import resistance_correlation


def _near_tree_graph():
    """MST of a weighted grid plus a few off-tree edges (the SGL regime)."""
    rng = np.random.default_rng(0)
    grid = grid_2d(16, 16)
    weighted = grid.with_weights(rng.random(grid.n_edges) + 0.5)
    from repro.knn.mst import maximum_spanning_tree

    tree = maximum_spanning_tree(weighted)
    return tree.add_edges([(0, 255), (17, 200), (40, 120)], [1.0, 1.0, 1.0])


# ----------------------------------------------------------------------
# Chebyshev filter and refinement
# ----------------------------------------------------------------------
def test_lanczos_bound_brackets_lambda_max():
    graph = grid_2d(12, 12)
    exact = float(np.linalg.eigvalsh(graph.laplacian().toarray()).max())
    bound = lanczos_spectral_bound(graph, steps=8, seed=0)
    assert exact <= bound <= 2.0 * exact


def test_chebyshev_filter_amplifies_wanted_modes():
    graph = grid_2d(10, 10)
    lap = graph.laplacian()
    _, exact = laplacian_eigenpairs(graph, 1, method="dense")
    rng = np.random.default_rng(0)
    noisy = exact + 0.2 * rng.standard_normal(exact.shape)
    noisy -= noisy.mean(axis=0)
    bound = lanczos_spectral_bound(graph)

    def cosine(block):
        return abs(exact[:, 0] @ block[:, 0]) / np.linalg.norm(block[:, 0])

    filtered = chebyshev_filter(lap, noisy, 8, 0.5, bound)
    assert cosine(filtered) > cosine(noisy)
    assert cosine(filtered) > 0.98
    # More degrees, more damping of the unwanted interval.
    assert cosine(chebyshev_filter(lap, noisy, 16, 0.5, bound)) > cosine(filtered)


def test_chebyshev_filter_validation():
    graph = grid_2d(5, 5)
    block = np.ones((25, 1))
    with pytest.raises(ValueError, match="degree"):
        chebyshev_filter(graph.laplacian(), block, 0, 0.5, 2.0)
    with pytest.raises(ValueError, match="upper"):
        chebyshev_filter(graph.laplacian(), block, 4, 2.0, 0.5)


def test_chebyshev_refine_accepts_on_mesh_in_float32():
    graph = grid_2d(14, 14)
    exact_vals, exact_vecs = laplacian_eigenpairs(graph, 3, method="dense")
    rng = np.random.default_rng(1)
    start = exact_vecs + 0.05 * rng.standard_normal(exact_vecs.shape)
    outcome = chebyshev_refine(graph, start, 3, steps=2, degree=8)
    assert outcome.accepted and outcome.reason == "ok"
    assert outcome.dtype == "float32"
    assert outcome.residual <= 5e-2
    np.testing.assert_allclose(outcome.eigenvalues, exact_vals, atol=5e-3)


def test_chebyshev_refine_detects_intractable_window_up_front():
    graph = _near_tree_graph()
    _, vecs = laplacian_eigenpairs(graph, 3, method="dense")
    outcome = chebyshev_refine(graph, vecs, 3, steps=2, max_degree=4, degree_headroom=1.0)
    assert not outcome.accepted
    assert outcome.reason == "window"
    # The bypass is decided before any filtering: no spmm cost was paid.
    assert outcome.degree == 0 and outcome.steps == 0
    assert not np.isfinite(outcome.residual)


def test_chebyshev_refine_rejects_on_residual():
    graph = grid_2d(14, 14)
    rng = np.random.default_rng(2)
    start = rng.standard_normal((196, 3))
    outcome = chebyshev_refine(graph, start, 3, steps=1, degree=2, accept_tol=1e-12)
    assert not outcome.accepted
    assert outcome.reason == "residual"
    assert np.isfinite(outcome.residual)


def test_chebyshev_refine_float64_path():
    graph = grid_2d(14, 14)
    exact_vals, exact_vecs = laplacian_eigenpairs(graph, 3, method="dense")
    rng = np.random.default_rng(3)
    start = exact_vecs + 0.05 * rng.standard_normal(exact_vecs.shape)
    outcome = chebyshev_refine(graph, start, 3, steps=2, degree=8, dtype=np.float64)
    assert outcome.accepted and outcome.dtype == "float64"
    np.testing.assert_allclose(outcome.eigenvalues, exact_vals, atol=5e-3)


def test_chebyshev_refine_validation():
    graph = grid_2d(5, 5)
    with pytest.raises(ValueError, match="k"):
        chebyshev_refine(graph, np.ones((25, 2)), 0)
    with pytest.raises(ValueError, match="columns"):
        chebyshev_refine(graph, np.ones((25, 1)), 2)


def test_solver_chebyshev_matches_dense_on_mesh():
    graph = grid_2d(16, 16)
    solver = MultilevelEigensolver(
        coarse_size=32, refinement="chebyshev", refinement_steps=20
    )
    result = solver.solve(graph, 3)
    exact_values, _ = laplacian_eigenpairs(graph, 3, method="dense")
    np.testing.assert_allclose(result.eigenvalues, exact_values, rtol=2e-2)
    assert result.refine_stats["backend"] == "chebyshev"
    assert result.refine_stats.get("accepts", 0) >= 1


def test_solver_chebyshev_bypasses_intractable_spectrum_without_losing_accuracy():
    # A long uniform path: the wanted eigenvalues sit ~6 orders below the
    # spectral bound (the tree-like SGL regime), so the finest levels need
    # a polynomial degree beyond the affordable cap and must bypass.
    n = 2000
    graph = grid_2d(1, n)
    solver = MultilevelEigensolver(
        coarse_size=32,
        refinement="chebyshev",
        preconditioner="spanning-tree",
        refinement_steps=20,
    )
    # Paper-scale budget regime: the per-level degree cap sits at its floor
    # (at 150k nodes the work budget divides down to it), which is what
    # makes the tiny spectral ratio infeasible for any affordable filter.
    solver.CHEBYSHEV_WORK_BUDGET = 0
    result = solver.solve(graph, 2)
    exact_values = 4.0 * np.sin(np.pi * np.arange(1, 3) / (2 * n)) ** 2
    # The refinement must reroute to preconditioned LOBPCG (an explained
    # bypass, not a quality fallback) and still deliver the float64 answer.
    assert result.refine_stats.get("bypasses", 0) >= 1
    assert result.refine_stats.get("fallbacks", 0) == 0
    np.testing.assert_allclose(result.eigenvalues, exact_values, rtol=1e-3)


# ----------------------------------------------------------------------
# Hutchinson sensitivity estimator
# ----------------------------------------------------------------------
def _toy_embedding(coords):
    return SpectralEmbedding(
        eigenvalues=np.ones(coords.shape[1]),
        eigenvectors=coords,
        coordinates=coords,
        sigma_sq=float("inf"),
    )


def test_sketched_sensitivities_exact_when_samples_cover_columns():
    rng = np.random.default_rng(0)
    coords = rng.standard_normal((40, 4))
    voltages = rng.standard_normal((40, 16))
    pairs = np.array([[0, 1], [2, 3], [10, 30]])
    exact = edge_sensitivities(_toy_embedding(coords), voltages, pairs)
    # n_samples >= column count of both matrices: the sketch is the identity.
    full = edge_sensitivities(
        _toy_embedding(coords), voltages, pairs, n_samples=16
    )
    np.testing.assert_array_equal(exact, full)


def test_sketched_sensitivities_concentrate_around_exact():
    rng = np.random.default_rng(1)
    coords = rng.standard_normal((60, 4))
    voltages = rng.standard_normal((60, 256))
    pairs = rng.integers(0, 60, size=(40, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    exact = edge_sensitivities(_toy_embedding(coords), voltages, pairs)
    estimates = np.stack(
        [
            edge_sensitivities(
                _toy_embedding(coords), voltages, pairs, n_samples=64, seed=seed
            )
            for seed in range(20)
        ]
    )
    # Unbiased: the probe average approaches the exact sensitivities.
    np.testing.assert_allclose(estimates.mean(axis=0), exact, atol=1.5)
    # And the estimator preserves the ranking signal it exists to provide.
    corr = np.corrcoef(estimates.mean(axis=0), exact)[0, 1]
    assert corr > 0.95


def test_sketched_sensitivities_validation():
    rng = np.random.default_rng(2)
    coords = rng.standard_normal((10, 3))
    voltages = rng.standard_normal((10, 8))
    with pytest.raises(ValueError, match="n_samples"):
        edge_sensitivities(
            _toy_embedding(coords), voltages, np.array([[0, 1]]), n_samples=0
        )


def test_config_sensitivity_samples_validation():
    assert SGLConfig().sensitivity_samples is None
    assert SGLConfig(sensitivity_samples=32).sensitivity_samples == 32
    with pytest.raises(ValueError, match="sensitivity_samples"):
        SGLConfig(sensitivity_samples=0)


def test_fit_with_stochastic_sensitivities_tracks_exact_path():
    from repro.measurements import simulate_measurements

    truth = grid_2d(12, 12)
    data = simulate_measurements(truth, n_measurements=40, seed=0)
    exact = SGLearner(SGLConfig(beta=0.03)).fit(data)
    sketched = SGLearner(SGLConfig(beta=0.03, sensitivity_samples=32)).fit(data)
    corr_exact = resistance_correlation(truth, exact.graph, n_pairs=200, seed=0)
    corr_sketched = resistance_correlation(truth, sketched.graph, n_pairs=200, seed=0)
    assert abs(corr_exact - corr_sketched) <= 0.05
    assert sketched.density == pytest.approx(exact.density, rel=0.2)


# ----------------------------------------------------------------------
# Mixed-precision acceptance gates
# ----------------------------------------------------------------------
def test_chebyshev_engine_matches_stateless_subspace():
    graph = grid_2d(19, 17)
    engine = MultilevelEmbeddingEngine(r=5, coarse_size=64, refinement="chebyshev")
    cold = engine.refresh(graph)
    # Cold refreshes are seeded with the float64 LOBPCG reference path,
    # so the filter counters stay untouched until the first warm refresh.
    assert engine.stats.chebyshev_accepts == 0
    denser = graph.add_edges([(0, graph.n_nodes - 1)], [1e-3])
    candidate = engine.refresh(denser, added_edges=[(0, graph.n_nodes - 1)])
    reference = spectral_embedding_matrix(denser, 5)
    angles = scipy.linalg.subspace_angles(
        reference.eigenvectors, candidate.eigenvectors
    )
    assert float(np.max(angles)) < 0.15
    np.testing.assert_allclose(
        candidate.eigenvalues, reference.eigenvalues, rtol=5e-2
    )
    # The warm filter must actually have run (mesh spectra are tractable).
    assert engine.stats.chebyshev_accepts >= 1


MEDIUM_FAMILIES = ("grid_2d", "circuit", "airfoil", "crack", "fem")


def _medium_fit_correlation(family: str, refine_dtype: str) -> float:
    spec = get_scenario(f"{family}/medium")
    truth = spec.build_graph()
    data = spec.build_measurements(truth)
    config = dataclasses.replace(
        spec.make_config(truth.n_nodes),
        embedding_engine="multilevel",
        refinement_backend="chebyshev",
        refine_dtype=refine_dtype,
    )
    result = SGLearner(config).fit(data)
    return resistance_correlation(truth, result.graph, n_pairs=120, seed=0)


@pytest.mark.parametrize("family", MEDIUM_FAMILIES)
def test_medium_families_float32_matches_float64_correlation(family):
    low = _medium_fit_correlation(family, "float32")
    high = _medium_fit_correlation(family, "float64")
    assert abs(low - high) <= 0.01, (family, low, high)

"""Cross-engine golden tests: the incremental engine vs the stateless reference.

The stateless reference solves cold on every refresh
(:class:`~repro.embedding.StatelessEmbeddingEngine`).  Two layers of
agreement, on small fixtures where exact references are cheap:

* **Eigenpair agreement** — both engines refresh the same graph and the
  spanned embedding subspaces must agree (principal angles), because the
  SGL sensitivity ranking is a function of that subspace.
* **End-to-end agreement** — full SGL runs under each engine land on graphs
  with matching objective value, resistance correlation and density.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.core.config import SGLConfig
from repro.core.objective import graphical_lasso_objective
from repro.core.sgl import SGLearner
from repro.embedding import EmbeddingEngine, spectral_embedding_matrix
from repro.graphs.generators import grid_2d, random_geometric_graph
from repro.measurements import simulate_measurements
from repro.metrics.resistance import resistance_correlation
from stateless_reference import engine_under_test

ENGINES = ("stateless", "incremental")


def _engine_embedding(name, graph, r):
    if name == "stateless":
        return spectral_embedding_matrix(graph, r)
    return EmbeddingEngine(r).refresh(graph)


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize(
    "graph_factory",
    # A rectangular grid: square grids have degenerate eigenvalues at the
    # block boundary, which makes the r-1 subspace itself ill-defined.
    [lambda: grid_2d(19, 17), lambda: random_geometric_graph(350, seed=3)],
    ids=["grid", "geometric"],
)
def test_engines_agree_on_embedding_subspace(name, graph_factory):
    graph = graph_factory()
    reference = spectral_embedding_matrix(graph, 5)
    candidate = _engine_embedding(name, graph, 5)
    angles = scipy.linalg.subspace_angles(
        reference.eigenvectors, candidate.eigenvectors
    )
    assert float(np.max(angles)) < 0.15
    np.testing.assert_allclose(
        candidate.eigenvalues, reference.eigenvalues, rtol=5e-2
    )


@pytest.mark.parametrize("name", ENGINES[1:])
def test_engines_agree_after_densification_rounds(name):
    """The warm engine tracks the stateless subspace across edge additions."""
    rng = np.random.default_rng(0)
    graph = grid_2d(16, 16)
    engine = EmbeddingEngine(4)
    engine.refresh(graph)
    for _ in range(6):
        existing = graph.edge_set()
        batch = []
        while len(batch) < 6:
            s, t = (int(v) for v in rng.integers(0, graph.n_nodes, size=2))
            key = (min(s, t), max(s, t))
            if s != t and key not in existing:
                existing.add(key)
                batch.append(key)
        graph = graph.add_edges(np.array(batch), rng.random(len(batch)) + 0.5)
        warm = engine.refresh(graph, added_edges=np.array(batch))
    reference = spectral_embedding_matrix(graph, 4)
    angles = scipy.linalg.subspace_angles(reference.eigenvectors, warm.eigenvectors)
    assert float(np.max(angles)) < 0.2
    pairs = rng.integers(0, graph.n_nodes, size=(250, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    warm_d = warm.pair_distances_squared(pairs)
    ref_d = reference.pair_distances_squared(pairs)
    assert np.corrcoef(warm_d, ref_d)[0, 1] >= 0.98


@pytest.fixture(scope="module")
def fixture_problem():
    truth = grid_2d(14, 14)
    data = simulate_measurements(truth, n_measurements=40, seed=0)
    return truth, data


@pytest.fixture(scope="module")
def engine_results(fixture_problem):
    truth, data = fixture_problem
    results = {}
    for name in ENGINES:
        with engine_under_test(name):
            results[name] = SGLearner(SGLConfig(beta=0.02)).fit(data)
    return results


def test_end_to_end_objective_agreement(fixture_problem, engine_results):
    truth, data = fixture_problem
    objectives = {
        name: graphical_lasso_objective(res.graph, data.voltages, n_eigenvalues=30)
        for name, res in engine_results.items()
    }
    reference = objectives["stateless"]
    for name, value in objectives.items():
        assert value == pytest.approx(reference, rel=0.02), (name, objectives)


def test_end_to_end_correlation_and_density_agreement(fixture_problem, engine_results):
    truth, data = fixture_problem
    correlations = {
        name: resistance_correlation(truth, res.graph, n_pairs=200, seed=0)
        for name, res in engine_results.items()
    }
    reference = correlations["stateless"]
    for name, corr in correlations.items():
        assert abs(corr - reference) <= 0.02, (name, correlations)
    densities = {name: res.density for name, res in engine_results.items()}
    for name, density in densities.items():
        assert density == pytest.approx(densities["stateless"], rel=0.05), densities


def test_end_to_end_engine_stats_shapes(engine_results):
    assert engine_results["stateless"].engine_stats is None
    incremental = engine_results["incremental"].engine_stats
    assert incremental["refreshes"] == incremental["cold_solves"] + (
        incremental["warm_rayleigh_ritz"] + incremental["warm_inverse"]
    )

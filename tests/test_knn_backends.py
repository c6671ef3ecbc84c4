"""Tests for the pluggable kNN search backends (repro.knn.backends).

Covers the contract promised by the backend subsystem:

* blocked-BLAS brute force is *bit-identical* to the KD-tree (edges and
  distances) at any feature dimension;
* the JL-projected mode reaches >= 0.99 recall@k on seeded measurement
  fixtures and falls back to exact search when the features are already
  narrower than the sketch;
* the ``auto`` policy picks the documented backend per (N, M);
* the backend knob threads through SGLConfig, the experiment workloads and
  the bench CLI (including ``--profile``).
"""

import dataclasses
import json
import pstats

import numpy as np
import pytest

from repro.bench import get_scenario, list_scenarios, load_artifact
from repro.bench.cli import main as bench_main
from repro.core.config import SGLConfig
from repro.core.sgl import SGLearner
from repro.experiments import default_workload
from repro.knn import (
    BruteForceIndex,
    JLIndex,
    KDTreeIndex,
    build_index,
    effective_rank,
    knn_edges,
    knn_graph,
    select_backend,
    sketch_dimension,
)


@pytest.fixture(scope="module")
def low_dim_features():
    return np.random.default_rng(42).standard_normal((120, 8))


@pytest.fixture(scope="module")
def high_dim_features():
    return np.random.default_rng(7).standard_normal((250, 50))


# ----------------------------------------------------------------------
# Brute force vs KD-tree equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(120, 8), (90, 4), (150, 17), (250, 50)])
def test_brute_bit_identical_to_kdtree(shape):
    features = np.random.default_rng(hash(shape) % 2**32).standard_normal(shape)
    kd_edges, kd_dists = knn_edges(features, 5, backend="kdtree")
    bf_edges, bf_dists = knn_edges(features, 5, backend="brute")
    assert np.array_equal(kd_edges, bf_edges)
    assert np.array_equal(kd_dists, bf_dists)  # bit-identical, not approx


def test_brute_knn_graph_equals_kdtree_graph(high_dim_features):
    kd = knn_graph(high_dim_features, 5, backend="kdtree")
    bf = knn_graph(high_dim_features, 5, backend="brute")
    assert kd == bf


def test_brute_complete_graph_when_k_is_n_minus_1(low_dim_features):
    n = low_dim_features.shape[0]
    graph = knn_graph(low_dim_features, n - 1, backend="brute", ensure_connected=False)
    assert graph.n_edges == n * (n - 1) // 2


def test_brute_duplicate_tie_groups_are_deterministic():
    # A tie group wider than k + rerank pad (12 exact duplicates, k=6)
    # straddles the candidate boundary: the index must widen to the full
    # tie group and break ties by lowest index, deterministically.
    rng = np.random.default_rng(5)
    base = rng.standard_normal((20, 8))
    features = np.vstack([base, np.tile(base[0], (12, 1))])
    index = BruteForceIndex(features)
    distances, indices = index.query(features, k=6)
    # Query 0 is duplicated at rows 20..31: all distance 0, lowest indices.
    assert np.allclose(distances[0], 0.0)
    assert indices[0].tolist() == [0, 20, 21, 22, 23, 24]
    # Per-row sorted distances still match the KD-tree bit for bit (the
    # neighbour choice inside a tie group is the only freedom).
    kd_distances, _ = KDTreeIndex(features).query(features, k=6)
    assert np.array_equal(distances, kd_distances)
    repeat_d, repeat_i = BruteForceIndex(features).query(features, k=6)
    assert np.array_equal(repeat_i, indices) and np.array_equal(repeat_d, distances)


def test_brute_small_blocks_match_single_block(high_dim_features):
    whole = BruteForceIndex(high_dim_features)
    tiled = BruteForceIndex(high_dim_features, block_bytes=4096)
    d1, i1 = whole.query(high_dim_features, k=4)
    d2, i2 = tiled.query(high_dim_features, k=4)
    assert np.array_equal(i1, i2)
    assert np.array_equal(d1, d2)


# ----------------------------------------------------------------------
# JL-projected mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ["grid_2d/tiny", "grid_2d/small"])
def test_jl_recall_on_measurement_fixtures(scenario):
    spec = get_scenario(scenario)
    voltages = spec.build_measurements().voltages
    n = voltages.shape[0]
    k = 6
    _, exact = BruteForceIndex(voltages).query(voltages, k)
    index = JLIndex(voltages, oversample=16, seed=0)
    assert index.sketched
    _, approx = index.query(voltages, k)
    hits = sum(
        len(set(exact[row]) & set(approx[row])) for row in range(n)
    )
    assert hits / (n * k) >= 0.99


def test_jl_falls_back_to_exact_when_features_narrow(low_dim_features):
    narrow = low_dim_features[:, :4]
    index = JLIndex(narrow, seed=0)
    assert not index.sketched
    d_jl, i_jl = index.query(narrow, k=5)
    d_kd, i_kd = KDTreeIndex(narrow).query(narrow, k=5)
    assert np.array_equal(i_jl, i_kd)
    assert np.array_equal(d_jl, d_kd)


def test_jl_returns_exact_distances(high_dim_features):
    distances, indices = JLIndex(high_dim_features, seed=0).query(
        high_dim_features, k=4
    )
    recomputed = np.linalg.norm(
        high_dim_features[indices] - high_dim_features[:, None, :], axis=-1
    )
    assert np.allclose(distances, recomputed, rtol=0, atol=1e-12)
    assert (np.diff(distances, axis=1) >= 0).all()  # sorted ascending


def test_jl_search_features_expose_sketch(high_dim_features):
    index = JLIndex(high_dim_features, seed=0)
    assert index.search_features.shape == (
        high_dim_features.shape[0],
        index.sketch_dim,
    )
    # The shared tree is over the sketch, so connectivity repair can reuse it.
    assert index.kdtree is not None
    assert index.kdtree.n == high_dim_features.shape[0]
    assert KDTreeIndex(high_dim_features).kdtree.m == high_dim_features.shape[1]
    assert BruteForceIndex(high_dim_features).search_features.shape == (
        high_dim_features.shape
    )


def test_knn_graph_rejects_non_positive_callable_weights(low_dim_features):
    with pytest.raises(ValueError, match="strictly positive"):
        knn_graph(low_dim_features, 4, weight_scheme=lambda d: np.zeros_like(d))


# ----------------------------------------------------------------------
# auto policy + factory
# ----------------------------------------------------------------------
def test_select_backend_shape_policy():
    assert select_backend(10_000, 3) == "kdtree"
    assert select_backend(500, 50) == "brute"
    assert select_backend(5_000, 50) == "jl"


def test_select_backend_rank_probe_keeps_low_rank_on_kdtree():
    rng = np.random.default_rng(0)
    smooth = rng.standard_normal((5_000, 3)) @ rng.standard_normal((3, 50))
    noisy = rng.standard_normal((5_000, 50))
    assert select_backend(5_000, 50, smooth) == "kdtree"
    assert select_backend(5_000, 50, noisy) == "jl"
    assert select_backend(500, 50, noisy) == "brute"


def test_effective_rank_bounds():
    rng = np.random.default_rng(1)
    rank_one = np.outer(rng.standard_normal(300), rng.standard_normal(30))
    assert effective_rank(rank_one) == pytest.approx(1.0, abs=0.01)
    iso = rng.standard_normal((2_000, 30))
    assert 20 < effective_rank(iso) <= 30
    # subsampling keeps the probe deterministic
    assert effective_rank(iso) == effective_rank(iso)


def test_sketch_dimension_is_logarithmic_and_clamped():
    assert sketch_dimension(4) == 6  # lower clamp
    assert sketch_dimension(5_000) == 8
    assert sketch_dimension(150_000) == 12
    assert sketch_dimension(2**40) <= 15  # upper clamp at KDTREE_MAX_DIM


def test_build_index_auto_dispatch(low_dim_features, high_dim_features):
    assert isinstance(build_index(low_dim_features, "auto"), KDTreeIndex)
    assert isinstance(build_index(high_dim_features, "auto"), BruteForceIndex)
    big = np.random.default_rng(0).standard_normal((2100, 20))
    assert isinstance(build_index(big, "auto"), JLIndex)


def test_build_index_drops_seed_for_seedless_backend(low_dim_features):
    # seedless backends silently drop the threaded seed
    assert isinstance(build_index(low_dim_features, "kdtree", seed=3), KDTreeIndex)


def test_build_index_rejects_unknown_backend(low_dim_features):
    for backend in ("bogus", "nsw"):
        with pytest.raises(ValueError, match="unknown kNN backend"):
            build_index(low_dim_features, backend)


# ----------------------------------------------------------------------
# Threading through config / learner / workloads
# ----------------------------------------------------------------------
def test_config_validates_knn_backend():
    assert SGLConfig(knn_backend="jl").knn_backend == "jl"
    for removed in ("bogus", "nsw"):
        with pytest.raises(ValueError, match="knn_backend"):
            SGLConfig(knn_backend=removed)


def test_learner_backends_agree_on_learned_graph():
    spec = get_scenario("grid_2d/tiny")
    data = spec.build_measurements()
    config = spec.make_config(data.n_nodes)
    results = {
        backend: SGLearner(dataclasses.replace(config, knn_backend=backend)).fit(data)
        for backend in ("kdtree", "brute")
    }
    # Exact backends must lead to the exact same learned graph.
    assert results["kdtree"].graph == results["brute"].graph
    for result in results.values():
        assert result.graph.is_connected()


def test_default_workload_threads_knn_backend():
    workload = default_workload("airfoil", scale="tiny", knn_backend="brute")
    assert workload.config.knn_backend == "brute"
    default = default_workload("airfoil", scale="tiny")
    assert default.config.knn_backend == "auto"


# ----------------------------------------------------------------------
# Paper suite + CLI
# ----------------------------------------------------------------------
def test_paper_suite_covers_all_five_classes_and_is_opt_in():
    names = list_scenarios("paper")
    assert sorted(names) == [
        "airfoil/paper",
        "circuit/paper",
        "crack/paper",
        "fem/paper",
        "grid_2d/paper",
    ]
    for name in names:
        assert get_scenario(name).tier == "paper"
        # opt-in: paper scenarios ride in no always-on suite
        for suite in ("smoke", "full", "scaling"):
            assert name not in list_scenarios(suite)


def test_paper_tier_matches_paper_node_counts():
    from repro.graphs.io.suite import PAPER_SIZES

    spec = get_scenario("grid_2d/paper")
    assert spec.build_graph().n_nodes == PAPER_SIZES["2d_mesh"][0]


def test_cli_knn_backend_and_profile(tmp_path):
    out = tmp_path / "BENCH_unit.json"
    code = bench_main(
        [
            "run",
            "--scenario",
            "grid_2d/tiny",
            "--out",
            str(out),
            "--baselines",
            "none",
            "--no-memory",
            "--knn-backend",
            "brute",
            "--profile",
        ]
    )
    assert code == 0
    artifact = load_artifact(out)
    assert artifact["run_config"]["knn_backend"] == "brute"
    (record,) = artifact["results"]
    assert record["info"]["knn_backend"] == "brute"
    profile_file = record["info"]["profile"]
    assert profile_file is not None
    stats = pstats.Stats(profile_file)
    functions = {entry[2] for entry in stats.stats}
    assert "fit" in functions


def test_cli_rejects_unknown_knn_backend(tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_main(
            [
                "run",
                "--scenario",
                "grid_2d/tiny",
                "--out",
                str(tmp_path / "x.json"),
                "--knn-backend",
                "bogus",
            ]
        )

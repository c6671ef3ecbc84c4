"""Tests for repro.serve: sessions, the resistance oracle, micro-batching,
the LRU service, the TCP front end and the repro-serve CLI."""

import asyncio
import json
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from repro.artifacts import save_artifact, save_result
from repro.core.config import SGLConfig
from repro.core.sgl import learn_graph
from repro.graphs.generators import grid_2d
from repro.graphs.graph import WeightedGraph
from repro.linalg.solvers import LaplacianSolver
from repro.linalg.pseudoinverse import effective_resistance
from repro.measurements.generator import simulate_measurements
from repro.metrics.resistance import sample_node_pairs
from repro.serve import (
    GraphService,
    GraphSession,
    MicroBatcher,
    ResistanceOracle,
    ShardedGraphSession,
    serve_forever,
)
from repro.serve.cli import main as serve_main
from repro.serve.service import ServiceClosedError, jsonable


@pytest.fixture(scope="module")
def learned():
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=0)
    return learn_graph(data, beta=0.05)


@pytest.fixture(scope="module")
def artifact_path(learned, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    save_result(learned, path)
    return path


# ----------------------------------------------------------------------
class TestResistanceOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_on_tree_plus_random_edges(self, seed):
        # A random tree plus a handful of random off-tree edges — exactly
        # the structure SGL emits, with weights spanning two decades.
        rng = np.random.default_rng(seed)
        n = 120
        rows = list(range(1, n))
        cols = [int(rng.integers(0, i)) for i in range(1, n)]
        extra = rng.choice(n, size=(12, 2), replace=True)
        extra = extra[extra[:, 0] != extra[:, 1]]
        graph = WeightedGraph(
            n,
            np.concatenate([rows, extra[:, 0]]),
            np.concatenate([cols, extra[:, 1]]),
            rng.uniform(0.1, 10.0, len(rows) + extra.shape[0]),
        )
        assert ResistanceOracle.eligible(graph)
        oracle = ResistanceOracle(graph)
        assert oracle.n_off_tree > 0
        pairs = sample_node_pairs(graph.n_nodes, 150, seed=seed)
        expected = effective_resistance(graph, pairs)
        np.testing.assert_allclose(oracle.query(pairs), expected, rtol=1e-8)

    def test_exact_on_pure_tree(self):
        rng = np.random.default_rng(5)
        parents = [rng.integers(0, i) for i in range(1, 40)]
        tree = WeightedGraph(
            40, list(range(1, 40)), parents, rng.uniform(0.5, 2.0, 39)
        )
        oracle = ResistanceOracle(tree)
        assert oracle.n_off_tree == 0
        pairs = sample_node_pairs(40, 100, seed=0)
        np.testing.assert_allclose(
            oracle.query(pairs), effective_resistance(tree, pairs), rtol=1e-9
        )

    def test_tree_resistance_is_path_sum(self):
        path = WeightedGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 0.5, 0.25])
        oracle = ResistanceOracle(path)
        np.testing.assert_allclose(
            oracle.query([(0, 3), (1, 2), (2, 2)]), [1 + 2 + 4, 2.0, 0.0]
        )

    def test_self_pairs_are_zero(self):
        oracle = ResistanceOracle(grid_2d(4, 4))
        assert oracle.query([(3, 3), (0, 0)]).tolist() == [0.0, 0.0]

    def test_rejects_out_of_range(self):
        oracle = ResistanceOracle(grid_2d(3, 3))
        with pytest.raises(ValueError, match="out of range"):
            oracle.query([(0, 9)])

    def test_rejects_disconnected(self):
        graph = WeightedGraph(4, [0, 2], [1, 3])
        with pytest.raises(ValueError, match="connected"):
            ResistanceOracle(graph)

    def test_accurate_across_a_wide_weight_range(self):
        # Learned conductances can span 1e8.  A chain alternating strong
        # (1e6) and weak (1e-2) edges, closed by weaker off-tree edges:
        # factorising the tree Laplacian, or subtracting long root
        # potentials, loses ~1e-8 to 1e-7 relative here.  The answers are
        # checked against exact rational arithmetic.
        from fractions import Fraction

        n = 40
        extra = [(0, 20), (5, 33), (12, 39), (3, 27)]
        graph = WeightedGraph(
            n,
            list(range(n - 1)) + [s for s, _ in extra],
            list(range(1, n)) + [t for _, t in extra],
            [1e6 if i % 2 else 1e-2 for i in range(n - 1)] + [1e-3] * len(extra),
        )
        pairs = [(1, 2), (10, 11), (20, 21), (7, 30), (2, 3), (33, 34), (0, 39)]

        # Grounded Laplacian (node 0 removed) with one +-1 column per pair,
        # eliminated exactly.
        size = n - 1
        rows = [[Fraction(0)] * (size + len(pairs)) for _ in range(size)]
        for s, t, w in zip(graph.rows.tolist(), graph.cols.tolist(), graph.weights.tolist()):
            w = Fraction(w)
            for a, b in ((s, t), (t, s)):
                if a:
                    rows[a - 1][a - 1] += w
                    if b:
                        rows[a - 1][b - 1] -= w
        for col, (s, t) in enumerate(pairs):
            if s:
                rows[s - 1][size + col] += 1
            if t:
                rows[t - 1][size + col] -= 1
        for k in range(size):
            for i in range(k + 1, size):
                if rows[i][k]:
                    f = rows[i][k] / rows[k][k]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        volts = [[Fraction(0)] * len(pairs) for _ in range(n)]
        for i in range(size - 1, -1, -1):
            for col in range(len(pairs)):
                acc = rows[i][size + col] - sum(
                    rows[i][j] * volts[j + 1][col] for j in range(i + 1, size)
                )
                volts[i + 1][col] = acc / rows[i][i]
        exact = [float(volts[s][c] - volts[t][c]) for c, (s, t) in enumerate(pairs)]

        got = ResistanceOracle(graph).query(pairs)
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0)

    def test_eligibility_dense_graph(self):
        dense = WeightedGraph.from_adjacency(
            np.ones((40, 40)) - np.eye(40)
        )
        assert not ResistanceOracle.eligible(dense)


# ----------------------------------------------------------------------
class TestGraphSession:
    def test_resistance_matches_per_pair_solves(self, learned, artifact_path):
        session = GraphSession.from_file(artifact_path)
        assert session.resistance_engine == "woodbury"
        pairs = sample_node_pairs(session.n_nodes, 100, seed=2)
        expected = effective_resistance(learned.graph, pairs)
        np.testing.assert_allclose(
            session.effective_resistance(pairs), expected, rtol=1e-8
        )

    def test_grouped_engine_matches(self, learned, artifact_path):
        session = GraphSession.from_file(
            artifact_path, resistance_engine="grouped", resistance_block=16
        )
        assert session.resistance_engine == "grouped"
        pairs = sample_node_pairs(session.n_nodes, 50, seed=3)
        expected = effective_resistance(learned.graph, pairs)
        np.testing.assert_allclose(
            session.effective_resistance(pairs), expected, rtol=1e-10
        )

    def test_woodbury_engine_forced_on_ineligible_graph_raises(self, tmp_path):
        dense = WeightedGraph.from_adjacency(np.ones((30, 30)) - np.eye(30))
        path = save_artifact(dense, SGLConfig(), tmp_path / "dense.npz")
        with pytest.raises(ValueError, match="tree-like"):
            GraphSession.from_file(path, resistance_engine="woodbury")
        session = GraphSession.from_file(path)  # auto falls back
        assert session.resistance_engine == "grouped"

    def test_invalid_engine_name(self, artifact_path):
        with pytest.raises(ValueError, match="resistance_engine"):
            GraphSession.from_file(artifact_path, resistance_engine="nope")

    def test_nearest_neighbors_contract(self, artifact_path):
        session = GraphSession.from_file(artifact_path)
        distances, indices = session.nearest_neighbors([0, 5, 48], k=4)
        assert distances.shape == (3, 4) and indices.shape == (3, 4)
        for row, node in zip(indices, [0, 5, 48]):
            assert node not in row  # self excluded
        assert np.all(np.diff(distances, axis=1) >= -1e-12)

    def test_nearest_nodes_free_vectors(self, artifact_path):
        session = GraphSession.from_file(artifact_path)
        query = session.artifact.embedding[:2]
        distances, indices = session.nearest_nodes(query, k=1)
        assert indices.ravel().tolist() == [0, 1]
        np.testing.assert_allclose(distances.ravel(), 0.0, atol=1e-12)

    def test_neighbors_require_embedding(self, learned, tmp_path):
        path = tmp_path / "noemb.npz"
        save_result(learned, path, include_embedding=False)
        session = GraphSession.from_file(path)
        with pytest.raises(ValueError, match="without an embedding"):
            session.nearest_neighbors([0])
        # Resistance queries still work.
        assert session.effective_resistance([(0, 1)])[0] > 0

    def test_cluster_labels_cached_and_consistent(self, artifact_path):
        session = GraphSession.from_file(artifact_path)
        full = session.cluster_labels(n_clusters=4)
        assert full.shape == (session.n_nodes,)
        assert set(np.unique(full)) <= set(range(4))
        subset = session.cluster_labels([3, 7, 11], n_clusters=4)
        assert subset.tolist() == full[[3, 7, 11]].tolist()
        assert session.stats()["cluster_cache"] == [4]

    def test_node_range_checks(self, artifact_path):
        session = GraphSession.from_file(artifact_path)
        with pytest.raises(ValueError, match="out of range"):
            session.nearest_neighbors([999])
        with pytest.raises(ValueError, match="out of range"):
            session.cluster_labels([999])

    def test_stats_counters(self, artifact_path):
        session = GraphSession.from_file(artifact_path)
        session.effective_resistance([(0, 1), (2, 3)])
        session.nearest_neighbors([0], k=2)
        stats = session.stats()
        assert stats["queries"]["resistance"] == 2
        assert stats["queries"]["neighbors"] == 1
        assert stats["n_nodes"] == 49


# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_coalesces_concurrent_requests(self):
        calls = []

        def handler(key, payloads):
            calls.append(list(payloads))
            return [p * 10 for p in payloads]

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=4, max_delay_s=0.01)
            return await asyncio.gather(*(batcher.submit("k", i) for i in range(10)))

        results = asyncio.run(run())
        assert results == [i * 10 for i in range(10)]
        assert all(len(call) <= 4 for call in calls)
        assert len(calls) <= 4  # 10 requests in at most ceil(10/4)+1 batches

    def test_distinct_keys_do_not_share_batches(self):
        seen = []

        def handler(key, payloads):
            seen.append((key, len(payloads)))
            return payloads

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=8, max_delay_s=0.005)
            return await asyncio.gather(
                batcher.submit("a", 1), batcher.submit("b", 2), batcher.submit("a", 3)
            )

        assert asyncio.run(run()) == [1, 2, 3]
        assert sorted(key for key, _ in seen) == ["a", "b"]

    def test_deadline_flush(self):
        def handler(key, payloads):
            return payloads

        async def run():
            # adaptive=False: the classic batcher, where a lone request
            # always waits out the deadline (adaptive mode would flush it
            # on the next tick because a worker is idle).
            batcher = MicroBatcher(
                handler, max_batch_size=1000, max_delay_s=0.002, adaptive=False
            )
            result = await batcher.submit("k", 42)  # alone: must flush on deadline
            return result, batcher.stats.n_deadline_flushes

        result, deadline_flushes = asyncio.run(run())
        assert result == 42 and deadline_flushes == 1

    def test_handler_errors_propagate_to_waiters(self):
        def handler(key, payloads):
            raise RuntimeError("boom")

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=2, max_delay_s=0.001)
            return await asyncio.gather(
                batcher.submit("k", 1), batcher.submit("k", 2),
                return_exceptions=True,
            )

        results = asyncio.run(run())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_result_count_mismatch_detected(self):
        def handler(key, payloads):
            return payloads[:-1]

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=2, max_delay_s=0.001)
            return await asyncio.gather(
                batcher.submit("k", 1), batcher.submit("k", 2),
                return_exceptions=True,
            )

        results = asyncio.run(run())
        assert any("results" in str(r) for r in results)

    def test_stats_accounting(self):
        def handler(key, payloads):
            return payloads

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=5, max_delay_s=0.005)
            await asyncio.gather(*(batcher.submit("k", i) for i in range(5)))
            await batcher.drain()
            return batcher.stats

        stats = asyncio.run(run())
        assert stats.n_requests == 5
        assert stats.n_full_flushes >= 1
        assert stats.max_batch_size == 5
        summary = stats.as_dict()
        assert summary["mean_batch_size"] == pytest.approx(5.0)
        assert "p50_ms" in summary and summary["p99_ms"] >= summary["p50_ms"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda k, p: p, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda k, p: p, max_delay_s=-1)
        with pytest.raises(ValueError):
            MicroBatcher(lambda k, p: p, concurrency=0)

    def test_adaptive_flush_skips_deadline_when_idle(self):
        # The adaptive flusher must answer a lone request on the next loop
        # tick — if it waited out the (absurd) deadline this test would
        # take minutes instead of milliseconds.
        def handler(key, payloads):
            return payloads

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=1000, max_delay_s=60.0)
            start = time.perf_counter()
            result = await batcher.submit("k", 42)
            return result, time.perf_counter() - start, batcher.stats

        result, elapsed, stats = asyncio.run(run())
        assert result == 42
        assert elapsed < 5.0  # loop-tick scale, nowhere near the 60 s deadline
        assert stats.n_idle_flushes == 1 and stats.n_deadline_flushes == 0

    def test_adaptive_kick_flushes_waiters_when_worker_frees(self):
        # With one worker slot busy, the next bucket arms the deadline — but
        # the finishing batch must kick it out immediately instead of letting
        # it wait out the (absurd) 60 s deadline.
        release = threading.Event()
        calls = []

        def handler(key, payloads):
            calls.append(list(payloads))
            if payloads == [1]:
                release.wait(timeout=10)
            return payloads

        async def run():
            batcher = MicroBatcher(
                handler, max_batch_size=1000, max_delay_s=60.0, concurrency=1
            )
            first = batcher.submit_nowait("k", 1)   # flushes; occupies the slot
            await asyncio.sleep(0.05)               # let the batch start
            second = batcher.submit_nowait("k", 2)  # saturated: deadline armed
            await asyncio.sleep(0.05)
            assert not second.done()
            release.set()
            start = time.perf_counter()
            results = await asyncio.gather(first, second)
            return results, time.perf_counter() - start, batcher.stats

        results, elapsed, stats = asyncio.run(run())
        assert results == [1, 2]
        assert elapsed < 5.0  # kicked by the freed worker, not the deadline
        assert calls == [[1], [2]]
        assert stats.n_deadline_flushes == 0

    def test_shutdown_fails_pending_requests(self):
        def handler(key, payloads):
            return payloads

        async def run():
            batcher = MicroBatcher(
                handler, max_batch_size=1000, max_delay_s=60.0, adaptive=False
            )
            future = batcher.submit_nowait("k", 1)
            failed = batcher.shutdown(RuntimeError("going away"))
            with pytest.raises(RuntimeError, match="going away"):
                await future
            return failed, batcher.metrics.snapshot()["counters"]

        failed, counters = asyncio.run(run())
        assert failed == 1
        assert counters["batcher.errors"] == 1
        assert counters["batcher.failed_requests"] == 1

    def test_handler_errors_are_counted(self):
        def handler(key, payloads):
            raise RuntimeError("boom")

        async def run():
            batcher = MicroBatcher(handler, max_batch_size=2, max_delay_s=0.001)
            await asyncio.gather(
                batcher.submit("k", 1), batcher.submit("k", 2),
                return_exceptions=True,
            )
            return batcher.metrics.snapshot()["counters"]

        counters = asyncio.run(run())
        assert counters["batcher.errors"] == 1
        assert counters["batcher.failed_requests"] == 2


# ----------------------------------------------------------------------
class TestGraphService:
    def test_query_kinds_end_to_end(self, learned, artifact_path):
        service = GraphService(max_batch_size=8, max_delay_s=0.002)
        pairs = sample_node_pairs(learned.graph.n_nodes, 30, seed=4)
        expected = effective_resistance(learned.graph, pairs)

        async def run():
            resistances = await asyncio.gather(
                *(
                    service.query(artifact_path, "resistance", tuple(pair))
                    for pair in pairs
                )
            )
            neighbors = await service.query(artifact_path, "neighbors", 0, k=3)
            label = await service.query(artifact_path, "labels", 0, n_clusters=3)
            await service.drain()
            return resistances, neighbors, label

        resistances, neighbors, label = asyncio.run(run())
        np.testing.assert_allclose(resistances, expected, rtol=1e-8)
        assert len(neighbors) == 3 and 0 not in neighbors
        assert 0 <= label < 3
        batching = service.stats()["batching"]
        assert batching["n_requests"] == 32
        assert batching["n_batches"] < 32  # coalescing actually happened
        service.close()

    def test_unknown_kind_rejected(self, artifact_path):
        service = GraphService()

        async def run():
            await service.query(artifact_path, "sorcery", 0)

        with pytest.raises(ValueError, match="unknown query kind"):
            asyncio.run(run())
        service.close()

    def test_bad_payload_fails_only_its_own_request(self, learned, artifact_path):
        service = GraphService(max_batch_size=8, max_delay_s=0.01)
        service.warm(artifact_path)

        async def run():
            good = service.query(artifact_path, "resistance", (0, 5))
            bad = service.query(artifact_path, "resistance", (0, 10**6))
            return await asyncio.gather(good, bad, return_exceptions=True)

        good, bad = asyncio.run(run())
        assert isinstance(bad, ValueError) and "out of range" in str(bad)
        pinv = scipy.linalg.pinvh(learned.graph.laplacian().toarray())
        expected = pinv[0, 0] + pinv[5, 5] - 2.0 * pinv[0, 5]
        assert float(good) == pytest.approx(expected, rel=1e-8)
        service.close()

    @pytest.mark.parametrize("cold", [False, True], ids=["cached", "cold"])
    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("resistance", (0.7, 5)),
            ("resistance", ("3", 5)),
            ("resistance", (True, 5)),
            ("resistance", (0, -1)),
            ("resistance", 5),
            ("resistance", (0, 1, 2)),
            ("resistance", "05"),
            ("neighbors", 2.9),
            ("neighbors", np.float64(2.0)),
            ("labels", "3"),
            ("labels", np.bool_(True)),
            ("labels", 49),
        ],
    )
    def test_malformed_payload_rejected(self, artifact_path, kind, payload, cold):
        service = GraphService()
        if not cold:
            service.warm(artifact_path)

        async def run():
            await service.query(artifact_path, kind, payload)

        with pytest.raises(ValueError, match="node ids must be integers|out of range|pair"):
            asyncio.run(run())
        service.close()

    def test_numpy_integer_payloads_accepted(self, learned, artifact_path):
        service = GraphService()

        async def run():
            return await asyncio.gather(
                service.query(artifact_path, "resistance", (np.int64(0), np.int32(5))),
                service.query(artifact_path, "resistance", np.array([0, 5])),
                service.query(artifact_path, "labels", np.int64(3)),
            )

        first, second, label = asyncio.run(run())
        expected = effective_resistance(learned.graph, np.array([[0, 5]]))[0]
        assert float(first) == float(second) == pytest.approx(expected, rel=1e-8)
        assert 0 <= label < 8
        service.close()

    def test_lru_eviction_by_checksum(self, learned, tmp_path):
        paths = []
        for idx in range(3):
            data = simulate_measurements(
                grid_2d(5 + idx, 5), n_measurements=20, seed=idx
            )
            result = learn_graph(data, beta=0.05)
            path = tmp_path / f"m{idx}.npz"
            save_result(result, path, include_embedding=False)
            paths.append(path)
        service = GraphService(max_sessions=2)
        for path in paths:
            service.warm(path)
        stats = service.stats()["sessions"]
        assert stats["loaded"] == 2
        assert stats["loads"] == 3
        assert stats["evictions"] == 1
        # Re-warming the evicted artifact loads it again.
        service.warm(paths[0])
        assert service.stats()["sessions"]["loads"] == 4
        service.close()

    def test_same_checksum_shares_session(self, learned, tmp_path):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        save_result(learned, a, include_embedding=False)
        save_result(learned, b, include_embedding=False)
        service = GraphService()
        first = service.warm(a)
        second = service.warm(b)
        assert first is second
        assert service.stats()["sessions"]["loads"] == 1
        service.close()

    def test_session_cache_hit_path(self, artifact_path):
        service = GraphService()
        first = service.session(artifact_path)
        second = service.session(artifact_path)
        assert first is second
        service.close()

    def test_default_options_share_a_batch(self, artifact_path):
        # Regression: an explicit default (k=5) and an omitted option used
        # to hash to different batch keys, splitting identical queries
        # into separate batches.
        service = GraphService(max_batch_size=64, max_delay_s=0.01)
        service.warm(artifact_path)

        async def run():
            await asyncio.gather(
                service.query(artifact_path, "neighbors", 0, k=5),
                service.query(artifact_path, "neighbors", 1),
                service.query(artifact_path, "neighbors", 2, k=5),
                service.query(artifact_path, "neighbors", 3),
            )
            return service.stats()["batching"]

        batching = asyncio.run(run())
        assert batching["n_requests"] == 4
        assert batching["n_batches"] == 1  # one signature, one batch
        service.close()

    def test_non_default_options_batch_separately(self, artifact_path):
        service = GraphService(max_batch_size=64, max_delay_s=0.01)
        service.warm(artifact_path)

        async def run():
            await asyncio.gather(
                service.query(artifact_path, "neighbors", 0, k=2),
                service.query(artifact_path, "neighbors", 1, k=3),
            )
            return service.stats()["batching"]

        batching = asyncio.run(run())
        assert batching["n_batches"] == 2
        service.close()

    def test_unknown_option_rejected(self, artifact_path):
        service = GraphService()
        service.warm(artifact_path)

        async def run():
            service.query(artifact_path, "neighbors", 0, q=3)

        with pytest.raises(ValueError, match="unknown option"):
            asyncio.run(run())
        service.close()

    def test_close_fails_pending_queries_instead_of_hanging(self, artifact_path):
        # Regression: close() used to shut the executor down without
        # draining the batcher, so requests submitted just before close
        # hung forever on futures nobody would resolve.
        service = GraphService(
            max_batch_size=1000, max_delay_s=60.0, adaptive_flush=False
        )
        service.warm(artifact_path)

        async def run():
            pending = [
                service.query(artifact_path, "resistance", (0, 1)),
                service.query(artifact_path, "resistance", (2, 3)),
            ]
            service.close()
            results = await asyncio.gather(*pending, return_exceptions=True)
            return results

        results = asyncio.run(run())
        assert all(isinstance(r, ServiceClosedError) for r in results)
        counters = service.metrics.snapshot()["counters"]
        assert counters["batcher.errors"] >= 1
        assert counters["batcher.failed_requests"] == 2

    def test_query_after_close_raises(self, artifact_path):
        service = GraphService()
        service.warm(artifact_path)
        service.close()

        async def run():
            service.query(artifact_path, "resistance", (0, 1))

        with pytest.raises(ServiceClosedError):
            asyncio.run(run())

    def test_aclose_drains_before_shutdown(self, artifact_path):
        service = GraphService(max_batch_size=1000, max_delay_s=60.0)
        service.warm(artifact_path)

        async def run():
            futures = [
                service.query(artifact_path, "resistance", (0, 1)),
                service.query(artifact_path, "resistance", (2, 3)),
            ]
            await service.aclose()
            return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert all(float(r) > 0 for r in results)

    def test_stats_is_json_dumpable(self, artifact_path):
        # Regression: session.stats() carries numpy scalars, and
        # json.dumps raises on np.int64 — stats() must coerce to builtins
        # at the boundary.
        service = GraphService()

        async def run():
            await service.query(artifact_path, "resistance", (0, 1))
            await service.query(artifact_path, "labels", 0)

        asyncio.run(run())
        stats = service.stats()
        encoded = json.dumps(stats)  # must not raise
        assert json.loads(encoded)["sessions"]["loaded"] == 1
        service.close()

    def test_jsonable_coerces_numpy(self):
        raw = {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "a": np.arange(3, dtype=np.int64),
            "nested": [np.int32(1), (np.float32(2.0),)],
        }
        out = jsonable(raw)
        assert out == {"i": 3, "f": 0.5, "b": True, "a": [0, 1, 2],
                       "nested": [1, [2.0]]}
        json.dumps(out)
        assert isinstance(out["i"], int) and isinstance(out["f"], float)

    def test_cache_gauge_updated_on_every_path(self, learned, tmp_path):
        # Regression: warm()'s early-return (cache hit) used to skip the
        # serve.cache.sessions gauge, so it went stale after
        # evict-then-rewarm sequences.
        paths = []
        for idx in range(2):
            data = simulate_measurements(
                grid_2d(5 + idx, 5), n_measurements=20, seed=idx
            )
            path = tmp_path / f"g{idx}.npz"
            save_result(learn_graph(data, beta=0.05), path, include_embedding=False)
            paths.append(path)
        service = GraphService(max_sessions=1)
        gauge = service.metrics.gauge("serve.cache.sessions")
        service.warm(paths[0])
        assert gauge.value == 1
        service.warm(paths[1])  # evicts paths[0]
        assert gauge.value == 1
        # Poison the gauge, then take the cache-hit early-return path: the
        # hit must refresh the gauge, not leave the stale value in place.
        gauge.set(99)
        service.warm(paths[1])
        assert gauge.value == 1
        # Evict-then-rewarm: reload of paths[0] evicts paths[1], and the
        # gauge must track the mutation.
        service.warm(paths[0])
        assert gauge.value == 1
        assert service.stats()["sessions"]["evictions"] == 2
        service.close()


# ----------------------------------------------------------------------
class TestServiceConcurrency:
    """The service-path concurrency regression suite (ISSUE 9 satellite)."""

    def test_service_matches_naive_and_coalesces(self, learned, artifact_path):
        # The service's throughput is timed by sglbench's serve workload,
        # which CI holds to a floor of the committed
        # BENCH_sglbench_serve.json; a wall-clock ratio here only measured
        # the host's load.  What is checked here is the mechanism: concurrent
        # queries get the naive per-pair answers, in fewer batches than
        # queries.
        n = 512
        pairs = sample_node_pairs(learned.graph.n_nodes, n, seed=7)
        solver = LaplacianSolver(learned.graph)
        naive = np.array([
            effective_resistance(learned.graph, pair[None, :], solver=solver)[0]
            for pair in pairs
        ])

        service = GraphService(max_batch_size=64, max_delay_s=0.002)
        service.warm(artifact_path)

        async def run():
            return await asyncio.gather(
                *(
                    service.query(artifact_path, "resistance", tuple(pair))
                    for pair in pairs
                )
            )

        answers = np.asarray(asyncio.run(run()), dtype=np.float64)
        batching = service.stats()["batching"]
        service.close()
        np.testing.assert_allclose(answers, naive, rtol=1e-10, atol=0)
        assert batching["n_requests"] == n
        assert batching["n_batches"] < n

    def test_loader_pool_does_not_starve_compute(
        self, learned, artifact_path, tmp_path, monkeypatch
    ):
        # A multi-second cold artifact load must run on the loader pool:
        # hot queries against an already-warm session keep flowing while
        # the cold load is blocked.
        import repro.serve.service as service_module

        cold_path = tmp_path / "cold.npz"
        save_result(learned, cold_path, include_embedding=False)

        service = GraphService(max_batch_size=16, max_delay_s=0.001)
        service.warm(artifact_path)

        gate = threading.Event()
        real_load = service_module.load_result

        def gated_load(path, **kwargs):
            if str(path) == str(cold_path):
                assert gate.wait(timeout=30), "test gate never opened"
            return real_load(path, **kwargs)

        monkeypatch.setattr(service_module, "load_result", gated_load)

        async def run():
            cold = asyncio.ensure_future(
                service.query(cold_path, "resistance", (0, 1))
            )
            await asyncio.sleep(0.05)  # let the loader thread block on the gate
            hot = await asyncio.gather(
                *(
                    service.query(artifact_path, "resistance", (0, i))
                    for i in range(1, 33)
                )
            )
            # Hot queries finished while the cold load was still blocked —
            # they cannot have been queued behind it.
            assert not cold.done()
            gate.set()
            cold_value = await asyncio.wait_for(cold, timeout=30)
            return hot, cold_value

        hot, cold_value = asyncio.run(run())
        service.close()
        assert len(hot) == 32 and all(float(v) >= 0 for v in hot)
        assert float(cold_value) > 0

    def test_mixed_kinds_interleave_without_blocking(self, artifact_path):
        service = GraphService(max_batch_size=8, max_delay_s=0.002)
        service.warm(artifact_path)

        async def run():
            queries = []
            for idx in range(24):
                if idx % 3 == 0:
                    queries.append(
                        service.query(artifact_path, "resistance", (0, idx % 49))
                    )
                elif idx % 3 == 1:
                    queries.append(
                        service.query(artifact_path, "neighbors", idx % 49)
                    )
                else:
                    queries.append(
                        service.query(artifact_path, "labels", idx % 49)
                    )
            return await asyncio.gather(*queries)

        results = asyncio.run(run())
        assert len(results) == 24
        batching = service.stats()["batching"]
        assert batching["n_requests"] == 24
        assert batching["n_batches"] <= 6  # three signatures, coalesced
        service.close()


# ----------------------------------------------------------------------
class TestTCPServer:
    def test_json_lines_round_trip(self, learned, artifact_path):
        pairs = [[0, 48], [3, 9]]
        expected = effective_resistance(learned.graph, np.asarray(pairs))

        async def run():
            service = GraphService(max_batch_size=16, max_delay_s=0.001)
            ready = asyncio.Event()
            bound: list = []
            server = asyncio.create_task(
                serve_forever(service, "127.0.0.1", 0, ready=ready,
                              bound_addresses=bound)
            )
            await asyncio.wait_for(ready.wait(), timeout=5)
            host, port = bound[0]
            reader, writer = await asyncio.open_connection(host, port)

            async def ask(request):
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 10))

            ok = await ask({
                "id": 7, "kind": "resistance",
                "artifact": str(artifact_path), "pairs": pairs,
            })
            nbr = await ask({
                "kind": "neighbors", "artifact": str(artifact_path),
                "nodes": [0], "k": 2,
            })
            stats = await ask({"kind": "stats"})
            warm = await ask({"kind": "warm", "artifact": str(artifact_path)})
            bad = await ask({"kind": "nope"})
            bad_pair = await ask({
                "kind": "resistance", "artifact": str(artifact_path),
                "pairs": [[0, 48], [0.7, 5]],
            })
            bad_node = await ask({
                "kind": "neighbors", "artifact": str(artifact_path),
                "nodes": [2.9],
            })
            after = await ask({
                "kind": "resistance", "artifact": str(artifact_path),
                "pairs": pairs,
            })
            not_json = None
            writer.write(b"this is not json\n")
            await writer.drain()
            not_json = json.loads(await asyncio.wait_for(reader.readline(), 10))
            writer.close()
            await writer.wait_closed()
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            service.close()
            return ok, nbr, stats, warm, bad, not_json, bad_pair, bad_node, after

        ok, nbr, stats, warm, bad, not_json, bad_pair, bad_node, after = asyncio.run(run())
        assert ok["ok"] and ok["id"] == 7
        np.testing.assert_allclose(ok["result"], expected, rtol=1e-8)
        assert nbr["ok"] and len(nbr["result"][0]) == 2
        assert stats["ok"] and stats["result"]["sessions"]["loaded"] == 1
        # The stats response carries a live metrics snapshot: the two query
        # requests above already went through the batcher and the TCP
        # serializer by the time the stats request is answered.
        snapshot = stats["result"]["metrics"]
        assert snapshot["counters"]["serve.tcp.requests"] >= 2
        assert snapshot["counters"]["batcher.requests"] >= 3
        assert snapshot["histograms"]["batcher.latency_ms"]["count"] >= 3
        assert snapshot["histograms"]["batcher.resistance.latency_ms"]["count"] == 2
        assert warm["ok"] and warm["result"]["n_nodes"] == 49
        assert not bad["ok"] and "unknown request kind" in bad["error"]
        assert not not_json["ok"]
        # Malformed node ids fail their request with a named error; the
        # connection keeps serving.
        assert not bad_pair["ok"] and "integers" in bad_pair["error"]
        assert not bad_node["ok"] and "integers" in bad_node["error"]
        assert after["ok"]
        np.testing.assert_allclose(after["result"], expected, rtol=1e-8)


# ----------------------------------------------------------------------
class TestServeCLI:
    def test_warm(self, artifact_path, capsys):
        assert serve_main(["warm", "--artifact", str(artifact_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_nodes"] == 49 and out["resistance_engine"] == "woodbury"

    def test_warm_missing_artifact(self, tmp_path, capsys):
        code = serve_main(["warm", "--artifact", str(tmp_path / "nope.npz")])
        assert code == 2

    def test_query_pairs(self, learned, artifact_path, capsys):
        code = serve_main([
            "query", "--artifact", str(artifact_path),
            "--kind", "resistance", "--pairs", "0:48,3:9",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        expected = effective_resistance(learned.graph, [(0, 48), (3, 9)])
        values = [float(line.split("\t")[1]) for line in lines]
        np.testing.assert_allclose(values, expected, rtol=1e-8)

    def test_query_random_pairs_summary(self, artifact_path, capsys):
        code = serve_main([
            "query", "--artifact", str(artifact_path),
            "--kind", "resistance", "--random-pairs", "50", "--summary",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_queries"] == 50 and summary["qps"] > 0
        assert summary["batching"]["n_requests"] == 50

    def test_query_neighbors_and_labels(self, artifact_path, capsys):
        assert serve_main([
            "query", "--artifact", str(artifact_path),
            "--kind", "neighbors", "--nodes", "0,1", "--k", "2",
        ]) == 0
        assert serve_main([
            "query", "--artifact", str(artifact_path),
            "--kind", "labels", "--nodes", "0,1", "--clusters", "3",
        ]) == 0

    def test_query_requires_inputs(self, artifact_path, capsys):
        assert serve_main([
            "query", "--artifact", str(artifact_path), "--kind", "resistance",
        ]) == 2
        assert serve_main([
            "query", "--artifact", str(artifact_path), "--kind", "labels",
        ]) == 2

    def test_bad_pairs_syntax(self, artifact_path):
        with pytest.raises(SystemExit):
            serve_main([
                "query", "--artifact", str(artifact_path),
                "--kind", "resistance", "--pairs", "zero:one",
            ])

    def test_query_explain_and_trace(self, artifact_path, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        code = serve_main([
            "query", "--artifact", str(artifact_path),
            "--kind", "resistance", "--pairs", "0:48,3:9",
            "--explain", "--trace", str(trace_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # One breakdown row per query, with the batcher's stage columns.
        assert "queue_ms" in out and "exec_ms" in out
        assert "(0, 48)" in out and "(3, 9)" in out
        trace_path = trace_dir / "query_resistance.jsonl"
        assert trace_path.exists()
        from repro.obs import load_spans

        spans = load_spans(trace_path)
        names = {span.name for span in spans}
        assert {"query", "batch.request", "batch.execute", "serialize"} <= names
        queries = [span for span in spans if span.name == "query"]
        assert len(queries) == 2
        metrics = json.loads((trace_dir / "query_resistance_metrics.json").read_text())
        assert metrics["histograms"]["batcher.resistance.latency_ms"]["count"] == 2


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_session(tmp_path_factory):
    from repro.artifacts import save_sharded_result
    from repro.partition import ShardedSGLearner

    data = simulate_measurements(grid_2d(10, 10), n_measurements=30, seed=0)
    result = ShardedSGLearner(beta=0.05, num_parts=2).fit(data)
    directory = save_sharded_result(
        result, tmp_path_factory.mktemp("sharded") / "model"
    )
    return ShardedGraphSession.from_directory(directory)


class TestShardedGraphSession:
    def test_loads_and_reports_shape(self, sharded_session):
        assert sharded_session.n_parts == 2
        assert sharded_session.n_nodes == 100
        stats = sharded_session.stats()
        assert stats["n_parts"] == 2
        assert len(stats["shard_engines"]) == 2
        assert stats["boundary_engine"] in ("woodbury", "grouped")
        assert stats["boundary_nodes"] > 0

    def test_same_shard_resistance_is_exact(self, sharded_session):
        # Same-shard pairs route to the owning shard's session, which must
        # agree with direct per-pair solves on that shard's graph.
        nodes = sharded_session.shard_nodes[0]
        pairs = np.column_stack([nodes[:10], nodes[10:20]])
        got = sharded_session.effective_resistance(pairs)
        shard_graph = sharded_session.artifact.shards[0].graph
        expected = effective_resistance(
            shard_graph, np.searchsorted(nodes, pairs)
        )
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_cross_shard_resistance_is_finite_and_symmetric(self, sharded_session):
        pairs = np.column_stack(
            [sharded_session.shard_nodes[0][:5], sharded_session.shard_nodes[1][:5]]
        )
        res = sharded_session.effective_resistance(pairs)
        assert np.all(np.isfinite(res)) and np.all(res > 0)
        swapped = sharded_session.effective_resistance(pairs[:, ::-1].copy())
        np.testing.assert_allclose(res, swapped, rtol=1e-9)
        assert sharded_session.stats()["queries"]["cross_resistance"] >= 10

    def test_cross_shard_estimate_lower_bounds_whole_graph(self, sharded_session):
        # The boundary bridge shorts each shard's interior into a supernode;
        # by Rayleigh monotonicity, shorting can only lower the effective
        # resistance, so the bridge estimate lower-bounds the whole-graph
        # value.
        art = sharded_session.artifact
        rows, cols, weights = [art.cut_rows], [art.cut_cols], [art.cut_weights]
        for nodes, shard in zip(art.shard_nodes, art.shards):
            rows.append(nodes[shard.graph.rows])
            cols.append(nodes[shard.graph.cols])
            weights.append(shard.graph.weights)
        whole = WeightedGraph(
            art.n_nodes,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(weights),
        )
        pairs = np.column_stack([art.shard_nodes[0][:8], art.shard_nodes[1][:8]])
        exact = effective_resistance(whole, pairs)
        approx = sharded_session.effective_resistance(pairs)
        assert np.all(approx <= exact * (1 + 1e-9))

    def test_nearest_neighbors_stay_in_owning_shard(self, sharded_session):
        nodes = np.array(
            [sharded_session.shard_nodes[0][0], sharded_session.shard_nodes[1][0]]
        )
        distances, ids = sharded_session.nearest_neighbors(nodes, k=4)
        assert distances.shape == (2, 4) and ids.shape == (2, 4)
        parts = sharded_session.assignment[ids]
        assert (parts[0] == 0).all() and (parts[1] == 1).all()

    def test_cluster_labels_are_namespaced_by_shard(self, sharded_session):
        labels = sharded_session.cluster_labels(n_clusters=4)
        assert labels.shape == (100,)
        for part in range(2):
            shard_labels = labels[sharded_session.shard_nodes[part]]
            assert shard_labels.min() >= part * 4
            assert shard_labels.max() < (part + 1) * 4

    def test_rejects_out_of_range_nodes(self, sharded_session):
        with pytest.raises(ValueError, match="out of range"):
            sharded_session.effective_resistance([(0, 100)])
        with pytest.raises(ValueError, match="out of range"):
            sharded_session.nearest_neighbors([-1])

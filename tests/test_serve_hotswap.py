"""Tests for zero-downtime serving: re-save invalidation, registry
references, and the ``follow`` hot-swap loop."""

import asyncio
import dataclasses
import threading

import numpy as np
import pytest

from repro.artifacts import ModelRegistry, load_result, save_artifact, save_result
from repro.core.config import SGLConfig
from repro.core.sgl import learn_graph
from repro.embedding.spectral import spectral_embedding_matrix
from repro.graphs.generators import grid_2d
from repro.linalg.pseudoinverse import effective_resistance
from repro.measurements.generator import simulate_measurements
from repro.serve import GraphService, GraphSession


@pytest.fixture(scope="module")
def model_a():
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=0)
    return learn_graph(data, beta=0.05)


@pytest.fixture(scope="module")
def model_b():
    # Same graph family and size, different measurements and beta: a
    # genuinely different learned model (different checksum).
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=7)
    return learn_graph(data, beta=0.1)


def pairs(n=32, seed=0):
    rng = np.random.default_rng(seed)
    first = rng.integers(0, 49, size=n)
    second = (first + 1 + rng.integers(0, 47, size=n)) % 49
    return np.column_stack([first, second])


class TestStaleSessionInvalidation:
    def test_resave_at_same_path_serves_the_new_model(
        self, model_a, model_b, tmp_path
    ):
        # Regression: a model re-saved at the same path used to keep
        # serving the stale cached session forever.
        path = tmp_path / "model.npz"
        save_result(model_a, path)
        service = GraphService()
        first = service.warm(path)
        assert first.checksum == service.warm(path).checksum  # cache hit

        save_result(model_b, path)
        second = service.warm(path)
        assert second.checksum != first.checksum
        assert second.graph == model_b.graph
        # The orphaned stale session is dropped, not leaked.
        assert service.stats()["sessions"]["loaded"] == 1
        assert service.stats()["metrics"]["counters"]["serve.cache.invalidations"] >= 1
        service.close()

    def test_two_paths_one_resaved_keeps_the_other(self, model_a, model_b, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_result(model_a, a)
        save_result(model_a, b)
        service = GraphService()
        service.warm(a)
        service.warm(b)  # same checksum: shared session
        assert service.stats()["sessions"]["loaded"] == 1

        save_result(model_b, a)
        service.warm(a)
        # b still maps to the old checksum, so the old session survives.
        assert service.stats()["sessions"]["loaded"] == 2
        assert service.warm(b).graph == model_a.graph
        service.close()

    def test_explicit_invalidate(self, model_a, tmp_path):
        path = tmp_path / "model.npz"
        save_result(model_a, path)
        service = GraphService()
        service.warm(path)
        assert service.invalidate(path)
        assert service.stats()["sessions"]["loaded"] == 0
        assert not service.invalidate(path)  # second call: nothing to drop
        service.close()


class TestRegistryReferences:
    def test_warm_by_ref_and_version_pinning(self, model_a, model_b, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(model_a, "grid")
        registry.publish(model_b, "grid", parent=v1)
        service = GraphService(registry=registry)
        latest = service.warm("grid@latest")
        pinned = service.warm("grid@1")
        assert latest.checksum != pinned.checksum
        assert latest.graph == model_b.graph
        assert pinned.graph == model_a.graph
        service.close()

    def test_ref_requires_registry(self, model_a, tmp_path):
        from repro.artifacts import ArtifactFormatError

        service = GraphService()
        with pytest.raises(ArtifactFormatError, match="grid@latest"):
            service.warm("grid@latest")  # treated as a (missing) path
        service.close()

    def test_follow_requires_registry(self):
        service = GraphService()
        with pytest.raises(ValueError, match="registry"):
            asyncio.run(service.follow("grid@latest"))
        service.close()

    def test_warm_by_ref_tracks_new_publishes(self, model_a, model_b, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid")
        service = GraphService(registry=registry)
        assert service.warm("grid@latest").graph == model_a.graph
        # A publish from a different registry handle (another process in
        # real life): warm("@latest") must pick it up via reload.
        ModelRegistry(tmp_path / "registry").publish(model_b, "grid")
        assert service.warm("grid@latest").graph == model_b.graph
        service.close()


class TestFollowHotSwap:
    def test_follow_swaps_without_failing_inflight_queries(
        self, model_a, model_b, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(model_a, "grid")
        service = GraphService(registry=registry)
        service.warm("grid@latest")
        swapped = []
        query_pairs = pairs()

        async def scenario():
            stop = asyncio.Event()
            follower = asyncio.create_task(
                service.follow(
                    "grid@latest",
                    poll_interval=0.05,
                    stop=stop,
                    on_swap=lambda session: swapped.append(session.checksum),
                )
            )
            publisher = threading.Timer(
                0.15, registry.publish, (model_b, "grid"), {"parent": v1}
            )
            publisher.start()
            failures = 0
            answered = 0
            deadline = asyncio.get_running_loop().time() + 3.0
            # The follower's first poll counts as the initial swap (to v1);
            # the one we are waiting for is the hot-swap to v2.
            while len(swapped) < 2 and asyncio.get_running_loop().time() < deadline:
                try:
                    results = await asyncio.gather(
                        *(
                            service.query("grid@latest", "resistance", tuple(pair))
                            for pair in query_pairs
                        )
                    )
                    assert np.all(np.asarray(results) >= 0)
                    answered += len(results)
                except Exception:
                    failures += 1
                await asyncio.sleep(0.01)
            # Drain a few more queries after the swap on the new session.
            for pair in query_pairs[:5]:
                await service.query("grid@latest", "resistance", tuple(pair))
                answered += 1
            stop.set()
            await follower
            publisher.join()
            return failures, answered

        failures, answered = asyncio.run(scenario())
        assert failures == 0
        assert answered >= 5
        assert swapped == [
            registry.get("grid@1").checksum,
            registry.get("grid@2").checksum,
        ]
        assert service.stats()["metrics"]["counters"]["serve.follow.swaps"] == 2
        service.close()

    def test_follow_stop_event_terminates_cleanly(self, model_a, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid")
        service = GraphService(registry=registry)

        async def scenario():
            stop = asyncio.Event()
            task = asyncio.create_task(
                service.follow("grid@latest", poll_interval=0.05, stop=stop)
            )
            await asyncio.sleep(0.2)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)

        asyncio.run(scenario())
        assert service.stats()["metrics"]["counters"].get("serve.follow.errors", 0) == 0
        service.close()

    def test_follow_survives_transient_resolve_errors(self, model_a, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        service = GraphService(registry=registry)

        async def scenario():
            stop = asyncio.Event()
            # "grid" does not exist yet: the follower must retry, not die.
            task = asyncio.create_task(
                service.follow("grid@latest", poll_interval=0.05, stop=stop)
            )
            await asyncio.sleep(0.15)
            registry.publish(model_a, "grid")
            deadline = asyncio.get_running_loop().time() + 3.0
            while asyncio.get_running_loop().time() < deadline:
                if service.stats()["metrics"]["counters"].get("serve.follow.swaps", 0):
                    break
                await asyncio.sleep(0.05)
            stop.set()
            await asyncio.wait_for(task, timeout=2.0)

        asyncio.run(scenario())
        stats = service.stats()["metrics"]["counters"]
        assert stats.get("serve.follow.errors", 0) >= 1
        assert stats.get("serve.follow.swaps", 0) == 1
        service.close()


class TestMmapServing:
    def test_service_answers_from_mmapped_artifact(self, model_a, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(model_a, "grid", compress=False)
        service = GraphService(registry=registry, mmap_mode="r")
        session = service.warm("grid@latest")

        async def run():
            return await asyncio.gather(
                *(
                    service.query("grid@latest", "resistance", tuple(pair))
                    for pair in pairs(8)
                )
            )

        assert np.all(np.asarray(asyncio.run(run())) > 0)
        assert session.graph == model_a.graph
        service.close()


# ----------------------------------------------------------------------
class TestRescaleCarryOver:
    """A version that only rescales the previous graph shares its state."""

    @pytest.fixture(scope="class")
    def embedding(self, model_a):
        return spectral_embedding_matrix(model_a.graph, model_a.config.r).coordinates

    @staticmethod
    def save(graph, embedding, path):
        save_artifact(graph, SGLConfig(), path, embedding=embedding)
        return load_result(path)

    @pytest.mark.parametrize("engine", ["auto", "grouped"])
    def test_derived_resistances_equal_a_fresh_session(
        self, model_a, embedding, tmp_path, engine
    ):
        graph = model_a.graph
        parent = GraphSession(
            self.save(graph, embedding, tmp_path / "v1.npz"), resistance_engine=engine
        )
        scaled = self.save(graph.scaled(0.37), embedding, tmp_path / "v2.npz")
        derived = GraphSession(scaled, resistance_engine=engine, previous=parent)
        fresh = GraphSession(scaled, resistance_engine=engine)
        assert derived.derived_from == parent.checksum
        assert derived.checksum == scaled.checksum
        assert derived.scale == pytest.approx(0.37, rel=1e-15)
        assert (fresh.derived_from, fresh.scale) == (None, 1.0)
        assert derived.resistance_engine == fresh.resistance_engine
        query = pairs(64, seed=1)
        np.testing.assert_allclose(
            derived.effective_resistance(query),
            fresh.effective_resistance(query),
            rtol=1e-12,
            atol=0,
        )
        stats = derived.stats()
        assert stats["derived_from"] == parent.checksum
        assert stats["scale"] == derived.scale

    def test_labels_and_neighbours_equal_the_parents(self, model_a, embedding, tmp_path):
        parent = GraphSession(self.save(model_a.graph, embedding, tmp_path / "v1.npz"))
        labels = parent.cluster_labels(n_clusters=4)
        neighbours = parent.nearest_neighbors([0, 17, 48], k=3)
        derived = GraphSession(
            self.save(model_a.graph.scaled(8.0), embedding, tmp_path / "v2.npz"),
            previous=parent,
        )
        # The label cache comes along: nothing is clustered again.
        assert derived.stats()["cluster_cache"] == [4]
        assert np.array_equal(derived.cluster_labels(n_clusters=4), labels)
        got = derived.nearest_neighbors([0, 17, 48], k=3)
        assert np.array_equal(got[0], neighbours[0])
        assert np.array_equal(got[1], neighbours[1])

    def test_perturbed_weight_builds_fresh(self, model_a, embedding, tmp_path):
        graph = model_a.graph
        parent = GraphSession(self.save(graph, embedding, tmp_path / "v1.npz"))
        parent.cluster_labels(n_clusters=4)
        weights = graph.weights * 2.0
        weights[5] *= 1.0 + 1e-9
        moved = self.save(graph.with_weights(weights), embedding, tmp_path / "v2.npz")
        session = GraphSession(moved, previous=parent)
        assert (session.derived_from, session.scale) == (None, 1.0)
        assert session.stats()["cluster_cache"] == []

    def test_added_edge_builds_fresh(self, model_a, embedding, tmp_path):
        graph = model_a.graph
        parent = GraphSession(self.save(graph, embedding, tmp_path / "v1.npz"))
        missing = next(
            (s, t) for s in range(49) for t in range(s + 1, 49) if not graph.has_edge(s, t)
        )
        grown = graph.add_edges([missing], [float(graph.weights.min())])
        session = GraphSession(
            self.save(grown, embedding, tmp_path / "v2.npz"), previous=parent
        )
        assert session.derived_from is None
        query = pairs(16, seed=2)
        np.testing.assert_allclose(
            session.effective_resistance(query), effective_resistance(grown, query), rtol=1e-8
        )

    def test_changed_embedding_rebuilds_only_the_index(self, model_a, embedding, tmp_path):
        parent = GraphSession(self.save(model_a.graph, embedding, tmp_path / "v1.npz"))
        parent.cluster_labels(n_clusters=4)
        parent.nearest_neighbors([0], k=2)
        moved = embedding[::-1].copy()
        session = GraphSession(
            self.save(model_a.graph.scaled(3.0), moved, tmp_path / "v2.npz"),
            previous=parent,
        )
        assert session.derived_from == parent.checksum
        assert session.stats()["cluster_cache"] == [4]
        # The index answers from the new embedding: each row finds itself.
        distances, nodes = session.nearest_nodes(moved[:5], k=1)
        assert nodes.ravel().tolist() == [0, 1, 2, 3, 4]
        np.testing.assert_allclose(distances, 0.0, atol=1e-12)

    def test_differing_options_build_fresh(self, model_a, embedding, tmp_path):
        parent = GraphSession(self.save(model_a.graph, embedding, tmp_path / "v1.npz"))
        session = GraphSession(
            self.save(model_a.graph.scaled(2.0), embedding, tmp_path / "v2.npz"),
            previous=parent,
            resistance_engine="grouped",
        )
        assert session.derived_from is None
        assert session.resistance_engine == "grouped"

    def test_twenty_successive_rescales_through_warm(self, model_a, embedding, tmp_path):
        # Like Step 5 of a stream: every version is the unscaled graph times
        # its own factor.  Each derived session measures its factor against
        # the base graph, so nothing compounds across the chain.
        graph = model_a.graph
        registry = ModelRegistry(tmp_path / "registry")
        base = registry.publish(model_a, "grid", embedding=embedding)
        service = GraphService(registry=registry)
        first = service.warm("grid@latest")
        assert first.derived_from is None
        rng = np.random.default_rng(3)
        query = pairs(24, seed=3)
        parent = base
        for step in range(1, 21):
            factor = float(rng.uniform(0.2, 5.0))
            scaled = graph.scaled(factor)
            parent = registry.publish(
                dataclasses.replace(model_a, graph=scaled),
                "grid",
                parent=parent,
                embedding=embedding,
            )
            session = service.warm("grid@latest")
            assert session.checksum == parent.checksum
            assert session.derived_from == first.checksum
            assert session.scale == pytest.approx(factor, rel=1e-14)
            np.testing.assert_allclose(
                session.effective_resistance(query),
                effective_resistance(scaled, query),
                rtol=1e-10,
            )
        assert service.metrics.counter("serve.cache.rescaled").value == 20
        service.close()

    def test_a_moving_reference_keeps_one_session(self, model_a, embedding, tmp_path):
        # Regression: warm also keyed each resolved version's file path, so
        # the superseded session stayed referenced, and loaded, until the
        # LRU evicted it: 20 versions ended with 4 loaded and 17 evictions.
        registry = ModelRegistry(tmp_path / "registry")
        parent = registry.publish(model_a, "grid", embedding=embedding)
        service = GraphService(registry=registry)
        service.warm("grid@latest")
        for step in range(1, 21):
            parent = registry.publish(
                dataclasses.replace(model_a, graph=model_a.graph.scaled(1.0 + step)),
                "grid",
                parent=parent,
                embedding=embedding,
            )
            assert service.warm("grid@latest").checksum == parent.checksum
        sessions = service.stats()["sessions"]
        assert (sessions["loaded"], sessions["evictions"]) == (1, 0)
        assert service.metrics.counter("serve.cache.invalidations").value == 20
        assert service.metrics.counter("serve.cache.rescaled").value == 20
        # The current version's path stays keyed: warming it is a cache hit.
        assert service.warm(registry.resolve("grid@latest")).checksum == parent.checksum
        assert service.stats()["sessions"]["loaded"] == 1
        service.close()

    def test_warm_counts_a_rescaled_resave_at_the_same_path(self, model_a, embedding, tmp_path):
        path = tmp_path / "model.npz"
        self.save(model_a.graph, embedding, path)
        service = GraphService()
        first = service.warm(path)
        self.save(model_a.graph.scaled(4.0), embedding, path)
        second = service.warm(path)
        assert second.derived_from == first.checksum
        np.testing.assert_allclose(
            second.effective_resistance(pairs(8)),
            first.effective_resistance(pairs(8)) / 4.0,
            rtol=1e-12,
        )
        assert service.metrics.counter("serve.cache.rescaled").value == 1
        assert service.metrics.counter("serve.cache.loads").value == 2
        service.close()

    def test_solver_is_built_on_first_use(self, model_a, embedding, tmp_path, monkeypatch):
        import repro.serve.session as session_module
        built = []
        real = session_module.LaplacianSolver

        def counting(graph, *args, **kwargs):
            built.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(session_module, "LaplacianSolver", counting)
        v1 = self.save(model_a.graph, embedding, tmp_path / "v1.npz")
        oracle = GraphSession(v1)
        assert oracle.resistance_engine == "woodbury"
        oracle.effective_resistance(pairs(8))
        assert built == []  # the oracle path never factorises the Laplacian
        parent = GraphSession(v1, resistance_engine="grouped")
        derived = GraphSession(
            self.save(model_a.graph.scaled(0.5), embedding, tmp_path / "v2.npz"),
            resistance_engine="grouped",
            previous=parent,
        )
        assert built == []  # nor does building a session
        query = pairs(8, seed=4)
        for session in (parent, derived):
            np.testing.assert_allclose(
                session.effective_resistance(query),
                effective_resistance(session.graph, query),
                rtol=1e-8,
            )
        # One factorisation, of the parent's graph, shared by the rescale.
        assert [g is parent.graph for g in built] == [True]

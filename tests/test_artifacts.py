"""Tests for repro.artifacts: round-trip exactness, validation, checksums."""

import json
import struct
import zipfile

import numpy as np
import pytest

from repro.artifacts import (
    ARTIFACT_SCHEMA,
    ARTIFACT_VERSION,
    ArtifactFormatError,
    artifact_checksum,
    load_result,
    payload_checksum,
    save_artifact,
    save_result,
)
from repro.core.config import SGLConfig
from repro.core.instrumentation import StageTimings
from repro.core.sgl import SGLearner, learn_graph
from repro.graphs.generators import grid_2d
from repro.graphs.graph import WeightedGraph
from repro.measurements.generator import simulate_measurements


@pytest.fixture(scope="module")
def learned():
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=0)
    return learn_graph(data, beta=0.05)


def _tampered_npz(path, out, mutate):
    """Rewrite an npz with one entry replaced by ``mutate(name, data)``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    arrays = mutate(arrays)
    with open(out, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    return out


class TestRoundTrip:
    def test_graph_round_trip_is_exact(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "model.npz")
        artifact = load_result(path)
        assert artifact.graph == learned.graph
        # Stronger than __eq__ (which allows allclose weights): bit-exact.
        assert np.array_equal(artifact.graph.rows, learned.graph.rows)
        assert np.array_equal(artifact.graph.cols, learned.graph.cols)
        assert np.array_equal(artifact.graph.weights, learned.graph.weights)
        assert artifact.n_nodes == learned.graph.n_nodes

    def test_config_engine_stats_timings_round_trip(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "model.npz")
        artifact = load_result(path)
        assert artifact.config == learned.config
        assert np.isinf(artifact.config.sigma_sq)
        assert artifact.engine_stats == learned.engine_stats
        assert artifact.timings.as_dict() == learned.timings.as_dict()

    def test_embedding_round_trip_exact(self, learned, tmp_path):
        rng = np.random.default_rng(3)
        embedding = rng.standard_normal((learned.graph.n_nodes, 4))
        path = save_result(learned, tmp_path / "model.npz", embedding=embedding)
        artifact = load_result(path)
        assert np.array_equal(artifact.embedding, embedding)

    def test_default_embedding_is_computed(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "model.npz")
        artifact = load_result(path)
        assert artifact.has_embedding
        assert artifact.embedding.shape == (learned.graph.n_nodes, learned.config.r - 1)

    def test_no_embedding_mode(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz", include_embedding=False)
        artifact = load_result(path)
        assert not artifact.has_embedding and artifact.embedding is None

    def test_checkpoint_path_hook(self, tmp_path):
        data = simulate_measurements(grid_2d(6, 6), n_measurements=25, seed=1)
        path = tmp_path / "ckpt" / "model.npz"
        result = SGLearner(beta=0.05).fit(data, checkpoint_path=path)
        artifact = load_result(path)
        assert artifact.graph == result.graph
        assert "checkpoint" in result.timings.stages
        assert artifact.meta["source"] == "SGLearner.fit"

    def test_custom_config_round_trip(self, tmp_path):
        config = SGLConfig(k=7, r=4, sigma_sq=2.5, tol=1e-9)
        graph = grid_2d(4, 4)
        path = save_artifact(graph, config, tmp_path / "m.npz")
        artifact = load_result(path)
        assert artifact.config == config
        assert artifact.config.sigma_sq == 2.5


class TestMmapLoads:
    def test_uncompressed_round_trip_equivalence(self, learned, tmp_path):
        # The zero-copy path must be byte-for-byte equivalent to the eager
        # loader, embedding and metadata included.
        path = save_result(learned, tmp_path / "raw.npz", compress=False)
        eager = load_result(path)
        lazy = load_result(path, mmap_mode="r")
        assert lazy.mmapped and not eager.mmapped
        assert lazy.graph == eager.graph
        assert np.array_equal(lazy.graph.rows, eager.graph.rows)
        assert np.array_equal(lazy.graph.cols, eager.graph.cols)
        assert np.array_equal(lazy.graph.weights, eager.graph.weights)
        assert np.array_equal(lazy.embedding, eager.embedding)
        assert lazy.checksum == eager.checksum
        assert lazy.config == eager.config

    def test_mmap_arrays_are_memory_mapped(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "raw.npz", compress=False)
        artifact = load_result(path, mmap_mode="r")
        assert isinstance(artifact.graph.weights, np.memmap)

    def test_compressed_artifact_falls_back_to_eager(self, learned, tmp_path):
        # Compressed (deflated) members cannot be mapped: the loader must
        # degrade gracefully rather than fail or return garbage.
        path = save_result(learned, tmp_path / "packed.npz", compress=True)
        artifact = load_result(path, mmap_mode="r")
        assert not artifact.mmapped
        assert artifact.graph == learned.graph

    def test_mmap_checksum_still_validated(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "raw.npz", compress=False)

        def corrupt(arrays):
            arrays["graph_weights"] = arrays["graph_weights"].copy()
            arrays["graph_weights"][0] *= 2.0
            return arrays

        bad = _tampered_npz(path, tmp_path / "bad.npz", corrupt)
        with pytest.raises(ArtifactFormatError, match="checksum"):
            load_result(bad, mmap_mode="r")


class TestChecksum:
    def test_payload_checksum_deterministic_and_sensitive(self):
        a = {"x": np.arange(5, dtype=np.int64), "y": np.ones(3)}
        assert payload_checksum(a) == payload_checksum(dict(reversed(a.items())))
        mutated = {"x": np.arange(5, dtype=np.int64), "y": np.ones(3) * 2}
        assert payload_checksum(a) != payload_checksum(mutated)

    def test_artifact_checksum_matches_load(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")
        assert artifact_checksum(path) == load_result(path).checksum

    def test_same_model_same_checksum(self, learned, tmp_path):
        a = save_result(learned, tmp_path / "a.npz", include_embedding=False)
        b = save_result(learned, tmp_path / "b.npz", include_embedding=False)
        assert artifact_checksum(a) == artifact_checksum(b)

    def test_value_tamper_detected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")

        def corrupt(arrays):
            arrays["graph_weights"] = arrays["graph_weights"].copy()
            arrays["graph_weights"][0] *= 1.5
            return arrays

        bad = _tampered_npz(path, tmp_path / "bad.npz", corrupt)
        with pytest.raises(ArtifactFormatError, match="checksum"):
            load_result(bad)

    def test_bitflip_tamper_detected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")
        raw = bytearray(path.read_bytes())
        # Flip a byte provably inside a payload member's compressed
        # stream (a flip landing in redundant zip structure — e.g. the
        # local-header copy of a CRC — changes no stored data and is
        # legitimately invisible to the loader).
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("graph_weights.npy")
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        data_start = info.header_offset + 30 + name_len + extra_len
        raw[data_start + info.compress_size // 2] ^= 0xFF
        bad = tmp_path / "flip.npz"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ArtifactFormatError):
            load_result(bad)


class TestValidation:
    def _with_meta(self, path, out, update):
        def mutate(arrays):
            meta = json.loads(bytes(arrays["meta_json"].tobytes()))
            meta = update(meta)
            arrays["meta_json"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
            return arrays

        return _tampered_npz(path, out, mutate)

    def test_unknown_schema_version_rejected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")
        bad = self._with_meta(
            path, tmp_path / "v99.npz", lambda m: {**m, "schema_version": 99}
        )
        with pytest.raises(ArtifactFormatError, match="schema_version"):
            load_result(bad)

    def test_wrong_schema_name_rejected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")
        bad = self._with_meta(
            path, tmp_path / "name.npz", lambda m: {**m, "schema": "other"}
        )
        with pytest.raises(ArtifactFormatError, match="schema"):
            load_result(bad)

    def test_stored_compute_backend_field_is_dropped(self, learned, tmp_path):
        # Artifacts written before the compute-backend seam, the engine
        # choice, the multilevel engine's knobs, the cold eigensolver, the
        # sensitivity sketch and the initial-graph ablation were removed
        # carry their keys in the stored config.
        dropped = {
            "linalg_backend": "numpy",
            "refinement_backend": "lobpcg",
            "refine_dtype": "float32",
            "embedding_engine": "multilevel",
            "multilevel_coarse_size": 64,
            "multilevel_churn_threshold": 0.25,
            "eigensolver": "dense",
            "sensitivity_samples": 32,
            "initial_graph": "random-tree",
        }
        path = save_result(learned, tmp_path / "m.npz")
        old = self._with_meta(
            path,
            tmp_path / "old.npz",
            lambda m: {**m, "config": {**m["config"], **dropped}},
        )
        artifact = load_result(old)
        assert artifact.config == learned.config
        assert np.array_equal(artifact.graph.rows, learned.graph.rows)
        assert np.array_equal(artifact.graph.cols, learned.graph.cols)
        assert np.array_equal(artifact.graph.weights, learned.graph.weights)

    def test_removed_config_value_rejected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")
        removed = {"knn_backend": "nsw"}
        for key, value in removed.items():
            bad = self._with_meta(
                path,
                tmp_path / f"{key}.npz",
                lambda m: {**m, "config": {**m["config"], key: value}},
            )
            with pytest.raises(ArtifactFormatError, match=key):
                load_result(bad)

    def test_wrong_dtype_rejected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")

        def corrupt(arrays):
            arrays["graph_weights"] = arrays["graph_weights"].astype(np.float32)
            return arrays

        bad = _tampered_npz(path, tmp_path / "f32.npz", corrupt)
        with pytest.raises(ArtifactFormatError, match="dtype"):
            load_result(bad)

    def test_missing_array_rejected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")

        def corrupt(arrays):
            del arrays["graph_cols"]
            return arrays

        bad = _tampered_npz(path, tmp_path / "miss.npz", corrupt)
        with pytest.raises(ArtifactFormatError, match="graph_cols"):
            load_result(bad)

    def test_non_canonical_edges_rejected(self, learned, tmp_path):
        path = save_result(learned, tmp_path / "m.npz")

        def corrupt(arrays):
            rows = arrays["graph_rows"].copy()
            cols = arrays["graph_cols"].copy()
            rows[0], cols[0] = cols[0], rows[0]  # break rows < cols
            meta = json.loads(bytes(arrays["meta_json"].tobytes()))
            arrays["graph_rows"], arrays["graph_cols"] = rows, cols
            meta["checksum"] = payload_checksum(
                {k: v for k, v in arrays.items() if k != "meta_json"}
            )
            arrays["meta_json"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
            return arrays

        bad = _tampered_npz(path, tmp_path / "canon.npz", corrupt)
        with pytest.raises(ArtifactFormatError, match="canonical"):
            load_result(bad)

    def test_not_an_npz_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(ArtifactFormatError):
            load_result(path)

    def test_plain_npz_without_meta_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(ArtifactFormatError, match="meta_json"):
            load_result(path)

    def test_schema_constants(self):
        assert ARTIFACT_SCHEMA == "repro.model"
        assert ARTIFACT_VERSION == 1

    def test_embedding_shape_mismatch_rejected(self, tmp_path):
        graph = grid_2d(4, 4)
        with pytest.raises(ValueError, match="embedding"):
            save_artifact(
                graph, SGLConfig(), tmp_path / "m.npz",
                embedding=np.zeros((3, 2)),
            )

    def test_artifact_is_a_valid_zip(self, learned, tmp_path):
        # The format is a plain npz: standard tools can at least list it.
        path = save_result(learned, tmp_path / "m.npz")
        names = set(zipfile.ZipFile(path).namelist())
        assert {"meta_json.npy", "graph_rows.npy", "graph_weights.npy"} <= names


class TestLowLevel:
    def test_save_artifact_type_checks(self, tmp_path):
        with pytest.raises(TypeError, match="WeightedGraph"):
            save_artifact("nope", SGLConfig(), tmp_path / "m.npz")
        with pytest.raises(TypeError, match="SGLConfig"):
            save_artifact(grid_2d(3, 3), {"k": 5}, tmp_path / "m.npz")

    def test_empty_graph_round_trip(self, tmp_path):
        graph = WeightedGraph(5)
        path = save_artifact(graph, SGLConfig(), tmp_path / "empty.npz")
        artifact = load_result(path)
        assert artifact.graph.n_nodes == 5 and artifact.graph.n_edges == 0

    def test_timings_round_trip(self, tmp_path):
        timings = StageTimings()
        timings.add("embedding", 1.25)
        timings.add("embedding", 0.75)
        path = save_artifact(
            grid_2d(3, 3), SGLConfig(), tmp_path / "m.npz", timings=timings
        )
        loaded = load_result(path).timings
        assert loaded.seconds("embedding") == 2.0
        assert loaded.stages["embedding"].calls == 2

"""Tests for the binary frame protocol: codec round trips, malformed-frame
handling, and the TCP server speaking JSON lines and binary frames on one
port."""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro.artifacts import save_result
from repro.core.sgl import learn_graph
from repro.graphs.generators import grid_2d
from repro.linalg.pseudoinverse import effective_resistance
from repro.measurements.generator import simulate_measurements
from repro.serve import GraphService, serve_forever
from repro.serve.frames import (
    ENCODING_JSON,
    FRAME_MAGIC,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)


@pytest.fixture(scope="module")
def learned():
    data = simulate_measurements(grid_2d(7, 7), n_measurements=30, seed=0)
    return learn_graph(data, beta=0.05)


@pytest.fixture(scope="module")
def artifact_path(learned, tmp_path_factory):
    path = tmp_path_factory.mktemp("frames") / "model.npz"
    save_result(learned, path)
    return path


# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_meta_only_round_trip(self):
        payload = encode_frame({"kind": "stats"})
        meta, array, consumed = decode_frame(payload)
        assert meta == {"kind": "stats"}
        assert array is None
        assert consumed == len(payload)

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.int64, np.float32, np.int32]
    )
    def test_array_round_trip(self, dtype):
        values = np.arange(12, dtype=dtype).reshape(3, 4)
        payload = encode_frame({"ok": True}, array=values)
        meta, array, _ = decode_frame(payload)
        assert meta["ok"] is True
        assert array.dtype == np.dtype(dtype).newbyteorder("<")
        np.testing.assert_array_equal(array, values)

    def test_big_endian_normalised_on_the_wire(self):
        values = np.arange(4, dtype=">f8")
        payload = encode_frame({}, array=values)
        meta, array, _ = decode_frame(payload)
        assert meta["array"]["dtype"] == "<f8"
        np.testing.assert_array_equal(array.astype(float), values.astype(float))

    def test_two_frames_in_one_buffer(self):
        first = encode_frame({"id": 1})
        second = encode_frame({"id": 2}, array=np.ones(2))
        buffer = first + second
        meta1, _, consumed = decode_frame(buffer)
        meta2, array2, _ = decode_frame(buffer[consumed:])
        assert meta1["id"] == 1 and meta2["id"] == 2
        np.testing.assert_array_equal(array2, [1.0, 1.0])

    def test_bad_magic_rejected(self):
        payload = bytearray(encode_frame({}))
        payload[0:2] = b"ZZ"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(payload))

    def test_bad_version_rejected(self):
        payload = bytearray(encode_frame({}))
        payload[2] = 99
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(payload))

    def test_unknown_encoding_rejected(self):
        payload = bytearray(encode_frame({}))
        payload[3] = 42
        with pytest.raises(FrameError, match="encoding"):
            decode_frame(bytes(payload))

    def test_truncated_body_rejected(self):
        payload = encode_frame({}, array=np.ones(8))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(payload[:-4])

    def test_oversized_segment_rejected(self):
        header = struct.pack(">2sBBII", FRAME_MAGIC, 1, ENCODING_JSON,
                             2, 1 << 31)
        with pytest.raises(FrameError, match="too large"):
            decode_frame(header + b"{}")

    def test_corrupt_array_spec_rejected(self):
        payload = encode_frame({"array": {"dtype": "<f8", "shape": [5]}})
        with pytest.raises(FrameError, match="does not match"):
            decode_frame(payload)

    def test_meta_encodings_other_than_json_rejected(self):
        # Byte 3 once also allowed msgpack (1); JSON (0) is the only meta
        # encoding now, and any other value is refused, not guessed at.
        payload = bytearray(encode_frame({"x": 1}))
        assert payload[3] == ENCODING_JSON
        payload[3] = 1
        with pytest.raises(FrameError, match="encoding"):
            decode_frame(bytes(payload))


# ----------------------------------------------------------------------
class TestTCPBinaryProtocol:
    def _run_server(self, coroutine):
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
            try:
                return await coroutine(service, reader, writer)
            finally:
                writer.close()
                await writer.wait_closed()
                server.cancel()
                try:
                    await server
                except asyncio.CancelledError:
                    pass
                service.close()

        return asyncio.run(run())

    def test_binary_resistance_round_trip(self, learned, artifact_path):
        pairs = [[0, 48], [3, 9], [5, 5]]
        expected = effective_resistance(learned.graph, np.asarray(pairs[:2]))

        async def scenario(service, reader, writer):
            write_frame(writer, {
                "id": 11, "kind": "resistance",
                "artifact": str(artifact_path), "pairs": pairs,
            })
            await writer.drain()
            return await asyncio.wait_for(read_frame(reader), timeout=10)

        meta, array = self._run_server(scenario)
        assert meta["ok"] and meta["id"] == 11
        assert array.dtype == np.dtype("<f8")
        np.testing.assert_allclose(array[:2], expected, rtol=1e-8)
        assert array[2] == pytest.approx(0.0)

    def test_binary_neighbors_and_stats(self, artifact_path):
        async def scenario(service, reader, writer):
            write_frame(writer, {
                "kind": "neighbors", "artifact": str(artifact_path),
                "nodes": [0, 1], "k": 3,
            })
            await writer.drain()
            nbr = await asyncio.wait_for(read_frame(reader), timeout=10)
            write_frame(writer, {"kind": "stats"})
            await writer.drain()
            stats = await asyncio.wait_for(read_frame(reader), timeout=10)
            return nbr, stats

        (nbr_meta, nbr_array), (stats_meta, stats_array) = self._run_server(
            scenario
        )
        assert nbr_meta["ok"] and nbr_array.shape == (2, 3)
        assert 0 not in nbr_array[0]
        assert stats_meta["ok"] and stats_array is None
        assert stats_meta["result"]["sessions"]["loaded"] == 1
        counters = stats_meta["result"]["metrics"]["counters"]
        assert counters["serve.tcp.binary_frames"] >= 1

    def test_protocols_interleave_on_one_connection(self, artifact_path):
        async def scenario(service, reader, writer):
            # JSON line first...
            writer.write(json.dumps({
                "id": 1, "kind": "resistance",
                "artifact": str(artifact_path), "pairs": [[0, 48]],
            }).encode() + b"\n")
            await writer.drain()
            json_reply = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=10)
            )
            # ...then a binary frame on the same socket...
            write_frame(writer, {
                "id": 2, "kind": "resistance",
                "artifact": str(artifact_path), "pairs": [[0, 48]],
            })
            await writer.drain()
            frame_meta, frame_array = await asyncio.wait_for(
                read_frame(reader), timeout=10
            )
            # ...then JSON again.
            writer.write(json.dumps({"id": 3, "kind": "stats"}).encode() + b"\n")
            await writer.drain()
            stats_reply = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=10)
            )
            return json_reply, frame_meta, frame_array, stats_reply

        json_reply, frame_meta, frame_array, stats_reply = self._run_server(
            scenario
        )
        assert json_reply["ok"] and json_reply["id"] == 1
        assert frame_meta["ok"] and frame_meta["id"] == 2
        np.testing.assert_allclose(frame_array, json_reply["result"], rtol=1e-12)
        assert stats_reply["ok"] and stats_reply["id"] == 3

    def test_malformed_frame_gets_error_frame(self, artifact_path):
        async def scenario(service, reader, writer):
            # Correct magic, bogus version: the server must answer with an
            # error frame instead of dying.
            writer.write(FRAME_MAGIC + bytes([99, 0]) + struct.pack(">II", 0, 0))
            await writer.drain()
            return await asyncio.wait_for(read_frame(reader), timeout=10)

        meta, array = self._run_server(scenario)
        assert not meta["ok"]
        assert "bad frame" in meta["error"]

    def test_non_json_meta_frame_gets_error_and_connection_stays_in_step(self):
        async def scenario(service, reader, writer):
            rejected = bytearray(encode_frame({"kind": "stats"}))
            rejected[3] = 1  # the retired msgpack meta encoding
            writer.write(bytes(rejected))
            await writer.drain()
            error = await asyncio.wait_for(read_frame(reader), timeout=10)
            write_frame(writer, {"kind": "stats"})
            await writer.drain()
            return error, await asyncio.wait_for(read_frame(reader), timeout=10)

        (error, _), (stats, _) = self._run_server(scenario)
        assert not error["ok"] and "encoding" in error["error"]
        assert stats["ok"]

    def test_binary_error_response_for_bad_request(self, artifact_path):
        async def scenario(service, reader, writer):
            write_frame(writer, {"kind": "nope"})
            await writer.drain()
            return await asyncio.wait_for(read_frame(reader), timeout=10)

        meta, array = self._run_server(scenario)
        assert not meta["ok"] and "unknown request kind" in meta["error"]
        assert array is None

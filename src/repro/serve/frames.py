"""Length-prefixed binary frames for the serving TCP protocol.

The newline-JSON protocol re-encodes every numeric result as decimal text —
at 100k+ answers per second that text encoding is a measurable share of the
response path (``serve.tcp.serialize_ms``).  This module defines the binary
alternative that :func:`repro.serve.serve_forever` speaks on the same port:

.. code-block:: text

    offset  size  field
    ------  ----  -----------------------------------------------
    0       2     magic  b"RB"
    2       1     version (currently 1)
    3       1     meta encoding: 0 = JSON (utf-8), the only one
    4       4     meta length   (big-endian u32)
    8       4     body length   (big-endian u32)
    12      ...   meta bytes  (request/response object)
    12+m    ...   body bytes  (raw little-endian numpy buffer, may be empty)

Requests are the same objects the JSON protocol uses (``{"kind": ...}``),
just framed.  Responses carrying an array result describe it in the meta
(``meta["array"] = {"dtype": "<f8", "shape": [n]}``) and ship the values in
the body as the array's raw buffer — written to the transport as a
:class:`memoryview`, no per-value boxing, no text encoding.

The meta is always JSON: the encoding byte is kept so the header layout
stays fixed, and a frame carrying any other value is rejected with
:class:`FrameError`.

Examples
--------
>>> import numpy as np
>>> payload = encode_frame({"ok": True}, array=np.arange(3, dtype=np.float64))
>>> meta, array, consumed = decode_frame(payload)
>>> meta["ok"], array.tolist(), consumed == len(payload)
(True, [0.0, 1.0, 2.0], True)
"""

from __future__ import annotations

import json
import struct

import numpy as np

__all__ = [
    "ENCODING_JSON",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FrameError",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "read_frame_body",
    "write_frame",
]

FRAME_MAGIC = b"RB"
FRAME_VERSION = 1
ENCODING_JSON = 0

_HEADER = struct.Struct(">2sBBII")  # magic, version, encoding, meta len, body len

#: Ceiling on meta/body sizes (64 MiB each) — a corrupt length prefix fails
#: fast instead of waiting on gigabytes that will never arrive.
MAX_SEGMENT = 64 * 1024 * 1024


class FrameError(ValueError):
    """A malformed, unsupported, or oversized frame."""


def _load_meta(blob: bytes, encoding: int):
    # Checked only once the segments are read, so a stream stays in step
    # with its frames after rejecting one.
    if encoding != ENCODING_JSON:
        raise FrameError(f"unknown meta encoding {encoding!r} (0, JSON, is the only one)")
    return json.loads(blob)


def _array_body(meta: dict, array: np.ndarray) -> memoryview:
    """Describe ``array`` in ``meta`` and return its raw buffer."""
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # normalise to little-endian on the wire
        array = array.astype(array.dtype.newbyteorder("<"))
    meta["array"] = {"dtype": array.dtype.str, "shape": list(array.shape)}
    return memoryview(array).cast("B")


def _rebuild_array(meta: dict, body: bytes) -> np.ndarray | None:
    spec = meta.get("array") if isinstance(meta, dict) else None
    if spec is None:
        return None
    try:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(n) for n in spec["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"bad array spec in frame meta: {exc}") from exc
    try:
        return np.frombuffer(body, dtype=dtype).reshape(shape)
    except ValueError as exc:
        raise FrameError(f"frame body does not match array spec: {exc}") from exc


def _frame_parts(meta: dict, array: np.ndarray | None) -> tuple[bytes, bytes, bytes | memoryview]:
    """The header, meta and body segments of one frame."""
    meta = dict(meta)
    body = _array_body(meta, array) if array is not None else b""
    blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, ENCODING_JSON, len(blob), len(body))
    return header, blob, body


# ----------------------------------------------------------------------
# Byte-level codec (synchronous; used by clients and tests)
# ----------------------------------------------------------------------
def encode_frame(meta: dict, *, array: np.ndarray | None = None) -> bytes:
    """Serialise one frame to bytes.

    The meta travels as JSON; the array, if any, as its raw buffer.
    """
    return b"".join(_frame_parts(meta, array))


def decode_frame(buffer: bytes | memoryview):
    """Parse one frame from ``buffer``.

    Returns ``(meta, array_or_None, bytes_consumed)``; raises
    :class:`FrameError` on garbage and ``ValueError`` via ``struct`` on
    truncation shorter than a header.
    """
    view = memoryview(buffer)
    magic, version, encoding, meta_len, body_len = _HEADER.unpack_from(view)
    _check_header(magic, version, meta_len, body_len)
    end = _HEADER.size + meta_len + body_len
    if len(view) < end:
        raise FrameError(
            f"truncated frame: need {end} bytes, have {len(view)}"
        )
    meta = _load_meta(bytes(view[_HEADER.size : _HEADER.size + meta_len]), encoding)
    body = bytes(view[_HEADER.size + meta_len : end])
    return meta, _rebuild_array(meta, body), end


def _check_header(magic: bytes, version: int, meta_len: int, body_len: int) -> None:
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if meta_len > MAX_SEGMENT or body_len > MAX_SEGMENT:
        raise FrameError(
            f"frame segment too large (meta={meta_len}, body={body_len})"
        )


# ----------------------------------------------------------------------
# Stream-level codec (asyncio server/client)
# ----------------------------------------------------------------------
def write_frame(writer, meta: dict, *, array: np.ndarray | None = None) -> None:
    """Write one frame to an :class:`asyncio.StreamWriter` (no drain).

    The array body is handed to the transport as a :class:`memoryview` of
    the numpy buffer — zero-copy on the Python side.
    """
    header, blob, body = _frame_parts(meta, array)
    writer.write(header)
    writer.write(blob)
    if body:
        writer.write(body)


async def read_frame_body(reader, *, first: bytes = b""):
    """Read one frame whose first ``len(first)`` header bytes were consumed.

    The server sniffs the protocol by reading a single byte, then hands it
    back here via ``first``.  Returns ``(meta, array_or_None)``.
    Raises :class:`FrameError` on malformed frames and
    :class:`asyncio.IncompleteReadError` when the peer hangs up mid-frame.
    """
    header = first + await reader.readexactly(_HEADER.size - len(first))
    magic, version, encoding, meta_len, body_len = _HEADER.unpack(header)
    _check_header(magic, version, meta_len, body_len)
    blob = await reader.readexactly(meta_len)
    body = await reader.readexactly(body_len) if body_len else b""
    meta = _load_meta(blob, encoding)
    return meta, _rebuild_array(meta, body)


async def read_frame(reader):
    """Client-side convenience: read one full frame.

    Returns ``(meta, array_or_None)``.
    """
    return await read_frame_body(reader)

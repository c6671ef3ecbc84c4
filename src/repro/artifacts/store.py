"""Versioned, checksummed binary persistence of learned SGL models.

An SGL *model artifact* is a single ``.npz`` file bundling everything a
serving process needs to answer queries against a learned graph without
re-running the learner:

==================  =====================================================
npz key             contents
==================  =====================================================
``graph_rows``      canonical edge sources (``int64``, ``rows < cols``)
``graph_cols``      canonical edge targets (``int64``)
``graph_weights``   edge conductances (``float64``, strictly positive)
``embedding``       optional ``(N, r-1)`` spectral embedding (``float64``;
                    empty ``(0, 0)`` array when not stored)
``meta_json``       UTF-8 JSON blob (``uint8``): schema name + version,
                    ``n_nodes``, the :class:`~repro.core.SGLConfig` used,
                    ``engine_stats``, :class:`~repro.core.instrumentation.
                    StageTimings`, payload checksum and provenance
==================  =====================================================

Integrity is layered: :func:`load_result` checks the schema name, rejects
unknown schema versions, validates every array's dtype/shape/canonical-form
invariant, and recomputes the SHA-256 payload checksum over the binary
arrays before rebuilding the graph through the trusted constructor.  The
round trip is *exact*: ``load(save(result)).graph`` compares equal to
``result.graph`` down to bit-identical edge arrays and weights.

The payload checksum doubles as the artifact's identity: the serving layer
(:class:`repro.serve.GraphService`) keys its LRU session cache on it, so the
same model reached through two paths shares one session.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zipfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import SGLConfig
from repro.core.instrumentation import StageTimings
from repro.graphs.graph import WeightedGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core.sgl saves us)
    from repro.core.sgl import SGLResult

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_VERSION",
    "ArtifactFormatError",
    "ModelArtifact",
    "artifact_checksum",
    "load_result",
    "payload_checksum",
    "save_artifact",
    "save_result",
]

ARTIFACT_SCHEMA = "repro.model"
ARTIFACT_VERSION = 1

#: Required dtype of every payload array, enforced on save *and* load.
_PAYLOAD_DTYPES = {
    "graph_rows": np.dtype(np.int64),
    "graph_cols": np.dtype(np.int64),
    "graph_weights": np.dtype(np.float64),
    "embedding": np.dtype(np.float64),
}


class ArtifactFormatError(ValueError):
    """A model artifact is corrupt, truncated or from an unsupported schema."""


@dataclass(frozen=True)
class ModelArtifact:
    """A learned model loaded back from disk (see :func:`load_result`).

    Attributes
    ----------
    graph:
        The learned resistor network, bit-identical to what was saved.
    config:
        The :class:`~repro.core.SGLConfig` the model was learned with.
    embedding:
        The stored ``(N, r-1)`` spectral embedding, or ``None`` when the
        artifact was saved without one (resistance queries still work;
        nearest-neighbour queries need it).
    engine_stats:
        The learner's embedding-engine counters, or ``None``.
    timings:
        The learner's per-stage wall-clock counters (empty when not saved).
    checksum:
        SHA-256 payload checksum — the artifact's identity, used as the
        serving layer's session-cache key.
    meta:
        The full decoded metadata blob (provenance: ``created_at``, library
        versions, ``source``).
    mmapped:
        True when the payload arrays are read-only memory maps into the
        artifact file (``load_result(..., mmap_mode="r")`` on an
        uncompressed artifact) instead of in-heap copies.
    """

    graph: WeightedGraph
    config: SGLConfig
    embedding: np.ndarray | None
    engine_stats: dict | None
    timings: StageTimings
    checksum: str
    meta: dict = field(default_factory=dict)
    mmapped: bool = False

    @property
    def n_nodes(self) -> int:
        """Number of nodes of the stored graph."""
        return self.graph.n_nodes

    @property
    def has_embedding(self) -> bool:
        """Whether a spectral embedding was stored alongside the graph."""
        return self.embedding is not None


def payload_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the payload arrays in a canonical byte encoding.

    Each array contributes its name, dtype string, shape and C-order bytes,
    in sorted name order, so the checksum is independent of dict ordering
    and memory layout but sensitive to any value, dtype or shape change.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.artifacts import payload_checksum
    >>> a = {"x": np.arange(3, dtype=np.int64)}
    >>> b = {"x": np.arange(3, dtype=np.int64).copy()}
    >>> payload_checksum(a) == payload_checksum(b)
    True
    >>> payload_checksum({"x": np.arange(3, dtype=np.float64)}) == payload_checksum(a)
    False
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("ascii"))
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _environment_meta() -> dict:
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _config_to_meta(config: SGLConfig) -> dict:
    data = asdict(config)
    # JSON has no Infinity literal in the strict standard; encode the
    # sigma^2 -> inf default portably instead of leaning on Python's
    # non-standard ``Infinity`` token.
    if np.isinf(data["sigma_sq"]):
        data["sigma_sq"] = "inf"
    return data


def _config_from_meta(data: dict) -> SGLConfig:
    data = dict(data)
    # Older artifacts also store fields removed since: the compute backend,
    # the engine choice, the removed multilevel engine's knobs, the cold
    # eigensolver, the sensitivity sketch and the initial-graph ablation.
    for key in (
        "linalg_backend",
        "refinement_backend",
        "refine_dtype",
        "embedding_engine",
        "multilevel_coarse_size",
        "multilevel_churn_threshold",
        "eigensolver",
        "sensitivity_samples",
        "initial_graph",
    ):
        data.pop(key, None)
    if data.get("sigma_sq") == "inf":
        data["sigma_sq"] = np.inf
    try:
        return SGLConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"stored SGLConfig is invalid: {exc}") from exc


def save_artifact(
    graph: WeightedGraph,
    config: SGLConfig,
    path: str | Path,
    *,
    embedding: np.ndarray | None = None,
    engine_stats: dict | None = None,
    timings: StageTimings | None = None,
    source: str = "save_artifact",
    compress: bool = True,
) -> Path:
    """Low-level writer: persist a graph + config (+ optional extras).

    Most callers want :func:`save_result` (persist a whole
    :class:`~repro.core.sgl.SGLResult`) or the
    ``SGLearner.fit(checkpoint_path=...)`` hook; this entry point exists for
    models that did not come out of the learner (tests, external graphs).
    ``compress=False`` stores the payload arrays uncompressed
    (``np.savez``), which costs disk but lets :func:`load_result` serve
    them as zero-copy memory maps (``mmap_mode="r"``) — the trade the
    read-only serve path wants.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro.artifacts import load_result, save_artifact
    >>> from repro.core.config import SGLConfig
    >>> from repro.graphs.generators import grid_2d
    >>> path = os.path.join(tempfile.mkdtemp(), "model.npz")
    >>> _ = save_artifact(grid_2d(4, 4), SGLConfig(), path)
    >>> load_result(path).graph.n_nodes
    16
    """
    if not isinstance(graph, WeightedGraph):
        raise TypeError("graph must be a WeightedGraph")
    if not isinstance(config, SGLConfig):
        raise TypeError("config must be an SGLConfig")
    if embedding is not None:
        embedding = np.asarray(embedding, dtype=np.float64)
        if embedding.ndim != 2 or embedding.shape[0] != graph.n_nodes:
            raise ValueError(
                "embedding must be an (n_nodes, r) matrix matching the graph"
            )
    arrays = {
        "graph_rows": np.ascontiguousarray(graph.rows, dtype=np.int64),
        "graph_cols": np.ascontiguousarray(graph.cols, dtype=np.int64),
        "graph_weights": np.ascontiguousarray(graph.weights, dtype=np.float64),
        "embedding": (
            embedding if embedding is not None else np.empty((0, 0), dtype=np.float64)
        ),
    }
    meta = {
        "schema": ARTIFACT_SCHEMA,
        "schema_version": ARTIFACT_VERSION,
        "n_nodes": graph.n_nodes,
        "has_embedding": embedding is not None,
        "config": _config_to_meta(config),
        "engine_stats": engine_stats,
        "timings": (timings or StageTimings()).as_dict(),
        "checksum": payload_checksum(arrays),
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": _environment_meta(),
        "source": source,
    }
    meta_blob = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    writer = np.savez_compressed if compress else np.savez
    with path.open("wb") as handle:
        writer(handle, meta_json=meta_blob, **arrays)
    return path


def save_result(
    result: "SGLResult",
    path: str | Path,
    *,
    include_embedding: bool = True,
    embedding: np.ndarray | None = None,
    compress: bool = True,
) -> Path:
    """Persist a learned :class:`~repro.core.sgl.SGLResult` as a model artifact.

    Parameters
    ----------
    result:
        The learner's output; its graph, config, engine stats and stage
        timings are all stored.
    path:
        Target ``.npz`` path (parent directories are created).
    include_embedding:
        When True (default) and no explicit ``embedding`` is given, the
        spectral embedding of the *learned* graph is computed here (one
        eigensolve, using the result's own config) and stored, so serving
        can answer nearest-neighbour and cluster queries without touching
        an eigensolver at load time.
    embedding:
        Explicit ``(N, r-1)`` embedding matrix to store instead.
    compress:
        Forwarded to :func:`save_artifact`; ``False`` stores raw payloads
        that :func:`load_result` can memory-map.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import learn_graph, simulate_measurements
    >>> from repro.artifacts import load_result, save_result
    >>> from repro.graphs.generators import grid_2d
    >>> data = simulate_measurements(grid_2d(6, 6), n_measurements=30, seed=0)
    >>> result = learn_graph(data, beta=0.05)
    >>> path = os.path.join(tempfile.mkdtemp(), "grid.npz")
    >>> _ = save_result(result, path)
    >>> loaded = load_result(path)
    >>> loaded.graph == result.graph and loaded.has_embedding
    True
    """
    config = result.config
    if embedding is None and include_embedding:
        from repro.embedding.spectral import spectral_embedding_matrix

        embedding = spectral_embedding_matrix(
            result.graph,
            config.r,
            sigma_sq=config.sigma_sq,
            seed=config.seed,
        ).coordinates
    return save_artifact(
        result.graph,
        config,
        path,
        embedding=embedding,
        engine_stats=result.engine_stats,
        timings=result.timings,
        source="SGLearner.fit",
        compress=compress,
    )


def _load_meta(data) -> dict:
    if "meta_json" not in data:
        raise ArtifactFormatError("missing 'meta_json' entry (not a model artifact)")
    try:
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactFormatError(f"metadata blob is not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ArtifactFormatError("metadata blob must decode to an object")
    if meta.get("schema") != ARTIFACT_SCHEMA:
        raise ArtifactFormatError(
            f"schema must be {ARTIFACT_SCHEMA!r}, got {meta.get('schema')!r}"
        )
    if meta.get("schema_version") != ARTIFACT_VERSION:
        raise ArtifactFormatError(
            f"unsupported schema_version {meta.get('schema_version')!r} "
            f"(this reader supports {ARTIFACT_VERSION})"
        )
    return meta


def artifact_checksum(path: str | Path) -> str:
    """The stored payload checksum of an artifact, without full validation.

    Cheap enough to key a session cache on (the arrays are decompressed
    only by :func:`load_result`, which also *verifies* the checksum).
    """
    with np.load(Path(path), allow_pickle=False) as data:
        meta = _load_meta(data)
    checksum = meta.get("checksum")
    if not isinstance(checksum, str) or not checksum:
        raise ArtifactFormatError("metadata is missing the payload checksum")
    return checksum


def _mmap_payload(path: Path) -> dict[str, np.ndarray] | None:
    """Read-only memory maps of the payload arrays, or ``None`` if unmappable.

    ``np.load(mmap_mode=...)`` silently ignores the request for zip
    archives, so this maps the members by hand: locate each ``<name>.npy``
    member, require it to be stored uncompressed (``ZIP_STORED`` — deflate
    streams cannot be mapped), parse its local file header to find the
    absolute data offset, read the npy header there, and hand the rest of
    the member to :class:`numpy.memmap`.  Zero-element arrays are returned
    as plain empty arrays (a zero-length map is invalid).
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, path.open("rb") as raw:
        for name in _PAYLOAD_DTYPES:
            try:
                info = archive.getinfo(name + ".npy")
            except KeyError:
                return None
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            # The local file header's name/extra lengths may differ from the
            # central directory's, so the data offset must come from the
            # local header itself: 30 fixed bytes + name + extra.
            raw.seek(info.header_offset)
            header = raw.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                return None
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            try:
                version = np.lib.format.read_magic(raw)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
                else:
                    return None
            except ValueError:
                return None
            if dtype.hasobject:
                return None
            if int(np.prod(shape)) == 0:
                arrays[name] = np.empty(shape, dtype=dtype)
                continue
            arrays[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=raw.tell(),
                shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


def load_result(path: str | Path, *, mmap_mode: str | None = None) -> ModelArtifact:
    """Load and validate a model artifact written by :func:`save_result`.

    Validation layers, in order: npz readability, metadata JSON + schema
    name/version, presence/dtype/shape of every payload array, canonical
    edge-form invariants (``rows < cols``, lexsorted, duplicate-free,
    positive weights, endpoints within ``n_nodes``), and finally a SHA-256
    payload checksum recomputation.  Any violation raises
    :class:`ArtifactFormatError` naming the offending field.

    Parameters
    ----------
    path:
        Artifact ``.npz`` path.
    mmap_mode:
        ``"r"`` serves the payload arrays as read-only memory maps into the
        file instead of heap copies — pages are shared across processes and
        nothing is duplicated at load time, which is what the serving
        replicas want (ROADMAP item 4).  Requires an artifact saved with
        ``compress=False``; compressed artifacts fall back to a normal
        in-heap load (``ModelArtifact.mmapped`` tells which happened).
        Validation (including the checksum recomputation) still runs — it
        streams the mapped pages once but allocates no second copy.

    Returns
    -------
    ModelArtifact
        With the graph rebuilt through the trusted canonical constructor —
        i.e. without re-sorting — so the round trip is exact.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(
            f"mmap_mode must be None or 'r' (artifacts are immutable), "
            f"got {mmap_mode!r}"
        )
    path = Path(path)
    arrays: dict[str, np.ndarray] | None = None
    mmapped = False
    try:
        if mmap_mode is not None:
            arrays = _mmap_payload(path)
            mmapped = arrays is not None
        with np.load(path, allow_pickle=False) as data:
            meta = _load_meta(data)
            if arrays is None:
                arrays = {}
                for name in _PAYLOAD_DTYPES:
                    if name not in data:
                        raise ArtifactFormatError(f"missing payload array {name!r}")
                    arrays[name] = data[name]
        for name, dtype in _PAYLOAD_DTYPES.items():
            if arrays[name].dtype != dtype:
                raise ArtifactFormatError(
                    f"{name!r} must have dtype {dtype}, got {arrays[name].dtype}"
                )
    except (OSError, zipfile.BadZipFile, ValueError) as exc:
        if isinstance(exc, ArtifactFormatError):
            raise
        raise ArtifactFormatError(f"{path}: unreadable artifact ({exc})") from exc

    rows, cols, weights = (
        arrays["graph_rows"],
        arrays["graph_cols"],
        arrays["graph_weights"],
    )
    if not (rows.ndim == cols.ndim == weights.ndim == 1):
        raise ArtifactFormatError("edge arrays must be one-dimensional")
    if not (rows.shape == cols.shape == weights.shape):
        raise ArtifactFormatError("edge arrays must have identical lengths")
    n_nodes = meta.get("n_nodes")
    if not isinstance(n_nodes, int) or n_nodes < 0:
        raise ArtifactFormatError("metadata 'n_nodes' must be a non-negative integer")
    if rows.size:
        if rows.min() < 0 or max(int(rows.max()), int(cols.max())) >= n_nodes:
            raise ArtifactFormatError("edge endpoint out of range for n_nodes")
        if not np.all(rows < cols):
            raise ArtifactFormatError("edges are not in canonical rows < cols form")
        keys = rows * np.int64(n_nodes) + cols
        if not np.all(np.diff(keys) > 0):
            raise ArtifactFormatError("edges are not lexsorted and duplicate-free")
        if not np.all(weights > 0):
            raise ArtifactFormatError("edge weights must be strictly positive")
        if not np.all(np.isfinite(weights)):
            raise ArtifactFormatError("edge weights must be finite")

    stored_checksum = meta.get("checksum")
    if not isinstance(stored_checksum, str) or not stored_checksum:
        raise ArtifactFormatError("metadata is missing the payload checksum")
    actual = payload_checksum(arrays)
    if actual != stored_checksum:
        raise ArtifactFormatError(
            f"payload checksum mismatch (stored {stored_checksum[:12]}..., "
            f"recomputed {actual[:12]}...): artifact is corrupt"
        )

    embedding: np.ndarray | None = arrays["embedding"]
    if not meta.get("has_embedding", embedding.size > 0):
        embedding = None
    elif embedding.ndim != 2 or embedding.shape[0] != n_nodes:
        raise ArtifactFormatError(
            "stored embedding must be an (n_nodes, r) matrix"
        )

    graph = WeightedGraph._from_canonical(n_nodes, rows, cols, weights)
    engine_stats = meta.get("engine_stats")
    if engine_stats is not None and not isinstance(engine_stats, dict):
        raise ArtifactFormatError("metadata 'engine_stats' must be an object or null")
    timings_data = meta.get("timings", {})
    if not isinstance(timings_data, dict):
        raise ArtifactFormatError("metadata 'timings' must be an object")
    try:
        timings = StageTimings.from_dict(timings_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(f"metadata 'timings' is malformed: {exc}") from exc
    return ModelArtifact(
        graph=graph,
        config=_config_from_meta(meta.get("config", {})),
        embedding=embedding,
        engine_stats=engine_stats,
        timings=timings,
        checksum=stored_checksum,
        meta=meta,
        mmapped=mmapped,
    )

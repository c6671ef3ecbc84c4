"""Sharded model artifacts: per-shard ``.npz`` files under a checksummed manifest.

A partition-parallel fit (:class:`~repro.partition.ShardedSGLearner`)
produces a model too large to want in one file and naturally split along its
partition.  :func:`save_sharded_result` writes one directory:

``manifest.json``
    Schema/version header, the global :class:`~repro.core.SGLConfig`, the
    partition summary, stitch statistics and — crucially — the SHA-256
    payload checksum of every member file.  The manifest is written *last*,
    so an interrupted save never leaves a loadable half-model behind.
``shard_0000.npz`` … ``shard_NNNN.npz``
    One ordinary model artifact (:func:`repro.artifacts.save_artifact`
    schema) per shard: the shard's interior edges in shard-local node ids,
    plus a per-shard spectral embedding for serving-side kNN.
``boundary.npz``
    The partition assignment vector and the admitted cross-shard edges of
    the stitched graph (global node ids, final scaled weights).

:func:`load_sharded_result` re-validates everything — manifest schema, the
boundary payload checksum, each shard through the full
:func:`~repro.artifacts.load_result` validation stack *and* against the
manifest's recorded checksum, so both corruption and file swaps surface as
:class:`ShardManifestError` naming the offending member.

Examples
--------
>>> import tempfile
>>> from repro.artifacts import load_sharded_result, save_sharded_result
>>> from repro.graphs.generators import grid_2d
>>> from repro.measurements import simulate_measurements
>>> from repro.partition import ShardedSGLearner
>>> data = simulate_measurements(grid_2d(10, 10), n_measurements=30, seed=0)
>>> result = ShardedSGLearner(beta=0.05, num_parts=2).fit(data)
>>> directory = save_sharded_result(result, tempfile.mkdtemp())
>>> loaded = load_sharded_result(directory)
>>> loaded.n_parts, loaded.n_nodes
(2, 100)
>>> loaded.global_graph() == result.graph
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.artifacts.store import (
    ArtifactFormatError,
    ModelArtifact,
    _config_from_meta,
    _config_to_meta,
    _environment_meta,
    load_result,
    payload_checksum,
    save_artifact,
)
from repro.core.config import SGLConfig
from repro.graphs.graph import WeightedGraph

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ShardManifestError",
    "ShardedModelArtifact",
    "load_sharded_result",
    "save_sharded_result",
]

MANIFEST_SCHEMA = "repro.sharded-model"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
BOUNDARY_NAME = "boundary.npz"

_BOUNDARY_DTYPES = {
    "assignment": np.dtype(np.int64),
    "cut_rows": np.dtype(np.int64),
    "cut_cols": np.dtype(np.int64),
    "cut_weights": np.dtype(np.float64),
}


class ShardManifestError(ArtifactFormatError):
    """A sharded model directory is corrupt, tampered with or incomplete."""


@dataclass(frozen=True)
class ShardedModelArtifact:
    """A sharded model loaded back from disk (see :func:`load_sharded_result`).

    Attributes
    ----------
    directory:
        The model directory.
    manifest:
        The decoded, validated manifest blob.
    shards:
        Per-shard :class:`~repro.artifacts.ModelArtifact` objects
        (shard-local node ids).
    shard_nodes:
        Per-shard ascending global node ids (``shard_nodes[p][local]``).
    assignment:
        Length-``n_nodes`` node-to-shard map.
    cut_rows, cut_cols, cut_weights:
        The stitched graph's cross-shard edges, global ids, final weights.
    """

    directory: Path
    manifest: dict
    shards: tuple[ModelArtifact, ...]
    shard_nodes: tuple[np.ndarray, ...]
    assignment: np.ndarray
    cut_rows: np.ndarray
    cut_cols: np.ndarray
    cut_weights: np.ndarray
    config: SGLConfig = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def n_nodes(self) -> int:
        """Total number of nodes across all shards."""
        return int(self.manifest["n_nodes"])

    @property
    def n_parts(self) -> int:
        """Number of shards."""
        return int(self.manifest["n_parts"])

    @property
    def checksum(self) -> str:
        """Identity of the whole sharded model (hash of member checksums)."""
        digest = hashlib.sha256()
        for entry in self.manifest["shards"]:
            digest.update(entry["checksum"].encode("ascii"))
        digest.update(self.manifest["boundary"]["checksum"].encode("ascii"))
        return digest.hexdigest()

    def global_graph(self) -> WeightedGraph:
        """Reassemble the full stitched graph in global node ids.

        Exact: shard interiors are vertex-disjoint and the cut edges are
        stored verbatim, so this reproduces the saved graph bit for bit.
        """
        rows = [self.cut_rows]
        cols = [self.cut_cols]
        weights = [self.cut_weights]
        for nodes, shard in zip(self.shard_nodes, self.shards):
            rows.append(nodes[shard.graph.rows])
            cols.append(nodes[shard.graph.cols])
            weights.append(shard.graph.weights)
        return WeightedGraph(
            self.n_nodes,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(weights),
        )


def _shard_filename(part: int) -> str:
    return f"shard_{part:04d}.npz"


def save_sharded_result(
    result,
    directory: str | Path,
    *,
    include_embeddings: bool = True,
) -> Path:
    """Persist a :class:`~repro.partition.ShardedSGLResult` as a model directory.

    The final (stitched, scaled) graph is decomposed along the partition:
    each shard artifact stores its interior edges in local ids, the boundary
    file stores the cross-shard edges and the assignment vector.  With
    ``include_embeddings`` (default) each shard also gets a spectral
    embedding of its interior graph, so sharded serving can answer
    nearest-neighbour queries without an eigensolver at load time.

    The manifest is written only after every member file is on disk — a
    failed or interrupted save leaves no ``manifest.json``, so it can never
    be mistaken for a complete model.
    """
    from repro.embedding.spectral import spectral_embedding_matrix

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config = result.config
    graph = result.graph
    assignment = result.partition.assignment
    cross = assignment[graph.rows] != assignment[graph.cols]

    shard_entries = []
    for part, nodes in enumerate(result.shard_nodes):
        interior = ~cross & (assignment[graph.rows] == part)
        local_rows = np.searchsorted(nodes, graph.rows[interior])
        local_cols = np.searchsorted(nodes, graph.cols[interior])
        shard_graph = WeightedGraph(
            nodes.size, local_rows, local_cols, graph.weights[interior]
        )
        embedding = None
        if include_embeddings:
            embedding = spectral_embedding_matrix(
                shard_graph,
                config.r,
                sigma_sq=config.sigma_sq,
                seed=config.seed,
            ).coordinates
        shard_result = result.shard_results[part]
        path = save_artifact(
            shard_graph,
            config,
            directory / _shard_filename(part),
            embedding=embedding,
            engine_stats=shard_result.engine_stats,
            timings=shard_result.timings,
            source="ShardedSGLearner.fit",
        )
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"].tobytes()).decode("utf-8"))
        shard_entries.append(
            {
                "file": path.name,
                "checksum": meta["checksum"],
                "n_nodes": int(nodes.size),
                "n_edges": shard_graph.n_edges,
            }
        )

    boundary_arrays = {
        "assignment": np.ascontiguousarray(assignment, dtype=np.int64),
        "cut_rows": np.ascontiguousarray(graph.rows[cross], dtype=np.int64),
        "cut_cols": np.ascontiguousarray(graph.cols[cross], dtype=np.int64),
        "cut_weights": np.ascontiguousarray(graph.weights[cross], dtype=np.float64),
    }
    with (directory / BOUNDARY_NAME).open("wb") as handle:
        np.savez_compressed(handle, **boundary_arrays)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_VERSION,
        "n_nodes": graph.n_nodes,
        "n_parts": result.partition.n_parts,
        "n_edges": graph.n_edges,
        "scaling_factor": float(result.scaling_factor),
        "converged": bool(result.converged),
        "stitch_stats": result.stitch_stats,
        "partition": result.partition.as_dict(),
        "config": _config_to_meta(config),
        "shards": shard_entries,
        "boundary": {
            "file": BOUNDARY_NAME,
            "checksum": payload_checksum(boundary_arrays),
        },
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": _environment_meta(),
        "source": "ShardedSGLearner.fit",
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
    )
    return directory


def load_sharded_result(directory: str | Path) -> ShardedModelArtifact:
    """Load and validate a sharded model directory.

    Validation layers, in order: manifest presence + JSON + schema
    name/version, boundary array presence/dtype + payload-checksum
    recompute, assignment consistency, then every shard through
    :func:`~repro.artifacts.load_result`'s full validation stack *and*
    against the manifest's recorded checksum (so swapping in a different —
    even internally valid — shard artifact is caught).  Every failure
    raises :class:`ShardManifestError` naming the offending member.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ShardManifestError(
            f"{directory} has no {MANIFEST_NAME} (not a sharded model, or an "
            "interrupted save)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ShardManifestError(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ShardManifestError("manifest must be a JSON object")
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise ShardManifestError(
            f"unexpected schema {manifest.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    if manifest.get("schema_version") != MANIFEST_VERSION:
        raise ShardManifestError(
            f"unsupported schema version {manifest.get('schema_version')!r}"
        )
    for key in ("n_nodes", "n_parts", "shards", "boundary", "config"):
        if key not in manifest:
            raise ShardManifestError(f"manifest is missing {key!r}")
    n_nodes = int(manifest["n_nodes"])
    n_parts = int(manifest["n_parts"])
    if len(manifest["shards"]) != n_parts:
        raise ShardManifestError(
            f"manifest lists {len(manifest['shards'])} shards for "
            f"n_parts={n_parts}"
        )

    boundary_entry = manifest["boundary"]
    boundary_path = directory / boundary_entry["file"]
    try:
        with np.load(boundary_path) as data:
            boundary = {name: data[name] for name in _BOUNDARY_DTYPES if name in data}
            missing = sorted(set(_BOUNDARY_DTYPES) - set(boundary))
    except (OSError, ValueError) as exc:
        raise ShardManifestError(f"unreadable boundary file: {exc}") from exc
    if missing:
        raise ShardManifestError(f"boundary file is missing arrays: {missing}")
    for name, dtype in _BOUNDARY_DTYPES.items():
        if boundary[name].dtype != dtype:
            raise ShardManifestError(
                f"boundary array {name!r} has dtype {boundary[name].dtype}, "
                f"expected {dtype}"
            )
    if payload_checksum(boundary) != boundary_entry.get("checksum"):
        raise ShardManifestError(
            "boundary payload checksum mismatch (file corrupt or tampered)"
        )
    assignment = boundary["assignment"]
    if assignment.shape != (n_nodes,):
        raise ShardManifestError(
            f"assignment has shape {assignment.shape}, expected ({n_nodes},)"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= n_parts):
        raise ShardManifestError("assignment references out-of-range shards")

    shards = []
    shard_nodes = []
    for part, entry in enumerate(manifest["shards"]):
        path = directory / entry["file"]
        try:
            artifact = load_result(path)
        except ArtifactFormatError as exc:
            raise ShardManifestError(f"shard {part} ({entry['file']}): {exc}") from exc
        if artifact.checksum != entry.get("checksum"):
            raise ShardManifestError(
                f"shard {part} ({entry['file']}): checksum does not match the "
                "manifest (file replaced or tampered)"
            )
        nodes = np.where(assignment == part)[0]
        if artifact.graph.n_nodes != nodes.size:
            raise ShardManifestError(
                f"shard {part} has {artifact.graph.n_nodes} nodes but the "
                f"assignment gives it {nodes.size}"
            )
        shards.append(artifact)
        shard_nodes.append(nodes)

    return ShardedModelArtifact(
        directory=directory,
        manifest=manifest,
        shards=tuple(shards),
        shard_nodes=tuple(shard_nodes),
        assignment=assignment,
        cut_rows=boundary["cut_rows"],
        cut_cols=boundary["cut_cols"],
        cut_weights=boundary["cut_weights"],
        config=_config_from_meta(manifest["config"]),
    )

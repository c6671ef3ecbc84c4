"""Pluggable nearest-neighbour search backends for kNN graph construction.

Step 1 of SGL searches for the ``k`` nearest neighbours of every node in the
``M``-dimensional measurement space.  No single search structure wins at every
``(N, M)``: KD-trees are excellent in low dimensions but degrade to brute
force for ``M`` beyond ~15 (the paper's measurement counts are M = 50-100);
a blocked Gram-matrix brute force is exact and BLAS-bound at any ``M`` but
costs O(N^2 M); and a Johnson-Lindenstrauss sketch compresses the features to
O(log N) dimensions where a KD-tree works again, at the price of an exact
re-ranking pass over a slightly oversampled candidate set.

This module provides one index class per strategy, all exposing the same
``query(queries, k) -> (distances, indices)`` contract as
:meth:`scipy.spatial.cKDTree.query`, plus :func:`build_index` with an
``auto`` policy that picks a backend from the feature-matrix shape and —
because a KD-tree's pruning power depends on the features' *intrinsic*
dimension, not their ambient width ``M`` — a cheap subsampled-SVD
effective-rank probe (:func:`effective_rank`).  Measurement matrices of
smooth networks are numerically low-rank (a handful of Laplacian modes
dominate), and there the KD-tree keeps winning at any ``M``:

========== =============================== ==================================
backend     class                           chosen by ``auto`` when
========== =============================== ==================================
 kdtree     :class:`KDTreeIndex`            ``M <= 15``, or effective rank
                                            ``<= 8`` (tree pruning works)
 brute      :class:`BruteForceIndex`        high-rank features, ``N < 2048``
 jl         :class:`JLIndex`                high-rank features, ``N >= 2048``
========== =============================== ==================================

The same backend names are accepted by :func:`repro.knn.knn_edges`,
:func:`repro.knn.knn_graph`, ``SGLConfig.knn_backend`` and
``python -m repro.bench run --knn-backend``.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.measurements.jl import jl_projection_matrix

__all__ = [
    "BACKENDS",
    "BruteForceIndex",
    "JLIndex",
    "KDTreeIndex",
    "build_index",
    "effective_rank",
    "select_backend",
    "sketch_dimension",
]

#: KD-trees stop beating brute force around this feature dimension.
KDTREE_MAX_DIM = 15

#: Below this point count the O(N^2 M) brute force is cheap enough that the
#: JL projection + re-ranking machinery is not worth its constant factor.
JL_MIN_POINTS = 2048

#: Features whose effective rank (participation ratio of the covariance
#: spectrum) is at or below this stay on the KD-tree regardless of ``M``:
#: tree pruning tracks the intrinsic dimension, and the measurement matrices
#: of smooth networks concentrate on a handful of Laplacian modes.  Measured
#: on the bench scenarios: grids / FEM meshes / clouds sit at 1-7, the
#: irregular circuit grid at medium scale at ~13, iid noise near ``M``.
KDTREE_MAX_EFFECTIVE_RANK = 8.0

#: Row-subsample size of the effective-rank probe (keeps the probe's
#: O(rows * M^2) SVD in the sub-millisecond range).
_RANK_PROBE_ROWS = 512


def effective_rank(
    features: np.ndarray, *, max_rows: int = _RANK_PROBE_ROWS, seed: int = 0
) -> float:
    """Participation ratio of the feature covariance spectrum.

    ``(sum s_i^2)^2 / sum s_i^4`` over the singular values of the (row
    subsampled, mean-centred) feature matrix: ~1 when one direction
    dominates, ~M for isotropic noise.  Used by the ``auto`` policy as a
    cheap proxy for the intrinsic dimension KD-tree pruning depends on.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn.backends import effective_rank
    >>> rng = np.random.default_rng(0)
    >>> effective_rank(rng.standard_normal((500, 3)) @ rng.standard_normal((3, 40))) < 4
    True
    >>> effective_rank(rng.standard_normal((500, 40))) > 20
    True
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise ValueError("features must be a 2-D (N, M) array with N >= 2")
    if features.shape[0] > max_rows:
        rng = np.random.default_rng(seed)
        rows = rng.choice(features.shape[0], size=max_rows, replace=False)
        features = features[rows]
    spectrum = np.linalg.svd(features - features.mean(axis=0), compute_uv=False)
    power = spectrum**2
    total = power.sum()
    if total == 0:
        return 1.0
    power /= total
    return float(1.0 / np.sum(power**2))


def select_backend(
    n_points: int, n_dims: int, features: np.ndarray | None = None
) -> str:
    """The ``auto`` policy: pick a backend from the feature shape (and data).

    Low-dimensional features go to the exact KD-tree.  High-dimensional
    features are probed with :func:`effective_rank` when ``features`` is
    given: numerically low-rank measurement matrices stay on the KD-tree
    (its pruning tracks intrinsic dimension), while genuinely high-rank
    features go to the blocked-BLAS brute force, switching to the
    JL-projected search once ``N`` is large enough that O(N^2 M) hurts.
    Without ``features`` the policy is shape-only (high ``M`` counts as
    high-rank).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn.backends import select_backend
    >>> select_backend(1000, 3)
    'kdtree'
    >>> select_backend(1000, 50)
    'brute'
    >>> select_backend(5000, 50)
    'jl'
    >>> rng = np.random.default_rng(0)
    >>> smooth = rng.standard_normal((5000, 3)) @ rng.standard_normal((3, 50))
    >>> select_backend(5000, 50, smooth)     # low-rank: tree still prunes
    'kdtree'
    """
    if n_dims <= KDTREE_MAX_DIM:
        return "kdtree"
    if features is not None and effective_rank(features) <= KDTREE_MAX_EFFECTIVE_RANK:
        return "kdtree"
    if n_points >= JL_MIN_POINTS:
        return "jl"
    return "brute"


def sketch_dimension(n_points: int) -> int:
    """Default JL sketch dimension for *search*: ``Theta(log N)``, clamped.

    The theoretical distortion bound wants ``24 log N / eps^2`` dimensions
    (:func:`repro.measurements.jl.jl_measurement_count`), but for candidate
    generation followed by exact re-ranking a much smaller sketch suffices —
    and it is capped at :data:`KDTREE_MAX_DIM` so the inner KD-tree keeps
    its pruning power.

    Examples
    --------
    >>> from repro.knn.backends import sketch_dimension
    >>> sketch_dimension(5000)
    8
    >>> sketch_dimension(150_000)
    12
    """
    if n_points < 2:
        raise ValueError("need at least two points")
    return int(
        np.clip(int(np.ceil(np.log2(n_points))) * 2 // 3, 6, KDTREE_MAX_DIM)
    )


def _as_features(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D (N, M) array")
    if features.shape[0] < 2:
        raise ValueError("need at least two points")
    return features


def _rerank_exact(
    features: np.ndarray,
    queries: np.ndarray,
    candidates: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly re-rank per-query candidate sets by full-dimension distance.

    Distances are recomputed as ``sqrt(sum((x - q)^2))`` directly (never via
    the Gram expansion), accumulating the squares in the same order as
    :class:`scipy.spatial.cKDTree`'s compiled inner loop (4-wide unrolled
    partial sums combined left-to-right, sequential tail), so the returned
    values match a KD-tree's output bit for bit — that accumulation order
    is a compiled implementation detail of the scipy build; one that
    vectorises the KD-tree distance loop differently would reopen a
    last-ulp gap, which the equivalence tests would catch.  Ties are broken
    by candidate index for determinism.  (The JL backend re-ranks with its
    own faster float32/einsum path; only the brute backend carries the
    bitwise contract.)
    """
    diff = features[candidates] - queries[:, None, :]
    n_dims = features.shape[1]
    lanes = [np.zeros(candidates.shape, dtype=np.float64) for _ in range(4)]
    main = n_dims - n_dims % 4
    for dim in range(0, main, 4):
        for lane in range(4):
            component = diff[:, :, dim + lane]
            lanes[lane] += component * component
    dist2 = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
    for dim in range(main, n_dims):
        component = diff[:, :, dim]
        dist2 = dist2 + component * component
    order = np.lexsort((candidates, dist2), axis=-1)[:, :k]
    indices = np.take_along_axis(candidates, order, axis=1)
    distances = np.sqrt(np.take_along_axis(dist2, order, axis=1))
    return distances, indices


class BruteForceIndex:
    """Exact blocked-BLAS brute-force nearest-neighbour index.

    Distances are expanded as ``||q||^2 + ||x||^2 - 2 q.x`` so the dominant
    cost is one DGEMM per query block (memory-tiled to ``block_bytes``), with
    ``np.argpartition`` extracting a small candidate set per query that is
    then re-ranked with directly computed distances.  Exact at any ``M``;
    the right choice when ``M`` is too large for a KD-tree.

    Returned distances match :class:`scipy.spatial.cKDTree` bit for bit
    (same accumulation order; see :func:`_rerank_exact`), and on inputs
    whose distance ties do not straddle the ``k`` boundary the neighbour
    lists match too.  When a tie group does straddle ``k`` (e.g. more than
    ``k`` exact duplicates of a point), any exact algorithm must pick a
    subset: this index deterministically keeps the lowest indices, whereas
    a KD-tree's choice is traversal-order dependent.

    Parameters
    ----------
    features:
        ``(N, M)`` matrix of indexed points.
    block_bytes:
        Approximate memory budget of one query block's distance tile.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn.backends import BruteForceIndex
    >>> points = np.random.default_rng(0).standard_normal((40, 20))
    >>> distances, indices = BruteForceIndex(points).query(points, k=3)
    >>> indices.shape == (40, 3) and bool((indices[:, 0] == np.arange(40)).all())
    True
    """

    #: Extra candidates kept past ``k`` before exact re-ranking, protecting
    #: the top-k boundary from Gram-expansion rounding.
    _RERANK_PAD = 4

    def __init__(self, features: np.ndarray, *, block_bytes: int = 1 << 26) -> None:
        self._features = _as_features(features)
        self._sq_norms = np.einsum("ij,ij->i", self._features, self._features)
        self._block_bytes = int(block_bytes)

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._features.shape[0]

    @property
    def search_features(self) -> np.ndarray:
        """The matrix queries run against (the raw features)."""
        return self._features

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``k`` nearest neighbours of each query row.

        Returns ``(distances, indices)`` of shape ``(n_queries, k)``, sorted
        by ascending distance (ties broken by index).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = self.n_points
        k = min(int(k), n)
        if k < 1:
            raise ValueError("k must be at least 1")
        n_candidates = min(n, k + self._RERANK_PAD)
        block = max(1, self._block_bytes // (8 * n))
        out_d = np.empty((queries.shape[0], k))
        out_i = np.empty((queries.shape[0], k), dtype=np.int64)
        for start in range(0, queries.shape[0], block):
            q = queries[start:start + block]
            dist2 = q @ self._features.T
            dist2 *= -2.0
            dist2 += self._sq_norms[None, :]
            dist2 += np.einsum("ij,ij->i", q, q)[:, None]
            if n_candidates < n:
                candidates = np.argpartition(dist2, n_candidates - 1, axis=1)[
                    :, :n_candidates
                ]
            else:
                candidates = np.broadcast_to(
                    np.arange(n, dtype=np.int64), (q.shape[0], n)
                )
            distances, indices = _rerank_exact(self._features, q, candidates, k)
            # A distance-tie group straddling the candidate boundary means
            # argpartition chose arbitrary tie members; widen those rows to
            # the full tie group so the index tie-break stays deterministic
            # (exact duplicates of a point are the typical trigger).
            if n_candidates < n:
                boundary = np.take_along_axis(dist2, candidates, axis=1).max(axis=1)
                spilled = np.where(
                    (dist2 <= boundary[:, None]).sum(axis=1) > n_candidates
                )[0]
                for row in spilled:
                    full = np.where(dist2[row] <= boundary[row])[0]
                    distances[row], indices[row] = _rerank_exact(
                        self._features, q[row:row + 1], full[None, :], k
                    )
            out_d[start:start + q.shape[0]] = distances
            out_i[start:start + q.shape[0]] = indices
        return out_d, out_i


class KDTreeIndex:
    """Exact KD-tree index (:class:`scipy.spatial.cKDTree` wrapper).

    The historical default of :func:`repro.knn.knn_edges`; the right choice
    for low-dimensional features, where tree pruning makes queries
    ``O(N log N)`` overall.

    Parameters
    ----------
    features:
        ``(N, M)`` matrix of indexed points.
    eps:
        Branch-and-bound slack passed to every query: returned neighbours
        are within ``(1 + eps)`` of the true nearest.  0 (default) is exact;
        the JL backend uses a small positive slack for its candidate pass.
    leafsize:
        ``cKDTree`` leaf size.  Purely a performance knob (results are
        identical); larger leaves trade tree depth for per-leaf brute force
        and win for the oversampled candidate queries of the JL backend.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn.backends import KDTreeIndex
    >>> points = np.random.default_rng(0).standard_normal((30, 3))
    >>> distances, indices = KDTreeIndex(points).query(points[:5], k=2)
    >>> distances.shape, int(indices[0, 0])
    ((5, 2), 0)
    """

    def __init__(
        self, features: np.ndarray, *, eps: float = 0.0, leafsize: int = 16
    ) -> None:
        self._features = _as_features(features)
        self._tree = cKDTree(self._features, leafsize=leafsize)
        self._eps = float(eps)

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._features.shape[0]

    @property
    def search_features(self) -> np.ndarray:
        """The matrix queries run against (the raw features)."""
        return self._features

    @property
    def kdtree(self) -> cKDTree:
        """The underlying :class:`~scipy.spatial.cKDTree`.

        Exposed so auxiliary exact searches over the same points (e.g. the
        connectivity repair of :func:`repro.knn.knn_graph`) can reuse the
        built tree instead of paying a second O(N log N) construction.
        """
        return self._tree

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``k`` nearest neighbours of each query row (exact when ``eps=0``)."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(int(k), self.n_points)
        if k < 1:
            raise ValueError("k must be at least 1")
        distances, indices = self._tree.query(queries, k=k, eps=self._eps)
        if k == 1:
            distances = distances[:, None]
            indices = indices[:, None]
        return np.asarray(distances, dtype=np.float64), np.asarray(
            indices, dtype=np.int64
        )


class JLIndex:
    """JL-projected search: sketch to O(log N) dims, search, re-rank exactly.

    The ``(N, M)`` features are projected through the same random-sign
    Johnson-Lindenstrauss construction used for the paper's measurement
    matrix (:func:`repro.measurements.jl.jl_projection_matrix`), candidate
    neighbours are found in the sketch space with a KD-tree (a slightly
    oversampled ``k + oversample`` per query, with a small branch-and-bound
    slack), and the candidates are re-ranked against *full-dimension* exact
    distances.  The returned k sets are exact in practice (recall@k reaches
    >= 0.99 on the repo's measurement fixtures with ``oversample=16``);
    the returned distances always are exact.

    When the features are already no wider than the sketch would be, the
    projection is skipped entirely and queries delegate to an exact backend
    (``sketched`` is ``False``).

    Parameters
    ----------
    features:
        ``(N, M)`` matrix of indexed points.
    sketch_dim:
        Sketch width; defaults to :func:`sketch_dimension` of ``N``.
    oversample:
        Extra candidates retrieved past ``k`` before exact re-ranking;
        defaults to ``max(k, 8)``.
    seed:
        Seed of the random sign projection.
    eps:
        KD-tree slack for the sketch-space candidate pass (see
        :class:`KDTreeIndex`); candidate misses are compensated by
        ``oversample``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn.backends import JLIndex
    >>> points = np.random.default_rng(0).standard_normal((500, 40))
    >>> index = JLIndex(points, seed=0)
    >>> index.sketched
    True
    >>> distances, indices = index.query(points, k=4)
    >>> bool((indices[:, 0] == np.arange(500)).all())
    True
    >>> JLIndex(points[:, :4], seed=0).sketched  # M already <= sketch dim
    False
    """

    def __init__(
        self,
        features: np.ndarray,
        *,
        sketch_dim: int | None = None,
        oversample: int | None = None,
        seed: int | None = 0,
        eps: float = 0.5,
    ) -> None:
        self._features = _as_features(features)
        n, m = self._features.shape
        if sketch_dim is None:
            sketch_dim = sketch_dimension(n)
        if sketch_dim < 1:
            raise ValueError("sketch_dim must be at least 1")
        self.sketch_dim = int(sketch_dim)
        self.oversample = None if oversample is None else int(oversample)
        self.sketched = m > self.sketch_dim
        if not self.sketched:
            # Features are already at (or below) the sketch width: searching
            # the raw features exactly is both cheaper and error-free.
            self._projection = None
            self._sketch = None
            self._inner = (
                KDTreeIndex(self._features)
                if m <= KDTREE_MAX_DIM
                else BruteForceIndex(self._features)
            )
            return
        self._projection = jl_projection_matrix(m, self.sketch_dim, seed=seed)
        self._sketch = self._features @ self._projection
        self._inner = KDTreeIndex(self._sketch, eps=eps, leafsize=64)
        # Candidate ranking runs in float32 (half the memory traffic of the
        # gather); the final distances are recomputed exactly in float64.
        self._features32 = self._features.astype(np.float32)

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return self._features.shape[0]

    @property
    def search_features(self) -> np.ndarray:
        """The matrix candidate searches run against.

        The JL sketch when projection is active, the raw features otherwise.
        Exposed so downstream consumers (e.g. the connectivity repair of
        :func:`repro.knn.knn_graph`) can run auxiliary searches in the same
        compressed space instead of rebuilding full-dimension structures.
        """
        return self._sketch if self.sketched else self._inner.search_features

    @property
    def kdtree(self) -> "cKDTree | None":
        """The KD-tree over :attr:`search_features`, when one exists.

        ``None`` when the non-sketched fallback delegates to the brute-force
        backend (which has no tree to share).
        """
        return getattr(self._inner, "kdtree", None)

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``k`` (near-)nearest neighbours with exact full-dimension distances."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = self.n_points
        k = min(int(k), n)
        if k < 1:
            raise ValueError("k must be at least 1")
        if not self.sketched:
            return self._inner.query(queries, k)
        oversample = self.oversample if self.oversample is not None else max(k, 8)
        n_candidates = min(n, k + oversample)
        # Tile the query rows so the per-block candidate-diff tensors stay
        # around the same 64 MB budget the brute-force backend uses — one
        # untiled pass at paper scale (150k queries x 14 candidates x M)
        # would transiently allocate gigabytes.  Rows are independent, so
        # tiling is exactly result-preserving.
        m = self._features.shape[1]
        row_bytes = n_candidates * m * 4 + k * m * 8
        block = max(1, (1 << 26) // max(row_bytes, 1))
        out_distances = np.empty((queries.shape[0], k))
        out_indices = np.empty((queries.shape[0], k), dtype=np.int64)
        for start in range(0, queries.shape[0], block):
            chunk = queries[start : start + block]
            dist, idx = self._query_block(chunk, k, n_candidates)
            out_distances[start : start + block] = dist
            out_indices[start : start + block] = idx
        return out_distances, out_indices

    def _query_block(
        self, queries: np.ndarray, k: int, n_candidates: int
    ) -> tuple[np.ndarray, np.ndarray]:
        _, candidates = self._inner.query(queries @ self._projection, n_candidates)
        # Rank candidates by full-dimension distance in float32, then compute
        # the exact float64 distances of the k kept neighbours.
        queries32 = queries.astype(np.float32)
        diff32 = self._features32[candidates] - queries32[:, None, :]
        rank2 = np.einsum("ijk,ijk->ij", diff32, diff32)
        order = np.lexsort((candidates, rank2), axis=-1)[:, :k]
        indices = np.take_along_axis(candidates, order, axis=1)
        diff = self._features[indices] - queries[:, None, :]
        distances = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        # Restore exact ascending order (float32 ranking can leave last-ulp
        # inversions between near-tied neighbours).
        final = np.lexsort((indices, distances), axis=-1)
        return (
            np.take_along_axis(distances, final, axis=1),
            np.take_along_axis(indices, final, axis=1),
        )


#: Backend name -> index factory, as accepted by :func:`build_index`.
BACKENDS = {
    "brute": BruteForceIndex,
    "kdtree": KDTreeIndex,
    "jl": JLIndex,
}


def build_index(features: np.ndarray, backend: str = "auto", **options):
    """Build a nearest-neighbour index over the rows of ``features``.

    Parameters
    ----------
    features:
        ``(N, M)`` feature matrix.
    backend:
        ``"auto"`` (default; policy in :func:`select_backend`), ``"brute"``,
        ``"kdtree"`` or ``"jl"``.
    options:
        Backend-specific keyword arguments (e.g. ``seed=...`` for ``jl``,
        ``block_bytes=...`` for ``brute``).  A ``seed`` passed to a
        seedless backend is dropped, so callers can thread one
        unconditionally.

    Returns
    -------
    An index exposing ``query(queries, k) -> (distances, indices)``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.knn.backends import build_index
    >>> points = np.random.default_rng(0).standard_normal((100, 30))
    >>> type(build_index(points, "auto")).__name__  # M=30 -> brute force
    'BruteForceIndex'
    >>> type(build_index(points[:, :3], "auto")).__name__
    'KDTreeIndex'
    """
    features = _as_features(features)
    if backend == "auto":
        backend = select_backend(features.shape[0], features.shape[1], features)
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown kNN backend {backend!r}; "
            f"available: {sorted(BACKENDS) + ['auto']}"
        ) from None
    if factory is not JLIndex:
        options.pop("seed", None)
    return factory(features, **options)

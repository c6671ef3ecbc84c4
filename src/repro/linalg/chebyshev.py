"""Matrix-free Chebyshev-filtered subspace iteration for Laplacian eigenpairs.

The second refinement path of the multilevel V-cycle (after LOBPCG; plain
Rayleigh-Ritz serves token budgets).  Instead of preconditioned corrections,
the interpolated basis is passed through a degree-``d`` Chebyshev polynomial
filter ``p(L)`` scaled to damp the unwanted spectral interval ``[a, b]``
(``b`` = an upper bound on ``lambda_max`` from a few Lanczos steps, ``a`` =
the largest Ritz value of the current basis) while amplifying the wanted
low end.  Each filter application costs ``d`` sparse matrix-vector products
per basis column and *no* triangular solves, which makes it

* **matrix-free**: only ``L @ block`` is needed;
* **mixed-precision friendly**: the filter runs in float32 (half the memory
  traffic of the float64 LOBPCG path, and spmm is memory-bound), while
  acceptance runs in float64 — a Rayleigh-Ritz projection of the filtered
  basis followed by a residual check.  Rejected refinements fall back to the
  float64 LOBPCG path in :class:`~repro.linalg.MultilevelEigensolver`, so a
  failed filter can cost time but never accuracy.

This is the cheap-local-iterations / exact-global-acceptance pattern of the
divide-and-conquer convex optimisation literature (Emirov, Song & Sun,
arXiv:2510.01511), applied to the spectral-refinement wall of the SGL loop.

The recurrence is the scaled three-term form of Zhou & Saad's
Chebyshev-Davidson filter: with ``e = (b - a) / 2`` and ``c = (b + a) / 2``,

.. math::

    Y_1 = \\frac{\\sigma_1}{e} (L X - c X), \\qquad
    Y_{j} = \\frac{2 \\sigma_j}{e} (L Y_{j-1} - c Y_{j-1})
            - \\sigma_{j-1} \\sigma_j Y_{j-2},

where the ``sigma`` scalars normalise the polynomial at the amplification
point (0 for a Laplacian's low end) so intermediate blocks stay O(1) — the
property that makes the float32 loop numerically safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import WeightedGraph
from repro.linalg.eigen import rayleigh_ritz

__all__ = [
    "ChebyshevOutcome",
    "chebyshev_filter",
    "chebyshev_refine",
    "lanczos_spectral_bound",
]


def _as_csr(graph_or_laplacian) -> sp.csr_matrix:
    if isinstance(graph_or_laplacian, WeightedGraph):
        return graph_or_laplacian.laplacian()
    return sp.csr_matrix(graph_or_laplacian)


def lanczos_spectral_bound(
    graph_or_laplacian, *, steps: int = 10, seed: int | None = 0
) -> float:
    """Upper bound on the largest Laplacian eigenvalue via ``steps`` Lanczos steps.

    Returns ``min(theta_max + ||f||, gershgorin)`` where ``theta_max`` is the
    largest Ritz value of the Lanczos tridiagonal, ``||f||`` the final
    residual norm (the classic Chebyshev-filter safeguard: the true
    ``lambda_max`` lies within the last residual of its Ritz estimate), and
    ``gershgorin`` the max absolute row sum — a guaranteed bound that caps
    the estimate whenever the short recurrence is pessimistic.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg.chebyshev import lanczos_spectral_bound
    >>> graph = grid_2d(12, 12)
    >>> bound = lanczos_spectral_bound(graph, steps=8, seed=0)
    >>> exact = float(np.linalg.eigvalsh(graph.laplacian().toarray()).max())
    >>> bool(exact <= bound <= 2.0 * exact)
    True
    """
    lap = _as_csr(graph_or_laplacian)
    n = lap.shape[0]
    if steps < 1:
        raise ValueError("steps must be at least 1")
    gershgorin = float(np.abs(lap).sum(axis=1).max()) if n else 0.0
    if n <= 2:
        return gershgorin

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    basis: list[np.ndarray] = []
    alphas: list[float] = []
    offdiag: list[float] = []
    beta = 0.0
    for j in range(min(steps, n - 1)):
        w = lap @ v
        alpha = float(v @ w)
        w -= alpha * v
        if j > 0:
            w -= beta * basis[-1]
        # Full reorthogonalisation: the basis is tiny (<= steps vectors),
        # and it keeps the tridiagonal trustworthy in the clustered-spectrum
        # cases the SGL graphs produce.
        for u in basis:
            w -= (u @ w) * u
        basis.append(v)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta <= 1e-12 * max(gershgorin, 1.0):
            beta = 0.0
            break
        v = w / beta
        offdiag.append(beta)
    tri = np.diag(alphas)
    if len(alphas) > 1:
        off = np.asarray(offdiag[: len(alphas) - 1])
        tri += np.diag(off, 1) + np.diag(off, -1)
    theta_max = float(np.linalg.eigvalsh(tri).max())
    return float(min(theta_max + beta, gershgorin)) if gershgorin else theta_max + beta


def chebyshev_filter(
    matrix,
    block,
    degree: int,
    lower: float,
    upper: float,
):
    """Apply the scaled degree-``degree`` Chebyshev filter ``p(matrix) @ block``.

    Damps the interval ``[lower, upper]`` and amplifies eigencomponents below
    ``lower`` (the polynomial is normalised at 0, the Laplacian's low end).
    The computation stays in ``block``'s dtype — float32 blocks get float32
    filtering.

    Examples
    --------
    The filter drives a perturbed eigenvector back towards the dominant low
    eigenspace (path graph, smallest nontrivial mode):

    >>> import numpy as np
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg.chebyshev import chebyshev_filter, lanczos_spectral_bound
    >>> from repro.linalg.eigen import laplacian_eigenpairs
    >>> graph = grid_2d(10, 10)
    >>> lap = graph.laplacian()
    >>> _, exact = laplacian_eigenpairs(graph, 1, method="dense")
    >>> rng = np.random.default_rng(0)
    >>> noisy = exact + 0.1 * rng.standard_normal(exact.shape)
    >>> noisy -= noisy.mean(axis=0)        # deflate the constant null vector
    >>> filtered = chebyshev_filter(lap, noisy, 8, 0.5, lanczos_spectral_bound(graph))
    >>> cos = abs(exact[:, 0] @ filtered[:, 0]) / np.linalg.norm(filtered[:, 0])
    >>> bool(cos > 0.99)
    True
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not upper > lower > 0:
        raise ValueError("need upper > lower > 0 for the damped interval")
    half_width = (upper - lower) / 2.0
    center = (upper + lower) / 2.0
    # sigma_1 normalises the polynomial at the amplification point 0.
    sigma_one = half_width / (0.0 - center)
    sigma = sigma_one
    prev = block
    current = (matrix @ block - center * block) * (sigma_one / half_width)
    for _ in range(2, degree + 1):
        sigma_next = 1.0 / (2.0 / sigma_one - sigma)
        update = matrix @ current - center * current
        new = (2.0 * sigma_next / half_width) * update - (sigma * sigma_next) * prev
        prev, current = current, new
        sigma = sigma_next
    return current


@dataclass(frozen=True)
class ChebyshevOutcome:
    """Result of one mixed-precision filtered refinement.

    Attributes
    ----------
    eigenvalues, eigenvectors:
        Float64 Ritz pairs extracted from the filtered basis (ascending;
        meaningful even when ``accepted`` is False, for diagnostics).
    residual:
        The acceptance statistic: max over the wanted pairs of
        ``||L v - lambda v|| / bound`` — a backward error relative to the
        spectral scale, so it is comparable across graphs whose edge
        weights differ by orders of magnitude.
    accepted:
        ``residual <= accept_tol`` and every value finite; rejected outcomes
        are the caller's cue to fall back to a float64 path.
    reason:
        ``"ok"`` when accepted; otherwise why not: ``"window"`` means the
        wanted eigenvalues sit so far below the spectral bound that no
        affordable polynomial degree can separate them (required degree
        above ``degree_headroom * max_degree``) — the filter was *not*
        applied and the caller should route to a preconditioned solver;
        ``"residual"`` means the filter ran but its float64 acceptance
        residual failed.
    degree, steps:
        Filter degree and number of filter+QR rounds applied.
    bound, window:
        The Lanczos upper bound ``b`` and the damped interval's lower edge
        ``a`` actually used.
    dtype:
        The filtering dtype (``"float32"`` / ``"float64"``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float
    accepted: bool
    reason: str
    degree: int
    steps: int
    bound: float
    window: float
    dtype: str


def chebyshev_refine(
    graph_or_laplacian,
    basis: np.ndarray,
    k: int,
    *,
    steps: int = 1,
    degree: int = 10,
    dtype=np.float32,
    accept_tol: float = 5e-2,
    bound: float | None = None,
    lanczos_steps: int = 10,
    max_degree: int = 120,
    degree_headroom: float = 4.0,
    seed: int | None = 0,
) -> ChebyshevOutcome:
    """Refine an approximate low eigenbasis by filtered subspace iteration.

    Runs ``steps`` rounds of (Chebyshev filter -> constant-mode deflation ->
    QR) in ``dtype``, then extracts float64 Ritz pairs with an exact
    Rayleigh-Ritz projection and computes the acceptance residual.  The low-precision loop can only propose a subspace; the
    float64 projection decides what is returned, so an accepted outcome is
    exactly as trustworthy as its residual.

    Parameters
    ----------
    graph_or_laplacian:
        Graph or (sparse) Laplacian.
    basis:
        ``(n, m)`` approximate basis with ``m >= k`` (e.g. the prolongated
        coarse eigenvectors of a V-cycle).
    k:
        Number of wanted smallest nontrivial eigenpairs.
    steps, degree:
        Filter rounds and polynomial degree (``steps * degree`` spmm's per
        basis column).
    dtype:
        Filtering precision; float32 halves the spmm memory traffic.
    accept_tol:
        Acceptance threshold on ``residual`` (see
        :class:`ChebyshevOutcome`); NaN/Inf always reject.
    bound:
        Optional precomputed spectral upper bound; by default
        :func:`lanczos_spectral_bound` runs with ``lanczos_steps`` steps.
    max_degree:
        Cap on the adaptive per-round degree.  The degree is scaled like
        ``1 / sqrt(window / bound)`` so each round delivers an O(10)
        amplification of the wanted modes over the damped interval; the cap
        bounds the spmm cost when the spectrum is badly conditioned.
        Callers should size it against the matvec cost (``degree * nnz``).
    degree_headroom:
        Feasibility margin for the polynomial regime.  Resolving the wanted
        modes needs degree ~ ``2.5 / sqrt(window / bound)``; when that
        exceeds ``degree_headroom * max_degree`` the spectrum is declared
        polynomial-intractable for the affordable budget, the filter is
        skipped entirely (no spmm cost paid) and the outcome comes back
        rejected with ``reason="window"`` — the cue to use a preconditioned
        float64 solver instead.  SGL trajectory graphs (near-trees with
        ``lambda_2 / lambda_max ~ 1e-10``, required degree ~100k) trip
        this at any scale; meshes and circuits at a few thousand nodes
        (ratio ``>= 1e-6``, generous ``max_degree``) do not.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs.generators import grid_2d
    >>> from repro.linalg.chebyshev import chebyshev_refine
    >>> from repro.linalg.eigen import laplacian_eigenpairs
    >>> graph = grid_2d(14, 14)
    >>> exact_vals, exact_vecs = laplacian_eigenpairs(graph, 3, method="dense")
    >>> rng = np.random.default_rng(1)
    >>> start = exact_vecs + 0.05 * rng.standard_normal(exact_vecs.shape)
    >>> outcome = chebyshev_refine(graph, start, 3, steps=2, degree=8)
    >>> outcome.accepted, outcome.dtype
    (True, 'float32')
    >>> bool(np.allclose(outcome.eigenvalues, exact_vals, atol=5e-3))
    True
    """
    lap = _as_csr(graph_or_laplacian)
    n = lap.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    basis = np.asarray(basis, dtype=np.float64).reshape(n, -1)
    if basis.shape[1] < k:
        raise ValueError("basis must have at least k columns")
    if bound is None:
        bound = lanczos_spectral_bound(lap, steps=lanczos_steps, seed=seed)
    bound = float(bound)

    native = lap.astype(dtype)
    refined = basis - basis.mean(axis=0, keepdims=True)

    def clip_window(value: float) -> float:
        if not np.isfinite(value) or value <= 0:
            value = 0.1 * bound
        return min(max(value, 1e-6 * bound), 0.95 * bound)

    window = 0.0
    used_degree = int(degree)
    for round_index in range(max(steps, 1)):
        # Chebyshev-Davidson windowing (float64): compress to the k best
        # Ritz vectors and read the damped interval's lower edge off the
        # first *discarded* Ritz value when the basis is wider than k (the
        # prolongated + warm-start columns of a V-cycle) — everything from
        # lambda_{k+1} up is damped, not just the spectrum above the whole
        # basis.  A width-k basis falls back to its largest Ritz value.
        ritz_values, ritz_vectors = rayleigh_ritz(lap, refined)
        raw_window = float(ritz_values[k if len(ritz_values) > k else k - 1])
        if round_index == 0:
            ratio = raw_window / bound if bound > 0 else 0.0
            needed = np.inf if ratio <= 0 else 2.5 / np.sqrt(ratio)
            if needed > degree_headroom * max_degree:
                # Polynomial-intractable for the affordable budget: bail
                # out before paying any filter cost and let the caller
                # route to a preconditioned solver.  The Ritz pairs of the
                # *input* basis are still returned for diagnostics.
                values, vectors = ritz_values[:k], ritz_vectors[:, :k]
                return ChebyshevOutcome(
                    eigenvalues=values,
                    eigenvectors=vectors,
                    residual=float("inf"),
                    accepted=False,
                    reason="window",
                    degree=0,
                    steps=0,
                    bound=bound,
                    window=raw_window,
                    dtype=np.dtype(dtype).name,
                )
        window = clip_window(raw_window)
        # The filter's per-round gain over the damped interval behaves like
        # cosh(degree * sqrt(2 window / bound)): when the wanted eigenvalues
        # sit orders of magnitude below the spectral bound (the SGL regime -
        # tree-like graphs have lambda_2/lambda_max ~ 1e-3..1e-4), a fixed
        # low degree amplifies by only ~1.2x per round and refinement
        # stalls.  Scale the degree like 1/sqrt(window/bound) so every round
        # delivers an O(10) gain, capped to keep the spmm cost bounded;
        # ``degree`` acts as the floor.
        gain_degree = int(np.ceil(2.5 / np.sqrt(window / bound)))
        round_degree = int(min(max(degree, gain_degree), max(max_degree, degree)))
        used_degree = max(used_degree, round_degree)

        block = np.asarray(ritz_vectors[:, :k], dtype=dtype)
        block = chebyshev_filter(native, block, round_degree, window, bound)
        # Deflate float32 leakage along the constant null vector before the
        # next round amplifies it again (p(0) is the filter's maximum).
        block = block - block.mean(axis=0, keepdims=True)
        block, _ = np.linalg.qr(block)
        refined = np.asarray(block, dtype=np.float64)

    # Float64 acceptance: exact Rayleigh-Ritz projection + residual check.
    values, vectors = rayleigh_ritz(lap, refined)
    values, vectors = values[:k], vectors[:, :k]
    degree = used_degree
    residual_block = lap @ vectors - vectors * values[None, :]
    residual = float(np.linalg.norm(residual_block, axis=0).max() / max(bound, 1e-300))
    accepted = bool(
        np.isfinite(residual)
        and np.isfinite(values).all()
        and residual <= accept_tol
    )
    return ChebyshevOutcome(
        eigenvalues=values,
        eigenvectors=vectors,
        residual=residual,
        accepted=accepted,
        reason="ok" if accepted else "residual",
        degree=int(degree),
        steps=int(max(steps, 1)),
        bound=bound,
        window=window,
        dtype=np.dtype(dtype).name,
    )

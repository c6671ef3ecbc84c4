"""Minimal Matrix-Market (.mtx) reader/writer for graph Laplacians and adjacencies.

The paper's test matrices come from the SuiteSparse collection, which is
distributed in Matrix-Market coordinate format.  This module implements the
subset of the format needed to exchange symmetric sparse matrices (pattern or
real, general or symmetric) so that users with access to the original matrices
can load them directly into the reproduction, and so that learned graphs can
be exported to standard tooling.

We intentionally implement the parser by hand (rather than calling
``scipy.io.mmread``) so that the library can round-trip graphs — as opposed to
raw matrices — including the convention of interpreting an SPD/Laplacian-like
matrix as a resistor network.
"""

from __future__ import annotations

import pathlib
from typing import TextIO

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import WeightedGraph

__all__ = ["read_matrix_market", "write_matrix_market", "read_matrix_market_matrix"]


def _open(path_or_file: str | pathlib.Path | TextIO, mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def read_matrix_market_matrix(path_or_file: str | pathlib.Path | TextIO) -> sp.csr_matrix:
    """Read a Matrix-Market coordinate file into a CSR matrix.

    Supports ``real``, ``integer`` and ``pattern`` fields with ``general`` or
    ``symmetric`` symmetry.  Array (dense) format and complex fields are not
    supported and raise :class:`ValueError`.
    """
    handle, should_close = _open(path_or_file, "r")
    try:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("not a MatrixMarket file (missing %%MatrixMarket header)")
        tokens = header.strip().split()
        if len(tokens) < 5:
            raise ValueError("malformed MatrixMarket header")
        _, obj, fmt, field, symmetry = tokens[:5]
        obj, fmt, field, symmetry = (s.lower() for s in (obj, fmt, field, symmetry))
        if obj != "matrix" or fmt != "coordinate":
            raise ValueError("only coordinate matrices are supported")
        if field not in {"real", "integer", "pattern"}:
            raise ValueError(f"unsupported field type: {field}")
        if symmetry not in {"general", "symmetric", "skew-symmetric"}:
            raise ValueError(f"unsupported symmetry: {symmetry}")

        # Skip comments.
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        n_rows, n_cols, n_entries = (int(x) for x in line.split())

        rows = np.empty(n_entries, dtype=np.int64)
        cols = np.empty(n_entries, dtype=np.int64)
        data = np.empty(n_entries, dtype=np.float64)
        for i in range(n_entries):
            parts = handle.readline().split()
            rows[i] = int(parts[0]) - 1
            cols[i] = int(parts[1]) - 1
            data[i] = 1.0 if field == "pattern" else float(parts[2])
    finally:
        if should_close:
            handle.close()

    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
    if symmetry == "symmetric":
        off = matrix.row != matrix.col
        mirror = sp.coo_matrix(
            (matrix.data[off], (matrix.col[off], matrix.row[off])), shape=matrix.shape
        )
        matrix = (matrix + mirror).tocoo()
    elif symmetry == "skew-symmetric":
        off = matrix.row != matrix.col
        mirror = sp.coo_matrix(
            (-matrix.data[off], (matrix.col[off], matrix.row[off])), shape=matrix.shape
        )
        matrix = (matrix + mirror).tocoo()
    return matrix.tocsr()


def read_matrix_market(path_or_file: str | pathlib.Path | TextIO) -> WeightedGraph:
    """Read a Matrix-Market file and interpret it as a resistor network.

    If the matrix is a valid graph Laplacian (or close to one, e.g. an SPD
    circuit matrix with small diagonal loading), the off-diagonal structure is
    used: edge weights are the negated off-diagonal entries.  Otherwise the
    matrix is treated as a weighted adjacency matrix.
    """
    matrix = read_matrix_market_matrix(path_or_file)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("graph matrices must be square")
    off_diag = matrix - sp.diags(matrix.diagonal())
    if off_diag.nnz and off_diag.min() < 0:
        # Laplacian-like: negative off-diagonals encode conductances.
        return WeightedGraph.from_laplacian(matrix)
    return WeightedGraph.from_adjacency(matrix)


def write_matrix_market(
    path_or_file: str | pathlib.Path | TextIO,
    graph: WeightedGraph,
    *,
    representation: str = "laplacian",
    comment: str | None = None,
) -> None:
    """Write a graph in Matrix-Market symmetric coordinate format.

    Parameters
    ----------
    representation:
        ``"laplacian"`` writes ``L = D - W`` (lower triangle), matching how
        circuit matrices are stored in SuiteSparse; ``"adjacency"`` writes the
        weighted adjacency lower triangle.
    """
    if representation not in {"laplacian", "adjacency"}:
        raise ValueError("representation must be 'laplacian' or 'adjacency'")
    matrix = graph.laplacian() if representation == "laplacian" else graph.adjacency()
    lower = sp.tril(matrix, k=0).tocoo()
    handle, should_close = _open(path_or_file, "w")
    try:
        handle.write("%%MatrixMarket matrix coordinate real symmetric\n")
        if comment:
            for line in comment.splitlines():
                handle.write(f"% {line}\n")
        handle.write(f"{matrix.shape[0]} {matrix.shape[1]} {lower.nnz}\n")
        for i, j, v in zip(lower.row, lower.col, lower.data):
            handle.write(f"{i + 1} {j + 1} {v:.17g}\n")
    finally:
        if should_close:
            handle.close()

"""Sparse banded matrices used for refinement masks and assembled transforms."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch

__all__ = ["BandMatrix"]


class BandMatrix:
    """Sparse real matrix stored as (row, col, value) triples.

    Thin wrapper around a CSR matrix that enforces the invariants of the
    triple representation (entries within the declared dimensions, no
    duplicate positions) and provides the plain-text export used by the
    mask file format.
    """

    __slots__ = ("rows", "cols", "csr")

    def __init__(self, rows: int, cols: int, row_idx, col_idx, values):
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative matrix dimensions {rows}x{cols}")
        if not (row_idx.shape == col_idx.shape == values.shape):
            raise DimensionMismatch("triple arrays must have equal length")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= rows:
                raise DimensionMismatch("row index outside declared dimensions")
            if col_idx.min() < 0 or col_idx.max() >= cols:
                raise DimensionMismatch("column index outside declared dimensions")
            flat = row_idx * cols + col_idx
            if np.unique(flat).size != flat.size:
                raise DimensionMismatch("duplicate (row, col) positions")
        self.rows = int(rows)
        self.cols = int(cols)
        self.csr = sp.csr_matrix((values, (row_idx, col_idx)), shape=(rows, cols))

    @classmethod
    def from_dense(cls, a) -> "BandMatrix":
        a = np.asarray(a, dtype=np.float64)
        r, c = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], r, c, a[r, c])

    @classmethod
    def from_csr(cls, m) -> "BandMatrix":
        m = sp.csr_matrix(m)
        coo = m.tocoo()
        return cls(m.shape[0], m.shape[1], coo.row, coo.col, coo.data)

    @classmethod
    def identity(cls, n: int) -> "BandMatrix":
        idx = np.arange(n)
        return cls(n, n, idx, idx, np.ones(n))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def T(self) -> "BandMatrix":
        return BandMatrix.from_csr(self.csr.T)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector (or matrix-matrix) product with a dense array."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.cols:
            raise DimensionMismatch(
                f"operand has leading dimension {x.shape[0]}, expected {self.cols}"
            )
        return self.csr @ x

    def __matmul__(self, other):
        if isinstance(other, BandMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch("inner dimensions do not match")
            return BandMatrix.from_csr(self.csr @ other.csr)
        return self.apply(other)

    def triples(self):
        """Yield (row, col, value) sorted by row then column."""
        coo = self.csr.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for i in order:
            yield int(coo.row[i]), int(coo.col[i]), float(coo.data[i])

    def column_abs_pow_sums(self, p: float) -> np.ndarray:
        """Column sums of |a_ij|^p, including all-zero columns."""
        csc = self.csr.tocsc()
        col_of_entry = np.repeat(np.arange(self.cols), np.diff(csc.indptr))
        out = np.zeros(self.cols)
        np.add.at(out, col_of_entry, np.abs(csc.data) ** p)
        return out

    def __repr__(self) -> str:
        return f"BandMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

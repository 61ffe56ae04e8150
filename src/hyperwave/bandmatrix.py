"""Sparse banded matrices used for refinement masks and assembled transforms."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = ["BandMatrix"]

_INDEX_MAX = np.iinfo(np.int64).max


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class BandMatrix:
    """Sparse real matrix stored as (row, col, value) triples.

    The triples are validated (entries within the declared dimensions, no
    duplicate positions), sorted by (row, col) and read-only.  Products
    with dense operands run in numpy over the two-scale diagonals
    row = 2*col + d: each diagonal is cut into runs of consecutive
    columns, and M @ x adds ``v * x[c0:c0+n]`` into every second row
    ``y[2*c0+d::2]`` of each run.  Running the diagonals by
    descending d for M @ x, and by ascending d for M^T @ x, adds the terms
    of each output entry in the order scipy's CSR and CSC kernels do.
    Each direction keeps a plan, made once from the runs, that cuts them
    where an output entry gets its first term: such a piece writes its
    products straight into the output, the others add theirs, and only the
    entries no run reaches are zeroed.  Adding 0.0 once at the end turns an
    all -0.0 sum into +0.0, as a sum started from zeros does, so both
    products are bitwise equal to ``csr @ x`` and ``csr.T @ x``, except for
    the sign of a NaN made where two NaNs meet in one sum.  Along another
    axis of an n-D operand, that axis takes the place of the rows and each
    term runs over all the other axes at once.  The products take dense
    operands only; a sparse product goes through ``csr``, the scipy CSR copy
    built on its first use, which is the only place scipy is imported.  A
    matrix made by ``from_csr`` keeps that CSR and derives its triples from
    it when they are asked for, without keeping them.  The lazily filled
    fields, the plan of each direction included, are written once.
    """

    __slots__ = ("rows", "cols", "_entries", "_csr", "_plans")

    def __init__(self, rows: int, cols: int, row_idx, col_idx, values):
        row_idx = np.array(row_idx, dtype=np.int64)
        col_idx = np.array(col_idx, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
        self.rows, self.cols = _check_dims(rows, cols)
        if not (row_idx.ndim == 1 and row_idx.shape == col_idx.shape == values.shape):
            raise DimensionMismatch("triple arrays must be 1-D and of equal length")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= rows:
                raise DimensionMismatch("row index outside declared dimensions")
            if col_idx.min() < 0 or col_idx.max() >= cols:
                raise DimensionMismatch("column index outside declared dimensions")
            dr, dc = np.diff(row_idx), np.diff(col_idx)
            if not ((dr > 0) | ((dr == 0) & (dc > 0))).all():
                order = np.lexsort((col_idx, row_idx))
                row_idx, col_idx, values = row_idx[order], col_idx[order], values[order]
                dr, dc = np.diff(row_idx), np.diff(col_idx)
                if ((dr == 0) & (dc == 0)).any():
                    raise DimensionMismatch("duplicate (row, col) positions")
        self._entries = _read_only(row_idx, col_idx, values)
        self._csr = None
        self._plans = {}

    @classmethod
    def from_dense(cls, a) -> "BandMatrix":
        a = np.asarray(a, dtype=np.float64)
        r, c = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], r, c, a[r, c])

    @classmethod
    def from_csr(cls, m) -> "BandMatrix":
        """Wrap a scipy sparse matrix, keeping it (index-sorted) as the CSR.

        The matrix is taken over, not copied: it must not be modified in
        place afterwards.
        """
        import scipy.sparse as sp

        if not isinstance(m, sp.csr_matrix):
            m = sp.csr_matrix(m)
        if not m.has_sorted_indices:
            m = m.sorted_indices()
        self = cls.__new__(cls)
        self.rows, self.cols = _check_dims(*m.shape)
        rows, cols = _csr_rows(m), m.indices
        if cols.size:
            if cols.min() < 0 or cols.max() >= self.cols:
                raise DimensionMismatch("column index outside declared dimensions")
            # Sorted rows hold a duplicate only as two equal neighbours.
            if ((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])).any():
                raise DimensionMismatch("duplicate (row, col) positions")
        self._entries = None
        self._csr = m
        self._plans = {}
        return self

    @classmethod
    def identity(cls, n: int) -> "BandMatrix":
        idx = np.arange(n)
        return cls(n, n, idx, idx, np.ones(n))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 rows, int64 columns and float64 values, sorted by
        (row, col)."""
        if self._entries is not None:
            return self._entries
        m = self._csr
        return _read_only(_csr_rows(m), m.indices.astype(np.int64), m.data.copy())

    @property
    def csr(self):
        """The matrix as a scipy CSR matrix, built on first use."""
        if self._csr is None:
            import scipy.sparse as sp

            r, c, v = self._entries
            self._csr = sp.csr_matrix((v, (r, c)), shape=self.shape)
        return self._csr

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return self._csr.nnz if self._entries is None else self._entries[2].size

    @property
    def T(self) -> "BandMatrix":
        r, c, v = self.entries()
        return BandMatrix(self.cols, self.rows, c, r, v)

    def to_dense(self) -> np.ndarray:
        r, c, v = self.entries()
        out = np.zeros(self.shape)
        # Adding each value to 0.0, as scipy's toarray does, turns -0.0 into 0.0.
        out[r, c] = v + 0.0
        return out

    def _diagonals(self) -> list[tuple[int, int, np.ndarray]]:
        """Runs (d, c0, values) of consecutive columns c0, c0+1, ... on the
        diagonal row = 2*col + d, by ascending d and then c0."""
        r, c, v = self.entries()
        d = r - 2 * c
        order = np.lexsort((c, d))
        d, c, v = d[order], c[order], v[order]
        v.setflags(write=False)
        cuts = np.flatnonzero((d[1:] != d[:-1]) | (c[1:] != c[:-1] + 1)) + 1
        bounds = zip(np.r_[0, cuts].tolist(), np.r_[cuts, d.size].tolist())
        return [(int(d[s]), int(c[s]), v[s:e]) for s, e in bounds if e > s]

    def _plan(self, transpose: bool):
        """The terms of M @ x, or of M^T @ x, in their order of addition:
        (first, dst, src, v) per piece of a run, ``first`` telling whether
        the piece gives each of its output entries its first term; and the
        output entries that no run reaches."""
        plan = self._plans.get(transpose)
        if plan is None:
            runs = self._diagonals()
            written = np.zeros(self.cols if transpose else self.rows, dtype=bool)
            steps = []
            for d, c0, v in runs if transpose else reversed(runs):
                coarse = np.arange(c0, c0 + v.size)
                targets = coarse if transpose else 2 * coarse + d
                seen = written[targets]
                cuts = np.flatnonzero(seen[1:] != seen[:-1]) + 1
                for s, e in zip([0, *cuts.tolist()], [*cuts.tolist(), v.size]):
                    fine = slice(2 * (c0 + s) + d, 2 * (c0 + e) + d - 1, 2)
                    piece = slice(c0 + s, c0 + e)
                    dst, src = (piece, fine) if transpose else (fine, piece)
                    steps.append((not seen[s], dst, src, v[s:e]))
                written[targets] = True
            plan = self._plans[transpose] = (tuple(steps), np.flatnonzero(~written))
        return plan

    def _operand(self, x, length: int, axis: int | None) -> tuple[np.ndarray, int]:
        x = np.asarray(x, dtype=np.float64)
        if axis is None:
            if x.ndim not in (1, 2):
                raise DimensionMismatch(f"operand must be 1-D or 2-D, got {x.ndim}-D")
            axis = 0
        elif not 0 <= axis < x.ndim:
            raise DimensionMismatch(f"axis {axis} out of range for a {x.ndim}-D operand")
        if x.shape[axis] != length:
            raise DimensionMismatch(
                f"operand has length {x.shape[axis]} along axis {axis}, expected {length}"
            )
        return x, axis

    def apply(self, x, axis: int | None = None) -> np.ndarray:
        """M @ x for a 1-D or 2-D array, or along ``axis`` of an n-D array."""
        return self._accumulate(*self._operand(x, self.cols, axis), transpose=False)

    def apply_transpose(self, x, axis: int | None = None) -> np.ndarray:
        """M^T @ x for a 1-D or 2-D array, or along ``axis`` of an n-D array."""
        return self._accumulate(*self._operand(x, self.rows, axis), transpose=True)

    def _accumulate(self, x, axis: int, transpose: bool) -> np.ndarray:
        """The product along ``axis`` of ``x``, written to an output laid out
        as ``x`` is: a strided or permuted view of a larger grid is read where
        it lies, and each term runs over the other axes in memory order."""
        steps, untouched = self._plan(transpose)
        shape = list(x.shape)
        shape[axis] = self.cols if transpose else self.rows
        out = np.empty_like(x, shape=shape)
        x, y = x.swapaxes(0, axis), out.swapaxes(0, axis)
        if untouched.size:
            y[untouched] = 0.0
        # Like scipy's kernels, do not warn about inf - inf or overflow.
        with np.errstate(invalid="ignore", over="ignore"):
            for first, dst, src, v in steps:
                w = v if x.ndim == 1 else v.reshape((-1,) + (1,) * (x.ndim - 1))
                if first:
                    np.multiply(w, x[src], out=y[dst])
                else:
                    y[dst] += w * x[src]
            out += 0.0
        return out

    def column_abs_pow_sums(self, p: float) -> np.ndarray:
        """Column sums of |a_ij|^p, including all-zero columns; each column
        is summed by ascending row."""
        _, c, v = self.entries()
        return np.bincount(c, weights=np.abs(v) ** p, minlength=self.cols)

    def __repr__(self) -> str:
        return f"BandMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _check_dims(rows, cols) -> tuple[int, int]:
    if rows < 0 or cols < 0:
        raise DimensionMismatch(f"negative matrix dimensions {rows}x{cols}")
    if rows > _INDEX_MAX or cols > _INDEX_MAX:
        raise DimensionMismatch(f"matrix dimensions {rows}x{cols} beyond int64")
    return int(rows), int(cols)


def _csr_rows(m) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, as int64."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))

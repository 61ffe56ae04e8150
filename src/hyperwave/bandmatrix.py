"""Sparse banded matrices used for refinement masks and assembled transforms."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = ["BandMatrix"]

_INDEX_MAX = np.iinfo(np.int64).max
PRODUCT_TERMS = 2 ** 15  # terms of one block of ``dot`` or ``matmul``: 256 KB per array
_TERM_BITS = PRODUCT_TERMS.bit_length()
_CODE_BITS = 62 - _TERM_BITS


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
    term runs over all the other axes at once.

    A matrix that is not banded (an assembled transform) multiplies through
    ``dot``, ``matmul`` and ``product_defect``, which also give scipy's
    bits: each entry sums its terms in ascending shared index from 0.0.
    The lazily filled plans of the two directions are written once.
    """

    __slots__ = ("rows", "cols", "_entries", "_plans")

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
        self._plans = {}

    @classmethod
    def from_dense(cls, a) -> "BandMatrix":
        a = np.asarray(a, dtype=np.float64)
        r, c = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], r, c, a[r, c])

    @classmethod
    def _adopt(cls, rows: int, cols: int, *triples) -> "BandMatrix":
        """A matrix that takes over new, valid triples sorted by (row, col)."""
        self = cls.__new__(cls)
        self.rows, self.cols, self._entries, self._plans = rows, cols, _read_only(*triples), {}
        return self

    @classmethod
    def identity(cls, n: int) -> "BandMatrix":
        idx = np.arange(n)
        return cls(n, n, idx, idx, np.ones(n))

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 rows, int64 columns and float64 values, sorted by
        (row, col)."""
        return self._entries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return self._entries[2].size

    @property
    def T(self) -> "BandMatrix":
        r, c, v = self._entries
        order = np.argsort(c, kind="stable")  # by (col, row): the rows are sorted
        return BandMatrix._adopt(self.cols, self.rows, c[order], r[order], v[order])

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

    @np.errstate(invalid="ignore", over="ignore")  # as scipy's kernels
    def dot(self, x, transpose: bool = False) -> np.ndarray:
        """M @ x, or M^T @ x, for a 1-D x or a 2-D x of k columns, bitwise
        equal to ``csr @ x`` and ``csr.T @ x``: each output entry adds its
        terms in order of the entries to 0.0, through ``np.add.at``, which
        adds in index order, at most ``PRODUCT_TERMS`` terms at a time."""
        size, length = (self.rows, self.cols)[::-1 if transpose else 1]
        x, _ = self._operand(x, length, None)
        k = 1 if x.ndim == 1 else x.shape[1]
        r, c, v = self._entries
        dst, src = (c, r) if transpose else (r, c)
        xs, out = x.reshape(length, k), np.zeros(size * k)
        step = max(PRODUCT_TERMS // max(k, 1), 1)
        for s in range(0, v.size, step):
            e = s + step
            code = dst[s:e] if k == 1 else ((dst[s:e] * k)[:, None] + np.arange(k)).ravel()
            np.add.at(out, code, (v[s:e, None] * xs[src[s:e]]).ravel())
        return out.reshape((size,) + x.shape[1:])

    @np.errstate(invalid="ignore", over="ignore")  # as scipy's kernels
    def matmul(self, other: "BandMatrix", transpose: bool = False) -> "BandMatrix":
        """M @ B, or M^T @ B, with the entries of scipy's ``csr_matmat``:
        each the sum of its terms in ascending shared index, added to 0.0
        one at a time, and those that sum to exactly zero dropped."""
        size = self.cols if transpose else self.rows
        n, blocks = self._product(other, transpose)
        # Room for every term: the pages past the entries found are never touched.
        out, end = [np.empty(min(n, size * other.cols), t) for t in (np.int64,) * 2 + (float,)], 0
        for found in blocks:
            for field, part in zip(out, found):
                field[end:end + part.size] = part
            end += found[0].size
        return BandMatrix._adopt(size, other.cols, *(field[:end] for field in out))

    @np.errstate(invalid="ignore", over="ignore")
    def product_defect(self, other: "BandMatrix", eye: bool = True) -> float:
        """max |p_ij - [eye and i == j]| over the entries p_ij of M^T @ B,
        ``matmul(other, transpose=True)``, NaN if one is NaN: what scipy gives
        for ``abs(product - identity).max()``, or for ``abs(product).max()``
        without ``eye``.  The product is reduced block by block, never held;
        of M^T M, whose entries mirror bit for bit, only the upper half."""
        worst, diagonal = np.float64(0.0), 0
        for rows, cols, sums in self._product(other, True, other is self)[1]:
            on = (rows == cols) & eye
            diagonal += np.count_nonzero(on)
            worst = np.maximum(worst, np.abs(sums - on).max(initial=0.0))
        if eye and diagonal < min(self.cols, other.cols):
            worst = np.maximum(worst, 1.0)  # an absent diagonal entry reads 0 - 1
        return float(worst)

    def _product(self, other: "BandMatrix", transpose: bool, upper: bool = False):
        """The number of terms of M @ B, or of M^T @ B, and its entries
        (rows, cols, sums), made by blocks of output rows.

        The terms are made row by row in ascending shared index; M^T is read
        through the order of M's entries by column, not built.  The terms of
        a block, at most ``PRODUCT_TERMS``, are sorted by entry, ties in the
        order made, and ``np.bincount`` adds each entry's terms in that
        order from 0.0; a row of more terms is added chunk by chunk, in
        order, by ``np.add.at`` into a dense row.  Zero sums are dropped."""
        size = self.cols if transpose else self.rows
        if (self.rows if transpose else self.cols) != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape}{'^T' if transpose else ''} "
                                    f"by {other.shape}")
        if size * other.cols >> _CODE_BITS:
            raise DimensionMismatch(f"a {size}x{other.cols} product is beyond 2^{_CODE_BITS} cells")
        r, k, v = self._entries
        if transpose:
            r, k = k, r
        order = np.argsort(r, kind="stable") if transpose else slice(None)
        br, bc, bv = other._entries
        bptr = _pointer(np.bincount(br, minlength=other.rows))
        # The first entry of B each entry of M meets; for the upper half of
        # M^T M, the entry (k, i) itself, the first of row k at a column >= i.
        start = order if upper else bptr[k[order]]
        made = _pointer(bptr[k[order] + 1] - start)  # the terms before each entry of M
        cum = made[_pointer(np.bincount(r, minlength=size))]  # and before each row

        def terms(t0, t1):
            e0, e1 = int(np.searchsorted(made, t0, side="right")) - 1, int(np.searchsorted(made, t1))
            e = order[e0:e1] if transpose else slice(e0, e1)
            cnt = np.diff(np.clip(made[e0:e1 + 1], t0, t1))
            pos = np.repeat(start[e0:e1] - made[e0:e1], cnt) + np.arange(t0, t1)
            return np.repeat(r[e], cnt), bc[pos], np.repeat(v[e], cnt) * bv[pos]

        def blocks():
            r0 = 0
            while r0 < size:
                r1 = max(int(np.searchsorted(cum, cum[r0] + PRODUCT_TERMS, side="right")) - 1,
                         r0 + 1)
                t0, t1 = int(cum[r0]), int(cum[r1])
                if t1 - t0 > PRODUCT_TERMS:
                    acc = np.zeros(other.cols)
                    for s in range(t0, t1, PRODUCT_TERMS):
                        np.add.at(acc, *terms(s, min(s + PRODUCT_TERMS, t1))[1:])
                    cols = np.flatnonzero(acc)
                    yield np.full(cols.size, r0), cols, acc[cols]
                elif t1 > t0:
                    rows, cols, w = terms(t0, t1)
                    code = ((rows - r0) * other.cols + cols) << _TERM_BITS
                    code += np.arange(t1 - t0)  # ties in the order made
                    code.sort()
                    key = code >> _TERM_BITS
                    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
                    sums = np.bincount(np.repeat(np.arange(first.size), np.diff(first, append=key.size)),
                                       w[code & ((1 << _TERM_BITS) - 1)])
                    keep = sums != 0
                    rows, cols = np.divmod(key[first[keep]], other.cols)
                    yield rows + r0, cols, sums[keep]
                r0 = r1

        return int(made[-1]), blocks()

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


def _pointer(counts: np.ndarray) -> np.ndarray:
    """The running totals of ``counts`` before each item and after the last."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out

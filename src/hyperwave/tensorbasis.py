"""Multivariate coefficient systems on the unit cube.

Two index systems coexist: hyperbolic (tensor-product) coefficients keyed
by one level per axis, and isotropic coefficients keyed by a single level
plus a binary type vector.  Coefficients are held in columnar sparse form;
the change of basis between the systems applies, for every n, the
univariate transforms along the scaling axes (e_i = 0) of each type block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .basis1d import BasisSpec
from .errors import (
    DimensionMismatch,
    InvalidExponent,
    SizeTooLarge,
    UnsupportedDimension,
    WrongSystem,
)
from .tables import fmt, header_fields, read_lines, read_table, write_table
from .transform1d import _analyze_array, _apply_axis, _level_maps, _synthesize_array

__all__ = [
    "HYPERBOLIC",
    "ISOTROPIC",
    "CoeffVector",
    "HyperIndex",
    "IsoIndex",
    "hyper_forward",
    "hyper_inverse",
    "iso_from_hyper",
    "hyper_from_iso",
    "iso_synthesize",
    "rescale",
    "save_coeffs",
    "load_coeffs",
]

HYPERBOLIC = "hyperbolic"
ISOTROPIC = "isotropic"


class HyperIndex(NamedTuple):
    """Tensor-product index: one (level, position) pair per axis."""

    levels: tuple[int, ...]
    positions: tuple[int, ...]


class IsoIndex(NamedTuple):
    """Isotropic index: level m, type vector e in {0,1}^n, position vector."""

    m: int
    e: tuple[int, ...]
    positions: tuple[int, ...]


@dataclass(frozen=True)
class CoeffVector:
    """Sparse coefficient vector of one basis system.

    ``levels`` has shape (N, n) for the hyperbolic system and (N,) for the
    isotropic one, where ``etypes`` (shape (N, n), values 0/1) carries the
    type vectors instead.  ``p_norm`` records the L^p normalization of the
    underlying basis; values transform inversely to the basis functions.
    """

    system: str
    n: int
    p_norm: float
    max_level: int
    basis: str
    levels: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    etypes: np.ndarray | None = None

    def __post_init__(self):
        if self.system not in (HYPERBOLIC, ISOTROPIC):
            raise WrongSystem(f"unknown system {self.system!r}")
        if not 1 <= self.n <= 3:
            raise UnsupportedDimension(f"dimension n={self.n} not in 1..3")
        if not (self.p_norm > 0):
            raise InvalidExponent(f"p_norm must be positive, got {self.p_norm}")
        iso, n, nnz = self.system == ISOTROPIC, self.n, len(self.values)
        if (self.etypes is None) == iso:
            raise WrongSystem(f"{self.system} vectors {'need' if iso else 'carry no'} type vectors")
        shapes = {"levels": (nnz,) if iso else (nnz, n), "etypes": (nnz, n),
                  "positions": (nnz, n), "values": (nnz,)}
        for name, shape in shapes.items():
            if (a := getattr(self, name)) is None:
                continue
            a = np.asarray(a)
            if a.shape != shape:
                raise DimensionMismatch(f"{name} of shape {a.shape}, expected {shape}")
            if name == "etypes":
                # Before the int8 cast, which wraps 257 to 1; min/max need no temporary.
                if nnz and (a.min() < 0 or a.max() > 1 or a.dtype.kind == "f"):
                    bad = ((a != 0) & (a != 1)).any(axis=1)
                    if bad.any():
                        e = tuple(a[np.argmax(bad)].tolist())
                        raise DimensionMismatch(f"type {e} not in {{0,1}}^{n}")
                a = a.astype(np.int8, copy=False)
            a = a.view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if nnz and self.level_linf().max(initial=0) > self.max_level:
            raise DimensionMismatch("index level beyond declared truncation")

    @property
    def num_entries(self) -> int:
        return len(self.values)

    def level_linf(self) -> np.ndarray:
        """|lambda|_inf per entry (the level m itself for isotropic)."""
        if self.system == HYPERBOLIC:
            return _fold_columns(np.maximum, self.levels)
        return self.levels

    def level_l1(self) -> np.ndarray:
        """|lambda|_1 per entry (n*m for isotropic, matching the L^p scaling)."""
        if self.system == HYPERBOLIC:
            return _fold_columns(np.add, self.levels)
        return self.n * self.levels

    def canonical_order(self) -> "CoeffVector":
        """Entries sorted lexicographically by index; the file-format order."""
        order = np.lexsort(self.index_columns().T[::-1])
        return replace(self, **{name: a[order] for name in ("levels", "etypes", "positions",
                                "values") if (a := getattr(self, name)) is not None})

    def index_columns(self) -> np.ndarray:
        """(N, k) int64 index matrix, most significant column first: the
        file columns j_1..j_n k_1..k_n (hyperbolic) or m e_1..e_n k_1..k_n
        (isotropic), whose row order is the lexicographic index order."""
        cols = [c for c in (self.levels, self.etypes, self.positions) if c is not None]
        return np.column_stack(cols).astype(np.int64, copy=False)

    @classmethod
    def from_index_columns(cls, system, n, p_norm, max_level, basis, columns, values):
        """Inverse of :meth:`index_columns`."""
        levels, etypes, positions = columns[:, :-n], None, columns[:, -n:]
        if system == ISOTROPIC:
            levels, etypes = levels[:, 0], levels[:, 1:]
        return cls(system, n, p_norm, max_level, basis, levels, positions, values, etypes=etypes)

    def index_keys(self, rows=slice(None)) -> tuple:
        """HyperIndex / IsoIndex keys, holding Python ints, of the given entries."""
        pos = map(tuple, self.positions[rows].tolist())
        if self.system == HYPERBOLIC:
            return tuple(map(HyperIndex, map(tuple, self.levels[rows].tolist()), pos))
        etypes = map(tuple, self.etypes[rows].tolist())
        return tuple(map(IsoIndex, self.levels[rows].tolist(), etypes, pos))

    def as_dict(self) -> dict:
        """Mapping from index tuples to values (HyperIndex / IsoIndex keys)."""
        return dict(zip(self.index_keys(), self.values.tolist()))

    def with_values(self, values: np.ndarray) -> "CoeffVector":
        return replace(self, values=np.asarray(values, dtype=np.float64))


def _fold_columns(ufunc, columns: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of an (N, n) integer array into a
    new int64 array: n - 1 calls over whole columns, where a reduction along
    the short axis 1 runs an inner loop per row."""
    out = columns[:, 0].astype(np.int64)
    for a in range(1, columns.shape[1]):
        ufunc(out, columns[:, a], out=out)
    return out


def hyper_forward(spec: BasisSpec, n: int, data: np.ndarray) -> CoeffVector:
    """Tensor-product analysis: 1-D forward transform along each axis.

    ``data`` holds level-m single-scale coefficients with extent |Delta_m|
    per axis; the result is hyperbolic and L^2-normalized.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != n:
        raise DimensionMismatch(f"expected {n}-dimensional data, got {data.ndim}")
    if not 1 <= n <= 3:
        raise UnsupportedDimension(f"dimension n={n} not in 1..3")
    m = spec.level_of_size(data.shape[0])
    if any(s != data.shape[0] for s in data.shape):
        raise DimensionMismatch(f"data must be cubic, got shape {data.shape}")
    out = data
    for axis in range(n):
        out = _apply_axis(lambda a: _analyze_array(spec, a, m), out, axis)
    return _from_multiscale_array(spec, out, n, m)


def _from_multiscale_array(spec, arr, n, m) -> CoeffVector:
    idx = np.nonzero(arr)
    values = np.ascontiguousarray(arr[idx])
    levels, positions = (np.stack([t[ix] for ix in idx], axis=1) for t in _level_maps(spec, m))
    return CoeffVector(HYPERBOLIC, n, 2.0, m, spec.name, levels, positions, values)


def _to_multiscale_array(spec: BasisSpec, u: CoeffVector) -> np.ndarray:
    """The dense multiscale grid of either system: the one map from indices
    to grid cells, with the one range check.  Per axis, a hyperbolic entry
    of level j lies in the wavelet range [lo_j, hi_j) = block_slice(j); an
    isotropic entry of level m lies in [lo_m, hi_m) on its axes with e_i = 1
    (every axis for type 0, the coarse block at j0) and in the scaling range
    [0, lo_m) on the others.  These blocks tile the grid as the hyperbolic
    ones do."""
    iso, j0, mmax = u.system == ISOTROPIC, spec.j0, u.max_level
    shape = (spec.delta_size(mmax),) * u.n
    try:
        grid = np.zeros(shape)
    except (ValueError, MemoryError):  # numpy: "array is too big" or failed allocation
        raise SizeTooLarge(f"a level-{mmax} grid of shape {shape} is too large to "
                           "allocate") from None
    if not u.num_entries:
        return grid
    lo, width = np.zeros((2, mmax + 1), dtype=np.int64)  # by level, from j0 on
    for j in range(j0, mmax + 1):
        lo[j], width[j] = spec.block_slice(j)[0], spec.nabla_size(j)
    if iso:
        e = u.etypes.view(np.bool_)  # int8 entries in {0, 1}, checked on construction
        typed = e[:, 0].copy()
        for a in range(1, u.n):
            typed |= e[:, a]
        bad = np.where(typed, u.levels <= j0, u.levels != j0)
        # Clipped lookups are safe: an entry of a bad level is marked already.
        lo_m, width_m = lo.take(u.levels, mode="clip"), width.take(u.levels, mode="clip")
        coarse = ~typed
    elif u.levels.min() < j0:
        raise DimensionMismatch(f"index level below coarsest level {j0}")
    else:
        bad = np.zeros(u.num_entries, dtype=bool)
    cells = []
    for a in range(u.n):
        # Unsigned, a negative position fails the bound; few temporaries live.
        k = u.positions[:, a].astype(np.int64, copy=False)
        if iso:
            wave = e[:, a] | coarse
            bad |= k.view(np.uint64) >= np.where(wave, width_m, lo_m).view(np.uint64)
            start = np.where(wave, lo_m, 0)
        else:
            bad |= k.view(np.uint64) >= width[u.levels[:, a]].view(np.uint64)
            start = lo[u.levels[:, a]]
        cells.append(start + k)
    if bad.any():
        raise DimensionMismatch(_range_error(spec, u, np.flatnonzero(bad)))
    _scatter(grid, tuple(cells), u.values)
    return grid


def _range_error(spec: BasisSpec, u: CoeffVector, rows: np.ndarray) -> str:
    """The message for the first out-of-range entry among ``rows``: the
    first in input order, or for isotropic entries of the first block in
    block-code order."""
    if u.system == HYPERBOLIC:
        i, levels = int(rows[0]), tuple(u.levels[rows[0]].tolist())
        where = f"level {levels} block of shape {tuple(map(spec.nabla_size, levels))}"
    else:
        i = int(rows[np.argmin(_block_code(u, rows))])
        m, e = int(u.levels[i]), tuple(u.etypes[i].tolist())
        if (m <= spec.j0) if any(e) else (m != spec.j0):
            return (f"no level-{m} block of type {e}: type 0 exists at the coarsest "
                    f"level {spec.j0} only, the other types above it")
        shape = tuple(s.stop - s.start for s in _iso_block_slices(spec, m, e))
        where = f"level {m} type {e} block of shape {shape}"
    return f"position {tuple(u.positions[i].tolist())} out of range for {where}"


def _block_code(v: CoeffVector, rows=slice(None)) -> np.ndarray:
    """Block code m 2^n + e . 2^[n-1..0] of isotropic entries, built column
    by column: ascending codes order the blocks by level, then type."""
    code = v.levels[rows].astype(np.int64) * 2 ** v.n
    for a in range(v.n):
        code += v.etypes[rows, a].astype(np.int64) << (v.n - 1 - a)
    return code


def _scatter(grid: np.ndarray, index: tuple, values: np.ndarray) -> None:
    """``grid[index] = values``, rejecting a repeated index: the N entries
    must mark N distinct cells of the grid."""
    grid[index] = values
    mark = np.zeros(grid.shape, dtype=bool)
    mark[index] = True
    if np.count_nonzero(mark) != len(values):
        raise DimensionMismatch("duplicate coefficient indices")


def hyper_inverse(spec: BasisSpec, coeffs: CoeffVector) -> np.ndarray:
    """Exact inverse of :func:`hyper_forward` on the truncated index set."""
    _require_l2(coeffs, HYPERBOLIC)
    if coeffs.basis != spec.name:
        raise DimensionMismatch(f"coefficients carry basis {coeffs.basis!r}, spec is {spec.name!r}")
    arr = _to_multiscale_array(spec, coeffs)
    m = coeffs.max_level
    for axis in range(coeffs.n):
        arr = _apply_axis(lambda a: _synthesize_array(spec, a, m), arr, axis)
    return arr


def _require_l2(cv: CoeffVector, system: str) -> None:
    if cv.system != system:
        raise WrongSystem(f"expected {system} coefficients, got {cv.system}")
    if cv.p_norm != 2.0:
        raise InvalidExponent("transforms expect L2-normalized coefficients")


def _iso_block_slices(spec: BasisSpec, m: int, e: tuple[int, ...]) -> tuple[slice, ...]:
    """Multiscale slices of the level-m type-e block: the level-m wavelet
    range on the axes with e_i = 1 and the level-(m-1) scaling range on
    those with e_i = 0.  Type 0 is the coarse block of level j0."""
    lo, hi = spec.block_slice(m)
    return tuple(slice(lo, hi) if ei or not any(e) else slice(0, lo) for ei in e)


def _on_scaling_axes(cascade, spec: BasisSpec, block: np.ndarray, m: int, e) -> np.ndarray:
    """Apply the univariate ``cascade`` at level m - 1 along the axes with
    e_i = 0 of a level-m block; a type-0 block passes unchanged."""
    for axis, ei in enumerate(e):
        if any(e) and not ei:
            block = _apply_axis(lambda a: cascade(spec, a, m - 1), block, axis)
    return block


def iso_from_hyper(spec: BasisSpec, u: CoeffVector) -> CoeffVector:
    """Isotropic coefficients of the function represented by hyperbolic ones.

    Blockwise for each level m and type e in {0,1}^n \\ {0}, in
    ``itertools.product`` order: the block keeps the level-m wavelet
    positions on the axes with e_i = 1, and the univariate synthesis
    T_{m-1} turns the multiscale positions coarser than m on the other
    axes into level-(m-1) scaling positions.  The coarse block at j0 is
    copied to type 0.
    """
    _require_l2(u, HYPERBOLIC)
    n, mmax = u.n, u.max_level
    arr = _to_multiscale_array(spec, u)
    types = [e for e in itertools.product((0, 1), repeat=n) if any(e)]
    blocks = [(spec.j0, (0,) * n), *itertools.product(range(spec.j0 + 1, mmax + 1), types)]
    parts = []
    for m, e in blocks:
        block = _on_scaling_axes(_synthesize_array, spec, arr[_iso_block_slices(spec, m, e)], m, e)
        k = np.nonzero(block)
        size = k[0].size
        parts.append((np.full(size, m, dtype=np.int64),
                      np.tile(np.array(e, dtype=np.int8), (size, 1)),
                      np.stack(k, axis=1), block[k]))
    levels, etypes, positions, values = (np.concatenate(col) for col in zip(*parts))
    return CoeffVector(ISOTROPIC, n, 2.0, mmax, u.basis, levels, positions, values, etypes=etypes)


def hyper_from_iso(spec: BasisSpec, v: CoeffVector) -> CoeffVector:
    """Inverse change of basis: the dual analysis Tdual_{m-1}^T along the
    axes with e_i = 0 of each type block, in place on the grid of ``v``."""
    _require_l2(v, ISOTROPIC)
    arr = _to_multiscale_array(spec, v)
    for (m, e), block in _gather_iso_blocks(spec, v, arr).items():
        block[...] = _on_scaling_axes(_analyze_array, spec, block, m, e)
    return _from_multiscale_array(spec, arr, v.n, v.max_level)


def _gather_iso_blocks(spec: BasisSpec, v: CoeffVector, grid=None) -> dict:
    """Views of ``grid`` (by default the multiscale grid of ``v``) for the
    (m, e) blocks that hold entries of ``v``, in block-code order."""
    if grid is None:
        grid = _to_multiscale_array(spec, v)
    blocks = {}
    for code in np.flatnonzero(np.bincount(_block_code(v))).tolist():
        m, bits = divmod(code, 2 ** v.n)
        e = tuple(map(int, f"{bits:0{v.n}b}"))
        blocks[(m, e)] = grid[_iso_block_slices(spec, m, e)]
    return blocks


def iso_synthesize(spec: BasisSpec, v: CoeffVector) -> np.ndarray:
    """Single-scale array represented by isotropic coefficients.

    Each type block is pushed to level m through the refinement masks, M1
    along the axes with e_i = 1 and M0 along the others, and prolonged to
    the truncation level by M0 along every axis; this route shares nothing
    with the change of basis beyond the masks themselves, which makes it
    the natural cross-check that both sides represent the same function.
    """
    _require_l2(v, ISOTROPIC)
    blocks = _gather_iso_blocks(spec, v)  # first: its grid allocation is the checked one
    out = np.zeros((spec.delta_size(v.max_level),) * v.n)
    for (m, e), block in blocks.items():
        if any(e):
            quad = spec.masks(m)
            for axis, ei in enumerate(e):
                mask = quad.m1 if ei else quad.m0
                block = _apply_axis(mask.apply, block, axis)
        for level in range(m + 1, v.max_level + 1):
            m0 = spec.masks(level).m0
            for axis in range(v.n):
                block = _apply_axis(m0.apply, block, axis)
        out += block
    return out


def rescale(c: CoeffVector, new_p: float) -> CoeffVector:
    """Change the normalization exponent of the underlying basis.

    Coefficients transform inversely to basis functions: hyperbolic values
    pick up 2^{|lambda|_1 (1/p_old - 1/p_new)}, isotropic values the same
    with n|mu| in place of |lambda|_1.  p = inf is admitted.
    """
    if not (new_p > 0):  # c.p_norm was checked when c was built
        raise InvalidExponent(f"normalization exponent must be positive, got {new_p}")
    if new_p == c.p_norm:
        return c
    inv_old = 0.0 if np.isinf(c.p_norm) else 1.0 / c.p_norm
    inv_new = 0.0 if np.isinf(new_p) else 1.0 / new_p
    factor = 2.0 ** (c.level_l1() * (inv_old - inv_new))
    return replace(c, values=c.values * factor, p_norm=float(new_p))


# ---------------------------------------------------------------------------
# Coefficient files (bit-exact contract): the header
#   hyperwave-coeffs v1 <system> n=<n> p=<p> basis=<name> jmax=<m>
# then the rows of CoeffVector.index_columns() in lexicographic order, each
# followed by its value, in the row grammar of hyperwave.tables.
# ---------------------------------------------------------------------------


def save_coeffs(cv: CoeffVector, path) -> None:
    cv = cv.canonical_order()
    head = (f"hyperwave-coeffs v1 {cv.system} n={cv.n} p={fmt(cv.p_norm)} "
            f"basis={cv.basis} jmax={cv.max_level}")
    write_table(path, head, cv.index_columns(), cv.values)


def load_coeffs(path) -> CoeffVector:
    lines = read_lines(path)
    head = lines[0].split() if lines else []
    if head[:2] != ["hyperwave-coeffs", "v1"]:
        raise DimensionMismatch("not a hyperwave coefficient file")
    try:
        system = head[2]
        fields = header_fields(head[3:])
        n = int(fields["n"])
        p = float(fields["p"])
        basis = fields["basis"]
        mmax = int(fields["jmax"])
    except (IndexError, KeyError, ValueError):
        raise DimensionMismatch(f"malformed coefficient header in {path}: {lines[0]!r}") from None
    if not 1 <= n <= 3:
        raise UnsupportedDimension(f"dimension n={n} not in 1..3")
    try:
        columns, values = read_table(lines[1:], 2 * n + (system == ISOTROPIC))
        cv = CoeffVector.from_index_columns(system, n, p, mmax, basis, columns, values)
    except (ValueError, DimensionMismatch) as exc:
        raise DimensionMismatch(f"malformed coefficient line in {path}: {exc}") from None
    rows = columns[np.lexsort(columns.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise DimensionMismatch("duplicate coefficient indices in file")
    return cv

"""Multivariate coefficient systems on the unit cube.

Two index systems coexist: hyperbolic (tensor-product) coefficients keyed
by one level per axis, and isotropic coefficients keyed by a single level
plus a binary type vector.  Coefficients are held in columnar sparse form.
Every transform runs in place on the dense multiscale grid by the one
sweep of the two-scale step (``transform1d._sweep``): the level-m cascade
on every line, or for the change of basis the univariate transforms along
the scaling axes (e_i = 0) of all type blocks at once.  The isotropic
synthesis takes the same step level by level, all axes at each level.
One block layout, :func:`_block_slices`, places the entries of both
systems in the grid; block views, scatters and range errors all read it.
"""

from __future__ import annotations

import itertools
import math
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
from .tables import (_index_code, _index_order, fmt, header_fields, open_text, parse_row,
                     read_head, read_rows, write_table)
from .transform1d import _step, _sweep

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


DIMENSIONS = (1, 2, 3)  # the supported n: a dense level-m grid has (2^m)^n cells


def _check_dimension(n) -> None:
    if n not in DIMENSIONS:
        raise UnsupportedDimension(f"dimension n={n} not in {DIMENSIONS[0]}..{DIMENSIONS[-1]}")


class _CellsOnFirstRead:
    """The ``levels``, ``etypes``, ``positions`` and ``values`` fields of
    :class:`CoeffVector`, non-data descriptors: the instance ``__dict__`` is
    looked up first, so a vector built from index arrays reads its fields at
    no extra cost, and the first read on a vector that keeps its grid builds
    them all (:func:`_grid_cells`) and keeps them there.  Class access gives
    the field's default, ``None`` for ``etypes``, and raises for the others,
    which have none."""

    def __init__(self, *default):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            if self.default:
                return self.default[0]
            raise AttributeError(self.name)
        for name, a in _grid_cells(obj).items():
            a.flags.writeable = False
            object.__setattr__(obj, name, a)
        return obj.__dict__[self.name]


@dataclass(frozen=True)
class CoeffVector:
    """Sparse coefficient vector of one basis system.

    ``levels`` has shape (N, n) for the hyperbolic system and (N,) for the
    isotropic one, where ``etypes`` (shape (N, n), values 0/1) carries the
    type vectors instead.  ``p_norm`` records the L^p normalization of the
    underlying basis; values transform inversely to the basis functions.

    A vector lists its entries in the order they were given; one the
    library makes from a grid, or reads from a file it wrote, lists them in
    file order, the lexicographic order of its index columns, which
    ``tables._index_order`` finds and checks from the 1-D views of
    :meth:`_columns`, unstacked.  One made from a dense multiscale grid (by
    :func:`hyper_forward`, :func:`hyper_from_iso` or :func:`iso_from_hyper`)
    keeps that grid, read-only, for its whole life: 8 bytes per grid cell,
    whatever its number of nonzeros.  It builds its index fields and values
    when one of them is first read, block by block (:func:`_grid_cells`);
    ``num_entries`` is the grid's count of nonzero cells, and the sequence
    norms bin its cells without building them.  Vectors made otherwise
    (from index arrays, files, ``replace``, :meth:`with_values`,
    :func:`rescale` or :meth:`canonical_order`) keep no grid.
    """

    system: str
    n: int
    p_norm: float
    max_level: int
    basis: str
    levels: np.ndarray = _CellsOnFirstRead()
    positions: np.ndarray = _CellsOnFirstRead()
    values: np.ndarray = _CellsOnFirstRead()
    etypes: np.ndarray | None = _CellsOnFirstRead(None)

    def __post_init__(self):
        if self.system not in (HYPERBOLIC, ISOTROPIC):
            raise WrongSystem(f"unknown system {self.system!r}")
        _check_dimension(self.n)
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
            elif name != "values":
                # Before the int64 cast, which would truncate 0.5 or wrap 2^63.
                if a.dtype.kind not in "iu" or a.dtype == np.uint64 and a.max(initial=0) >= 2**63:
                    raise DimensionMismatch(f"{name} of dtype {a.dtype}, expected int64 values")
                a = a.astype(np.int64, copy=False)
            a = a.view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if nnz and self.level_linf().max(initial=0) > self.max_level:
            raise DimensionMismatch("index level beyond declared truncation")

    @property
    def num_entries(self) -> int:
        if "values" in self.__dict__:
            return len(self.values)
        return self._kept_entries

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
        order = _index_order(self._columns())
        return replace(self, **{name: a[order] for name in ("levels", "etypes", "positions",
                                "values") if (a := getattr(self, name)) is not None})

    def _columns(self) -> list[np.ndarray]:
        """The columns of :meth:`index_columns` as read-only 1-D views."""
        fields = (self.levels, self.etypes, self.positions)
        return [c for a in fields if a is not None for c in np.atleast_2d(a.T)]

    def index_columns(self) -> np.ndarray:
        """(N, k) int64 index matrix, most significant column first: the
        file columns j_1..j_n k_1..k_n (hyperbolic) or m e_1..e_n k_1..k_n
        (isotropic), whose row order is the lexicographic index order."""
        return np.column_stack(self._columns())

    @classmethod
    def from_index_columns(cls, system, n, p_norm, max_level, basis, columns, values):
        """Inverse of :meth:`index_columns`."""
        levels, etypes, positions = columns[:, :-n], None, columns[:, -n:]
        if system == ISOTROPIC:
            levels, etypes = levels[:, 0], levels[:, 1:]
        return cls(system, n, p_norm, max_level, basis, levels, positions, values, etypes=etypes)

    def index_keys(self, rows=slice(None)) -> tuple:
        """HyperIndex / IsoIndex keys, holding Python ints, of the given entries."""
        pos = _row_tuples(self.positions[rows])
        if self.system == HYPERBOLIC:
            key, fields = HyperIndex, (_row_tuples(self.levels[rows]), pos)
        else:
            etypes = _row_tuples(self.etypes[rows])
            key, fields = IsoIndex, (self.levels[rows].tolist(), etypes, pos)
        # tuple.__new__ skips the named tuple's Python-level __new__, once per key.
        return tuple(map(tuple.__new__, itertools.repeat(key), zip(*fields)))

    def as_dict(self) -> dict:
        """Mapping from index tuples to values (HyperIndex / IsoIndex keys)."""
        return dict(zip(self.index_keys(), self.values.tolist()))

    def with_values(self, values: np.ndarray) -> "CoeffVector":
        return replace(self, values=np.asarray(values, dtype=np.float64))


def _row_tuples(columns: np.ndarray) -> list[tuple]:
    """The rows of an (N, k) integer array as tuples of Python ints, made by
    ``tolist`` of a k-field record view, with no list per row."""
    a = np.ascontiguousarray(columns, dtype=np.int64)
    return a.view([(f"f{i}", np.int64) for i in range(a.shape[1])]).ravel().tolist()


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
    _check_dimension(n)
    m = spec.level_of_size(data.shape[0])
    if any(s != data.shape[0] for s in data.shape):
        raise DimensionMismatch(f"data must be cubic, got shape {data.shape}")
    return _from_multiscale_array(spec, _analyze_grids(spec, data, n, m), n, m)


def _analyze_grids(spec: BasisSpec, data: np.ndarray, n: int, m: int) -> np.ndarray:
    """The 1-D analysis at level m along each of the last n axes of ``data``,
    in a new array; leading axes index a batch of grids, each analysed as
    if alone."""
    return _sweep(spec, np.array(data, dtype=np.float64), n, m, analysis=True)


def _nonzero_cells(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of the nonzero cells of an n-D ``block`` in C order and
    their (N, n) int64 positions in it: the cells ``np.nonzero`` selects
    (NaN kept, -0.0 left out), by one boolean mask and no n-D index
    arrays.  The last-axis index is selected through the mask; each other
    axis is constant along a line of the last axis, so its index is
    repeated by the line's count of cells, where a masked selection per
    axis would cost a mispredicted branch per cell of a half-filled grid."""
    mask = block != 0
    values = block[mask]
    counts = mask.sum(axis=-1).ravel()
    positions = np.empty((values.size, block.ndim), dtype=np.int64)
    for a, line_index in enumerate(np.indices(block.shape[:-1])):
        positions[:, a] = np.repeat(line_index.ravel(), counts)
    positions[:, -1] = np.broadcast_to(np.arange(block.shape[-1]), block.shape)[mask]
    return values, positions


def _grid_cells(v: CoeffVector) -> dict:
    """The index arrays and values of a vector that keeps its grid, by
    field name: the nonzero cells of its blocks in file order
    (:func:`_blocks`), in C order within a block, each block written into
    arrays of the final size."""
    spec, grid = v._kept
    blocks = _blocks(spec, grid, v.n, v.max_level, v.system)
    total, ends = v._kept_entries, [0]
    cells = {"values": np.empty(total), "positions": np.empty((total, v.n), dtype=np.int64)}
    for _, block in blocks:
        values, positions = _nonzero_cells(block)
        rows = slice(ends[-1], ends[-1] + values.size)
        cells["values"][rows], cells["positions"][rows] = values, positions
        ends.append(rows.stop)
    names = ("levels",) if v.system == HYPERBOLIC else ("levels", "etypes")
    for name, dtype, keys in zip(names, (np.int64, np.int8), zip(*(key for key, _ in blocks))):
        cells[name] = np.repeat(np.array(keys, dtype=dtype), np.diff(ends), axis=0)
    return cells


def _from_multiscale_array(spec, arr, n, m, system=HYPERBOLIC) -> CoeffVector:
    """The vector of the given system whose entries are the nonzero cells of
    the level-m multiscale grid ``arr``.  The vector takes ownership of
    ``arr``: it sets its zero cells to +0.0, as the scatter of its entries
    would, makes it read-only and keeps it, so the caller must pass an
    array nobody else writes."""
    zero = arr == 0
    np.copyto(arr, 0.0, where=zero)
    arr.flags.writeable = False
    # Built without __init__: the index fields stay unset until first read,
    # and the library's own grid needs no check.
    cv = CoeffVector.__new__(CoeffVector)
    fields = {"system": system, "n": n, "p_norm": 2.0, "max_level": m, "basis": spec.name,
              "_kept": (spec, arr), "_kept_entries": arr.size - int(np.count_nonzero(zero))}
    if system == HYPERBOLIC:
        fields["etypes"] = None
    for name, value in fields.items():
        object.__setattr__(cv, name, value)
    return cv


def _kept_grid(v: CoeffVector):
    """(spec, grid) of a vector that keeps the grid it was made from, else None."""
    return vars(v).get("_kept")


def _zeros(m: int, shape: tuple) -> np.ndarray:
    """``np.zeros(shape)`` for a level-m grid, or SizeTooLarge if it cannot be allocated."""
    try:
        return np.zeros(shape)
    except (ValueError, MemoryError):  # numpy: "array is too big" or failed allocation
        raise SizeTooLarge(f"a level-{m} grid of shape {shape} is too large to allocate") from None


def _to_multiscale_array(spec: BasisSpec, u: CoeffVector) -> np.ndarray:
    """The dense multiscale grid of either system, a new writable array.

    A vector that keeps the grid it was made from with this same ``spec``
    object gives a copy of that grid, bit-equal to the scatter of its
    entries.  Every other vector is scattered at block origin + position,
    after :func:`_range_check` and then the repeated-index check of
    ``tables._index_order``, which needs no grid-sized mask."""
    kept = _kept_grid(u)
    if kept is not None and kept[0] is spec:
        return kept[1].copy()
    grid = _zeros(u.max_level, (spec.delta_size(u.max_level),) * u.n)
    code, origin = _range_check(spec, u)
    columns = u._columns()
    _index_order(columns, unique="coefficient indices")
    grid[tuple(start[code] + k for start, k in zip(origin, columns[-u.n:]))] = u.values
    return grid


def _range_check(spec: BasisSpec, u: CoeffVector) -> tuple:
    """(code, origin): each entry's key code in :func:`_block_table` and the
    table's block origins per axis.  An entry outside its block, or with no
    block, raises DimensionMismatch (:func:`_range_error`)."""
    n, columns = u.n, u._columns()
    lo, base, origin, extent = _block_table(spec, n, u.max_level, u.system)
    code = _index_code([np.maximum(c, -1) for c in columns[:-n]], lo, base)
    bad = np.zeros(code.size, dtype=bool)
    for k, width in zip(columns[-n:], extent):
        # Unsigned, a negative position fails the bound.
        bad |= k.view(np.uint64) >= width[code].view(np.uint64)
    if bad.any():
        raise DimensionMismatch(_range_error(spec, u, np.flatnonzero(bad)))
    return code, origin


def _block_table(spec: BasisSpec, n: int, mmax: int, system: str) -> tuple:
    """(lo, base, origin, extent): :func:`_block_slices` as lookup tables.
    The key columns of an index, j_1..j_n or m e_1..e_n, raised to at least
    -1, lie in [-1, max(mmax, 1)] (construction bounds a level by mmax, a
    type by 1) and are the digits of its code ``_index_code(keys, lo, base)``;
    ``origin[:, code]`` and ``extent[:, code]`` are the first cell and the
    width per axis of that key's block, extent 0 for a key with no block."""
    blocks = _block_slices(spec, n, mmax, system)
    keys = np.array([(*key[:-1], *key[-1]) for key, _ in blocks]).T  # (j,) or (m, e), flat
    start, stop = np.array([[(s.start, s.stop) for s in slices] for _, slices in blocks]).T
    lo, base = [-1] * len(keys), [max(mmax, 1) + 2] * len(keys)
    origin, extent = np.zeros((2, n, math.prod(base)), dtype=np.int64)
    code = _index_code(keys, lo, base)
    origin[:, code], extent[:, code] = start, stop - start
    return lo, base, origin, extent


def _range_error(spec: BasisSpec, u: CoeffVector, rows: np.ndarray) -> str:
    """The message for the first out-of-range entry among ``rows`` in block
    order (the lexicographic order of the key columns), in input order within
    a block, in both systems: a key with no block, or a position outside it."""
    i = int(rows[_index_order([c[rows] for c in u._columns()[:-u.n]])][0])
    blocks = dict(_block_slices(spec, u.n, u.max_level, u.system))
    if u.system == HYPERBOLIC:
        key = (tuple(u.levels[i].tolist()),)
        if key not in blocks:
            return f"index level below coarsest level {spec.j0}"
        where = f"level {key[0]} block"
    else:
        key = m, e = int(u.levels[i]), tuple(u.etypes[i].tolist())
        if key not in blocks:
            return (f"no level-{m} block of type {e}: type 0 exists at the coarsest "
                    f"level {spec.j0} only, the other types above it")
        where = f"level {m} type {e} block"
    shape = tuple(s.stop - s.start for s in blocks[key])
    return f"position {tuple(u.positions[i].tolist())} out of range for {where} of shape {shape}"


def hyper_inverse(spec: BasisSpec, coeffs: CoeffVector) -> np.ndarray:
    """Exact inverse of :func:`hyper_forward` on the truncated index set."""
    _require_l2(spec, coeffs, HYPERBOLIC)
    arr = _to_multiscale_array(spec, coeffs)
    return _sweep(spec, arr, coeffs.n, coeffs.max_level, analysis=False)


def _require_l2(spec: BasisSpec, cv: CoeffVector, system: str) -> None:
    """The input guard of every transform of ``cv`` by ``spec``: the
    system, the L^2 normalization and the basis name must all match."""
    if cv.system != system:
        raise WrongSystem(f"expected {system} coefficients, got {cv.system}")
    if cv.p_norm != 2.0:
        raise InvalidExponent("transforms expect L2-normalized coefficients")
    if cv.basis != spec.name:
        raise DimensionMismatch(f"coefficients carry basis {cv.basis!r}, spec is {spec.name!r}")


def _iso_block_slices(spec: BasisSpec, m: int, e: tuple[int, ...]) -> tuple[slice, ...]:
    """Multiscale slices of the level-m type-e block: the level-m wavelet
    range on the axes with e_i = 1 and the level-(m-1) scaling range on
    those with e_i = 0.  Type 0 is the coarse block of level j0."""
    lo, hi = spec.block_slice(m)
    return tuple(slice(lo, hi) if ei or not any(e) else slice(0, lo) for ei in e)


def _block_slices(spec: BasisSpec, n: int, mmax: int, system: str) -> list:
    """(key, slices) for each block of the system in file order, the one
    block layout of both systems: ``key`` holds the level vector j of a
    hyperbolic block, or the level m and type e of an isotropic one (type 0
    at j0 only, the others above it), and ``slices`` are its cells in the
    n-D multiscale grid."""
    if system == HYPERBOLIC:
        axis = {level: slice(*spec.block_slice(level)) for level in range(spec.j0, mmax + 1)}
        return [((j,), tuple(map(axis.get, j))) for j in itertools.product(axis, repeat=n)]
    types = [e for e in itertools.product((0, 1), repeat=n) if any(e)]
    keys = [(spec.j0, (0,) * n), *itertools.product(range(spec.j0 + 1, mmax + 1), types)]
    return [(key, _iso_block_slices(spec, *key)) for key in keys]


def _blocks(spec: BasisSpec, grid: np.ndarray, n: int, mmax: int, system: str) -> list:
    """(key, block) for each block of :func:`_block_slices`: ``block`` is its
    view in the last n axes of the multiscale ``grid``, an isotropic one
    swept by the change of basis; leading axes index a batch of grids."""
    return [(key, grid[(..., *slices)]) for key, slices in _block_slices(spec, n, mmax, system)]


def iso_from_hyper(spec: BasisSpec, u: CoeffVector) -> CoeffVector:
    """Isotropic coefficients of the function represented by hyperbolic ones.

    One synthesis sweep per axis on the multiscale grid of ``u`` turns the
    positions coarser than m, on the axes with e_i = 0 of each level-m
    block, into level-(m-1) scaling positions by T_{m-1}, and keeps the
    level-m wavelet positions on the axes with e_i = 1.  The result keeps
    the swept grid, as :func:`hyper_from_iso` keeps its own; its entries,
    built when first read, are the nonzero cells of the blocks in file
    order (:func:`_blocks`), so it scatters and extracts nothing.
    """
    _require_l2(spec, u, HYPERBOLIC)
    arr = _sweep(spec, _to_multiscale_array(spec, u), u.n, u.max_level, analysis=False, full=False)
    return _from_multiscale_array(spec, arr, u.n, u.max_level, ISOTROPIC)


def hyper_from_iso(spec: BasisSpec, v: CoeffVector) -> CoeffVector:
    """Inverse change of basis: the analysis sweep, Tdual_{m-1}^T along the
    axes with e_i = 0 of each level-m block, in place on the grid of ``v``;
    the result keeps that grid."""
    _require_l2(spec, v, ISOTROPIC)
    arr = _sweep(spec, _to_multiscale_array(spec, v), v.n, v.max_level, analysis=True, full=False)
    return _from_multiscale_array(spec, arr, v.n, v.max_level)


def iso_synthesize(spec: BasisSpec, v: CoeffVector) -> np.ndarray:
    """Single-scale array represented by isotropic coefficients.

    The standard isotropic synthesis on the multiscale grid of ``v``: for
    m = j0 + 1 .. max_level, the box [0, |Delta_m|)^n, which holds the
    level-(m-1) scaling coefficients and the level-m type blocks, is
    refined along each axis in turn by M0 on its scaling range and M1 on
    its wavelet range: the step of the change of basis, ``transform1d._step``,
    level by level.  The independent checks that both systems represent one
    function are the test references ``reference_iso_synthesize`` (per block)
    and ``reference_levelwise_iso_synthesize`` (CSR products).
    """
    _require_l2(spec, v, ISOTROPIC)
    grid = _to_multiscale_array(spec, v)
    for m in range(spec.j0 + 1, v.max_level + 1):
        lo, hi = spec.block_slice(m)
        for axis in range(v.n):
            _step(spec.masks(m), grid, (slice(0, hi),) * v.n, axis, lo, hi, analysis=False)
    grid += 0.0  # -0.0 to +0.0 where no level ran
    return grid


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
    factor = _rescale_factor(c.level_l1(), c.p_norm, new_p)
    return replace(c, values=c.values * factor, p_norm=float(new_p))


def _rescale_factor(l1: np.ndarray, old_p: float, new_p: float) -> np.ndarray:
    """2^{l1 (1/old_p - 1/new_p)}, the factor of :func:`rescale` for
    entries of level sums ``l1``."""
    inv_old = 0.0 if np.isinf(old_p) else 1.0 / old_p
    inv_new = 0.0 if np.isinf(new_p) else 1.0 / new_p
    return 2.0 ** (l1 * (inv_old - inv_new))


# ---------------------------------------------------------------------------
# Coefficient files (bit-exact contract): the header
#   hyperwave-coeffs v1 <system> n=<n> p=<p> basis=<name> jmax=<m>
# then the rows of CoeffVector.index_columns() in lexicographic order, each
# followed by its value, in the row grammar of hyperwave.tables.
# ---------------------------------------------------------------------------


def save_coeffs(cv: CoeffVector, path) -> None:
    """Write ``cv`` as a coefficient file: the entries of a vector the
    library made as they stand, in file order already, others sorted.  A
    repeated index raises DimensionMismatch before the file is opened."""
    columns = cv._columns()
    order = _index_order(columns, unique="coefficient indices")
    head = (f"hyperwave-coeffs v1 {cv.system} n={cv.n} p={fmt(cv.p_norm)} "
            f"basis={cv.basis} jmax={cv.max_level}")
    write_table(path, head, [c[order] for c in columns], cv.values[order])


def load_coeffs(path) -> CoeffVector:
    """The vector of a coefficient file, its rows streamed
    (:func:`hyperwave.tables.read_rows`) and kept in their order.  The
    repeated-index check of :func:`_index_order` sorts only a file whose
    rows are not in file order, as :func:`save_coeffs` writes them."""
    with open_text(path, "coefficient", DimensionMismatch) as fh:
        line = read_head(fh)
        head = line.split()
        if head[:2] != ["hyperwave-coeffs", "v1"]:
            raise DimensionMismatch("not a hyperwave coefficient file")
        try:
            system = head[2]
            fields = header_fields(head[3:])
            (n, mmax), p = parse_row([fields["n"], fields["jmax"], fields["p"]])
            basis = fields["basis"]
        except (IndexError, KeyError, ValueError):
            raise DimensionMismatch(f"malformed coefficient header in {path}: {line!r}") from None
        _check_dimension(n)
        try:
            columns, values = read_rows(fh, 2 * n + (system == ISOTROPIC))
            cv = CoeffVector.from_index_columns(system, n, p, mmax, basis, columns, values)
        except UnicodeDecodeError:
            raise
        except (ValueError, DimensionMismatch) as exc:
            raise DimensionMismatch(f"malformed coefficient line in {path}: {exc}") from None
    _index_order(columns.T, unique=f"coefficient indices in {path}")
    return cv

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
    UnsupportedDimension,
    WrongSystem,
)
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
        if self.system == ISOTROPIC and self.etypes is None:
            raise WrongSystem("isotropic vectors need type vectors")
        nnz = len(self.values)
        if len(self.positions) != nnz or len(self.levels) != nnz:
            raise DimensionMismatch("index and value arrays differ in length")
        if nnz and self.level_linf().max(initial=0) > self.max_level:
            raise DimensionMismatch("index level beyond declared truncation")

    @property
    def num_entries(self) -> int:
        return len(self.values)

    def level_linf(self) -> np.ndarray:
        """|lambda|_inf per entry (the level m itself for isotropic)."""
        if self.system == HYPERBOLIC:
            return self.levels.max(axis=1) if self.levels.size else np.zeros(0, int)
        return self.levels

    def level_l1(self) -> np.ndarray:
        """|lambda|_1 per entry (n*m for isotropic, matching the L^p scaling)."""
        if self.system == HYPERBOLIC:
            return self.levels.sum(axis=1) if self.levels.size else np.zeros(0, int)
        return self.n * self.levels

    def canonical_order(self) -> "CoeffVector":
        """Entries sorted lexicographically by index; the file-format order."""
        order = np.lexsort(self.index_columns().T[::-1])
        et = self.etypes[order] if self.etypes is not None else None
        return replace(
            self,
            levels=self.levels[order],
            positions=self.positions[order],
            values=self.values[order],
            etypes=et,
        )

    def index_columns(self) -> np.ndarray:
        """(N, k) int64 index matrix, most significant column first: the
        file columns j_1..j_n k_1..k_n (hyperbolic) or m e_1..e_n k_1..k_n
        (isotropic), whose row order is the lexicographic index order."""
        cols = [c for c in (self.levels, self.etypes, self.positions) if c is not None]
        return np.column_stack(cols).astype(np.int64, copy=False)

    @classmethod
    def from_index_columns(cls, system, n, p_norm, max_level, basis, columns, values):
        """Inverse of :meth:`index_columns`; type entries must lie in {0, 1}."""
        levels, etypes, positions = columns[:, :-n], None, columns[:, -n:]
        if system == ISOTROPIC:
            levels, etypes = levels[:, 0], levels[:, 1:]
            bad = ~np.isin(etypes, (0, 1)).all(axis=1)
            if bad.any():
                e = tuple(etypes[bad][0].tolist())
                raise DimensionMismatch(f"type {e} not in {{0,1}}^{n}")
            etypes = etypes.astype(np.int8)
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


def _block_offsets(spec: BasisSpec, m: int) -> np.ndarray:
    """Offset of each level block in the multiscale ordering, indexed by level."""
    off = np.zeros(m + 1, dtype=np.int64)
    for j in range(spec.j0, m + 1):
        off[j] = spec.block_slice(j)[0]
    return off


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
    lvl, pos = _level_maps(spec, m)
    idx = np.nonzero(arr)
    values = np.ascontiguousarray(arr[idx])
    levels = np.stack([lvl[ix] for ix in idx], axis=1) if values.size else np.zeros((0, n), int)
    positions = np.stack([pos[ix] for ix in idx], axis=1) if values.size else np.zeros((0, n), int)
    return CoeffVector(HYPERBOLIC, n, 2.0, m, spec.name, levels, positions, values)


def _to_multiscale_array(spec: BasisSpec, u: CoeffVector) -> np.ndarray:
    size = spec.delta_size(u.max_level)
    off = _block_offsets(spec, u.max_level)
    arr = np.zeros((size,) * u.n)
    if u.num_entries:
        if u.levels.min() < spec.j0:
            raise DimensionMismatch(f"index level below coarsest level {spec.j0}")
        widths = np.zeros(u.max_level + 1, dtype=np.int64)
        widths[spec.j0:] = [spec.nabla_size(j) for j in range(spec.j0, u.max_level + 1)]
        for a in range(u.n):
            bad = (u.positions[:, a] < 0) | (u.positions[:, a] >= widths[u.levels[:, a]])
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DimensionMismatch(
                    f"position {u.positions[i, a]} out of range for level "
                    f"{u.levels[i, a]} block of width {widths[u.levels[i, a]]}"
                )
        flat = tuple(off[u.levels[:, a]] + u.positions[:, a] for a in range(u.n))
        _scatter(arr, flat, u.values)
    return arr


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
    if coeffs.system != HYPERBOLIC:
        raise WrongSystem("hyper_inverse expects hyperbolic coefficients")
    if coeffs.p_norm != 2.0:
        raise InvalidExponent("synthesis expects L2-normalized coefficients")
    if coeffs.basis != spec.name:
        raise DimensionMismatch(
            f"coefficients carry basis {coeffs.basis!r}, spec is {spec.name!r}"
        )
    arr = _to_multiscale_array(spec, coeffs)
    m = coeffs.max_level
    for axis in range(coeffs.n):
        arr = _apply_axis(lambda a: _synthesize_array(spec, a, m), arr, axis)
    return arr


def _require_l2(cv: CoeffVector, system: str) -> None:
    if cv.system != system:
        raise WrongSystem(f"expected {system} coefficients, got {cv.system}")
    if cv.p_norm != 2.0:
        raise InvalidExponent("change of basis expects L2-normalized coefficients")


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
        block = arr[_iso_block_slices(spec, m, e)]
        block = _on_scaling_axes(_synthesize_array, spec, block, m, e)
        k = np.nonzero(block)
        size = k[0].size
        parts.append((np.full(size, m, dtype=np.int64),
                      np.tile(np.array(e, dtype=np.int8), (size, 1)),
                      np.stack(k, axis=1), block[k]))
    levels, etypes, positions, values = (np.concatenate(col) for col in zip(*parts))
    return CoeffVector(ISOTROPIC, n, 2.0, mmax, u.basis, levels, positions, values,
                       etypes=etypes)


def hyper_from_iso(spec: BasisSpec, v: CoeffVector) -> CoeffVector:
    """Inverse change of basis: the dual analysis Tdual_{m-1}^T along the
    axes with e_i = 0 of each type block."""
    _require_l2(v, ISOTROPIC)
    size = spec.delta_size(v.max_level)
    arr = np.zeros((size,) * v.n)
    for (m, e), block in _gather_iso_blocks(spec, v).items():
        block = _on_scaling_axes(_analyze_array, spec, block, m, e)
        arr[_iso_block_slices(spec, m, e)] = block
    return _from_multiscale_array(spec, arr, v.n, v.max_level)


def _gather_iso_blocks(spec: BasisSpec, v: CoeffVector) -> dict:
    """Dense per-(m, e) blocks from the sparse isotropic entries, ordered by
    the block code m 2^n + e . 2^[n-1..0]."""
    blocks: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    if not v.num_entries:
        return blocks
    if not np.isin(v.etypes, (0, 1)).all():
        raise DimensionMismatch("isotropic type vectors must lie in {0,1}^n")
    n = v.n
    code = v.levels * 2 ** n + v.etypes @ 2 ** np.arange(n - 1, -1, -1)
    for c in np.unique(code):
        sel = code == c
        m, bits = divmod(int(c), 2 ** n)
        e = tuple(map(int, f"{bits:0{n}b}"))
        if (m <= spec.j0) if any(e) else (m != spec.j0):
            raise DimensionMismatch(
                f"no level-{m} block of type {e}: type 0 exists at the coarsest "
                f"level {spec.j0} only, the other types above it"
            )
        slices = _iso_block_slices(spec, m, e)
        shape = tuple(s.stop - s.start for s in slices)
        k = v.positions[sel]
        bad = ((k < 0) | (k >= shape)).any(axis=1)
        if bad.any():
            raise DimensionMismatch(
                f"position {tuple(k[bad][0].tolist())} out of range for level {m} "
                f"type {e} block of shape {shape}"
            )
        block = np.zeros(shape)
        _scatter(block, tuple(k.T), v.values[sel])
        blocks[(m, e)] = block
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
    mmax = v.max_level
    size = spec.delta_size(mmax)
    out = np.zeros((size,) * v.n)
    for (m, e), block in _gather_iso_blocks(spec, v).items():
        if any(e):
            quad = spec.masks(m)
            for axis, ei in enumerate(e):
                mask = quad.m1.csr if ei else quad.m0.csr
                block = _apply_axis(mask.__matmul__, block, axis)
        for level in range(m + 1, mmax + 1):
            m0 = spec.masks(level).m0.csr
            for axis in range(v.n):
                block = _apply_axis(m0.__matmul__, block, axis)
        out += block
    return out


def rescale(c: CoeffVector, new_p: float) -> CoeffVector:
    """Change the normalization exponent of the underlying basis.

    Coefficients transform inversely to basis functions: hyperbolic values
    pick up 2^{|lambda|_1 (1/p_old - 1/p_new)}, isotropic values the same
    with n|mu| in place of |lambda|_1.  p = inf is admitted.
    """
    for p in (c.p_norm, new_p):
        if not (p > 0):
            raise InvalidExponent(f"normalization exponent must be positive, got {p}")
    if new_p == c.p_norm:
        return c
    inv_old = 0.0 if np.isinf(c.p_norm) else 1.0 / c.p_norm
    inv_new = 0.0 if np.isinf(new_p) else 1.0 / new_p
    factor = 2.0 ** (c.level_l1() * (inv_old - inv_new))
    return replace(c, values=c.values * factor, p_norm=float(new_p))


# ---------------------------------------------------------------------------
# Table files (bit-exact contract): a header, then per entry k int64 columns
# and the value as %.17g.  Coefficient files have the header
#   hyperwave-coeffs v1 <system> n=<n> p=<p> basis=<name> jmax=<m>
# and the rows of CoeffVector.index_columns() in lexicographic order.
# Array files (cli) are the k = 0 case.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_table(path, head: str, columns: np.ndarray, values: np.ndarray) -> None:
    """The header line, then one row per entry of ``columns`` (N, k) and ``values``."""
    cells = np.concatenate([columns, values[:, None]], axis=1, dtype=object)
    row = "%d " * columns.shape[1] + "%.17g\n"
    with open(path, "w") as fh:
        fh.write(head + "\n" + "".join([row] * len(cells)) % tuple(cells.ravel().tolist()))


def _read_table(rows: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, k) int64 columns and (N,) float64 values of the table rows; a
    row that is not k base-10 int64 tokens and one float raises ValueError
    with the first such row, quoted, as its message."""
    dtype = np.dtype([("i", np.int64, (k,)), ("v", np.float64)])
    try:
        table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1) if rows else np.zeros(0, dtype)
    except ValueError:
        for row in rows:
            try:
                np.loadtxt([row], dtype=dtype, comments=None)
            except ValueError:
                raise ValueError(repr(row.strip())) from None
        raise
    return table["i"], table["v"]


def save_coeffs(cv: CoeffVector, path) -> None:
    cv = cv.canonical_order()
    head = (f"hyperwave-coeffs v1 {cv.system} n={cv.n} p={_fmt(cv.p_norm)} "
            f"basis={cv.basis} jmax={cv.max_level}")
    _write_table(path, head, cv.index_columns(), cv.values)


def load_coeffs(path) -> CoeffVector:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("hyperwave-coeffs v1 "):
        raise DimensionMismatch("not a hyperwave coefficient file")
    head = lines[0].split()
    try:
        system = head[2]
        fields = dict(part.split("=", 1) for part in head[3:])
        n = int(fields["n"])
        p = float(fields["p"])
        basis = fields["basis"]
        mmax = int(fields["jmax"])
    except (IndexError, KeyError, ValueError):
        raise DimensionMismatch(f"malformed coefficient header in {path}: {lines[0]!r}") from None
    if not 1 <= n <= 3:
        raise UnsupportedDimension(f"dimension n={n} not in 1..3")
    try:
        columns, values = _read_table(lines[1:], 2 * n + (system == ISOTROPIC))
        cv = CoeffVector.from_index_columns(system, n, p, mmax, basis, columns, values)
    except (ValueError, DimensionMismatch) as exc:
        raise DimensionMismatch(f"malformed coefficient line in {path}: {exc}") from None
    rows = columns[np.lexsort(columns.T[::-1])]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise DimensionMismatch("duplicate coefficient indices in file")
    return cv

"""Multivariate coefficient systems on the unit cube.

Two index systems coexist: hyperbolic (tensor-product) coefficients keyed
by one level per axis, and isotropic coefficients keyed by a single level
plus a binary type vector.  Coefficients are held in columnar sparse form;
the change of basis between the systems is implemented for n = 2 through
the univariate transforms applied along the coarse axis of each block.
"""

from __future__ import annotations

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
from .transform1d import _analyze_array, _synthesize_array

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
        order = self._sort_order()
        et = self.etypes[order] if self.etypes is not None else None
        return replace(
            self,
            levels=self.levels[order],
            positions=self.positions[order],
            values=self.values[order],
            etypes=et,
        )

    def _sort_order(self) -> np.ndarray:
        keys = [self.positions[:, i] for i in range(self.n - 1, -1, -1)]
        if self.system == HYPERBOLIC:
            keys += [self.levels[:, i] for i in range(self.n - 1, -1, -1)]
        else:
            keys += [self.etypes[:, i] for i in range(self.n - 1, -1, -1)]
            keys += [self.levels]
        return np.lexsort(keys)

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


def _empty_like(system, n, p, max_level, basis):
    if system == HYPERBOLIC:
        return CoeffVector(system, n, p, max_level, basis,
                           np.zeros((0, n), int), np.zeros((0, n), int),
                           np.zeros(0))
    return CoeffVector(system, n, p, max_level, basis,
                       np.zeros(0, int), np.zeros((0, n), int),
                       np.zeros(0), etypes=np.zeros((0, n), np.int8))


def _level_maps(spec: BasisSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per multiscale position: its level and its within-block position."""
    size = spec.delta_size(m)
    lvl = np.empty(size, dtype=np.int64)
    pos = np.empty(size, dtype=np.int64)
    for j in range(spec.j0, m + 1):
        lo, hi = spec.block_slice(j)
        lvl[lo:hi] = j
        pos[lo:hi] = np.arange(hi - lo)
    return lvl, pos


def _block_offsets(spec: BasisSpec, m: int) -> np.ndarray:
    """Offset of each level block in the multiscale ordering, indexed by level."""
    off = np.zeros(m + 1, dtype=np.int64)
    for j in range(spec.j0, m + 1):
        off[j] = spec.block_slice(j)[0]
    return off


def _apply_axis(func, spec: BasisSpec, arr: np.ndarray, axis: int, m: int) -> np.ndarray:
    moved = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    res = func(spec, flat, m).reshape(moved.shape)
    return np.moveaxis(res, 0, axis)


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
        out = _apply_axis(_analyze_array, spec, out, axis, m)
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
        arr[flat] = u.values
    return arr


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
        arr = _apply_axis(_synthesize_array, spec, arr, axis, m)
    return arr


def _require_bivariate(cv: CoeffVector, system: str) -> None:
    if cv.system != system:
        raise WrongSystem(f"expected {system} coefficients, got {cv.system}")
    if cv.n != 2:
        raise UnsupportedDimension(
            f"change of basis is implemented for n = 2, got n = {cv.n}"
        )
    if cv.p_norm != 2.0:
        raise InvalidExponent("change of basis expects L2-normalized coefficients")


def iso_from_hyper(spec: BasisSpec, u: CoeffVector) -> CoeffVector:
    """Isotropic coefficients of the function represented by hyperbolic ones.

    Blockwise for each level m: the diagonal block (m, m) is copied to type
    (1,1); the stacked blocks with one axis coarser than m are mapped by the
    univariate synthesis T_{m-1} acting along that axis, turning multiscale
    positions into level-(m-1) scaling positions.
    """
    _require_bivariate(u, HYPERBOLIC)
    mmax = u.max_level
    arr = _to_multiscale_array(spec, u)
    d0 = spec.delta_size(spec.j0)
    out_levels, out_etypes, out_pos, out_vals = [], [], [], []

    def emit(m, e, block):
        k1, k2 = np.nonzero(block)
        if k1.size:
            out_levels.append(np.full(k1.size, m, dtype=np.int64))
            out_etypes.append(np.tile(np.array(e, dtype=np.int8), (k1.size, 1)))
            out_pos.append(np.stack([k1, k2], axis=1))
            out_vals.append(block[k1, k2])

    emit(spec.j0, (0, 0), arr[:d0, :d0])
    for m in range(spec.j0 + 1, mmax + 1):
        lo, hi = spec.block_slice(m)
        emit(m, (0, 1), _synthesize_array(spec, arr[:lo, lo:hi], m - 1))
        emit(m, (1, 0), _synthesize_array(spec, arr[lo:hi, :lo].T, m - 1).T)
        emit(m, (1, 1), arr[lo:hi, lo:hi])

    if out_vals:
        return CoeffVector(
            ISOTROPIC, 2, 2.0, mmax, u.basis,
            np.concatenate(out_levels), np.concatenate(out_pos),
            np.concatenate(out_vals), etypes=np.concatenate(out_etypes),
        )
    return _empty_like(ISOTROPIC, 2, 2.0, mmax, u.basis)


def hyper_from_iso(spec: BasisSpec, v: CoeffVector) -> CoeffVector:
    """Inverse change of basis: dual analysis Tdual_{m-1}^T along the coarse
    axis of each off-diagonal type block."""
    _require_bivariate(v, ISOTROPIC)
    mmax = v.max_level
    size = spec.delta_size(mmax)
    arr = np.zeros((size, size))
    d0 = spec.delta_size(spec.j0)

    blocks = _gather_iso_blocks(spec, v)
    for (m, e), block in blocks.items():
        if e == (0, 0):
            arr[:d0, :d0] = block
            continue
        lo, hi = spec.block_slice(m)
        if e == (1, 1):
            arr[lo:hi, lo:hi] = block
        elif e == (0, 1):
            arr[:lo, lo:hi] = _analyze_array(spec, block, m - 1)
        elif e == (1, 0):
            arr[lo:hi, :lo] = _analyze_array(spec, block.T, m - 1).T
        else:
            raise DimensionMismatch(f"invalid type vector {e}")
    return _from_multiscale_array(spec, arr, 2, mmax)


def _iso_block_shape(spec: BasisSpec, m: int, e: tuple[int, int]) -> tuple[int, int]:
    if e == (0, 0):
        d0 = spec.delta_size(spec.j0)
        return d0, d0

    def axis_dim(ei):
        return spec.nabla_size(m) if ei else spec.delta_size(m - 1)

    return axis_dim(e[0]), axis_dim(e[1])


def _gather_iso_blocks(spec: BasisSpec, v: CoeffVector) -> dict:
    """Dense per-(m, e) blocks from the sparse isotropic entries."""
    blocks: dict[tuple[int, tuple[int, int]], np.ndarray] = {}
    if not v.num_entries:
        return blocks
    if not np.isin(v.etypes, (0, 1)).all():
        raise DimensionMismatch("isotropic type vectors must lie in {0,1}^n")
    code = v.levels * 4 + v.etypes[:, 0] * 2 + v.etypes[:, 1]
    for c in np.unique(code):
        sel = code == c
        m = int(c) // 4
        e = ((int(c) // 2) % 2, int(c) % 2)
        if e == (0, 0) and m != spec.j0:
            raise DimensionMismatch("type (0,0) only exists at the coarsest level")
        shape = _iso_block_shape(spec, m, e)
        k = v.positions[sel]
        bad = ((k < 0) | (k >= shape)).any(axis=1)
        if bad.any():
            raise DimensionMismatch(
                f"position {tuple(k[bad][0].tolist())} out of range for level {m} "
                f"type {e} block of shape {shape}"
            )
        block = np.zeros(shape)
        block[k[:, 0], k[:, 1]] = v.values[sel]
        blocks[(m, e)] = block
    return blocks


def iso_synthesize(spec: BasisSpec, v: CoeffVector) -> np.ndarray:
    """Single-scale array represented by isotropic coefficients (n = 2).

    Each type block is pushed to level m through the refinement masks and
    prolonged to the truncation level; this route shares nothing with the
    change of basis beyond the masks themselves, which makes it the natural
    cross-check that both sides represent the same function.
    """
    _require_bivariate(v, ISOTROPIC)
    mmax = v.max_level
    size = spec.delta_size(mmax)
    out = np.zeros((size, size))

    def prolong(block, j_from):
        cur = block
        for level in range(j_from + 1, mmax + 1):
            m0 = spec.masks(level).m0.csr
            cur = m0 @ cur
            cur = (m0 @ cur.T).T
        return cur

    for (m, e), block in _gather_iso_blocks(spec, v).items():
        if e == (0, 0):
            out += prolong(block, spec.j0)
            continue
        quad = spec.masks(m)
        f1 = quad.m1.csr if e[0] else quad.m0.csr
        f2 = quad.m1.csr if e[1] else quad.m0.csr
        level_m = (f2 @ (f1 @ block).T).T
        out += prolong(level_m, m)
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
# Coefficient file format (bit-exact contract):
#   hyperwave-coeffs v1 <system> n=<n> p=<p> basis=<name> jmax=<m>
# then one line per nonzero, lexicographically ordered:
#   hyperbolic:  j_1 .. j_n k_1 .. k_n value
#   isotropic:   m e_1 .. e_n k_1 .. k_n value
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def save_coeffs(cv: CoeffVector, path) -> None:
    cv = cv.canonical_order()
    lines = [
        f"hyperwave-coeffs v1 {cv.system} n={cv.n} p={_fmt(cv.p_norm)} "
        f"basis={cv.basis} jmax={cv.max_level}"
    ]
    for i in range(cv.num_entries):
        pos = " ".join(str(int(x)) for x in cv.positions[i])
        if cv.system == HYPERBOLIC:
            lvl = " ".join(str(int(x)) for x in cv.levels[i])
        else:
            et = " ".join(str(int(x)) for x in cv.etypes[i])
            lvl = f"{int(cv.levels[i])} {et}"
        lines.append(f"{lvl} {pos} {_fmt(float(cv.values[i]))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        raise DimensionMismatch(f"malformed coefficient header: {lines[0]!r}") from None
    width = 2 * n + (1 if system == HYPERBOLIC else 2)
    levels, etypes, positions, values = [], [], [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != width:
            raise DimensionMismatch(f"malformed coefficient line: {ln!r}")
        try:
            ints = [int(x) for x in parts[:-1]]
            values.append(float(parts[-1]))
        except ValueError:
            raise DimensionMismatch(f"malformed coefficient line: {ln!r}") from None
        if system == HYPERBOLIC:
            levels.append(ints[:n])
        else:
            levels.append(ints[0])
            etypes.append(ints[1:n + 1])
        positions.append(ints[-n:])
    if not values:
        return _empty_like(system, n, p, mmax, basis)
    lv = np.asarray(levels, dtype=np.int64)
    cv = CoeffVector(
        system, n, p, mmax, basis,
        lv, np.asarray(positions, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        etypes=np.asarray(etypes, dtype=np.int8) if system == ISOTROPIC else None,
    )
    keymat = np.concatenate(
        [lv.reshape(cv.num_entries, -1), cv.positions]
        + ([cv.etypes] if cv.etypes is not None else []),
        axis=1,
    )
    if np.unique(keymat, axis=0).shape[0] != cv.num_entries:
        raise DimensionMismatch("duplicate coefficient indices in file")
    return cv

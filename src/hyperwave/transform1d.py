"""Univariate multiscale transforms, matrix-free and as explicit matrices.

The synthesis matrix T_m maps multiscale coefficients, ordered as
[coarse scaling block, detail blocks by increasing level], to level-m
single-scale coefficients; its dual satisfies Tdual_m^T T_m = I.  The
matrix-free route is one two-scale step in place on a multiscale grid,
``_step``, and one sweep of it over the grid's axes and levels, ``_sweep``,
which serves every grid transform at O(|Delta_m|) per line.  A full sweep
of a grid larger than ``TILE_CELLS`` runs tile by tile, so its temporaries
stay within a tile, in cache.  It multiplies
by the masks with the numpy products of ``BandMatrix.apply`` and
``apply_transpose``, which give scipy's results bit for bit (up to the
sign of a NaN).  The verification checks assemble T_m and Tdual_m
explicitly, with the sparse product ``BandMatrix.matmul``, which gives the
entries scipy's CSR product gave: each level takes one cascade step from
the level below, T_m = [M0_m | M1_m] diag(T_{m-1}, I), and every assembled
level is kept on the spec.  When every level's dual masks equal its primal
masks (an orthonormal basis such as Haar), Tdual_m is T_m, and the pair
holds one matrix twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandmatrix import PRODUCT_TERMS, BandMatrix, _read_only
from .basis1d import BasisSpec
from .errors import DimensionMismatch, LevelBelowCoarsest

__all__ = [
    "MultiscaleVector",
    "build_transform",
    "forward",
    "inverse",
    "check_entry_decay",
    "cascade_cost",
]


@dataclass(frozen=True)
class MultiscaleVector:
    """Coefficient blocks (c_j0, d_j0+1, ..., d_m) of a multiscale expansion,
    read-only views of the arrays given."""

    j0: int
    m: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _read_only(*(np.asarray(b).view() for b in self.blocks)))

    def concat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def _check_block_lengths(spec: BasisSpec, ms: MultiscaleVector) -> None:
    if ms.j0 != spec.j0:
        raise DimensionMismatch(f"vector j0={ms.j0} differs from basis j0={spec.j0}")
    expected = [spec.nabla_size(j) for j in range(spec.j0, ms.m + 1)]
    actual = [len(b) for b in ms.blocks]
    if actual != expected:
        raise DimensionMismatch(f"block lengths {actual}, expected {expected}")


def _step(quad, grid: np.ndarray, box, axis: int, lo: int, hi: int, analysis: bool) -> None:
    """One level's two-scale step along ``axis`` of ``grid``, in place on
    the lines that the slices ``box`` select on the other axes.

    Analysis maps the level-k cells [0, hi) of each line to Mt1^T (the
    detail cells [lo, hi)) and Mt0^T (the coarse cells [0, lo)); synthesis
    maps them back, M0 coarse + M1 detail.  Both products read the line
    before either is written.
    """
    whole, coarse, detail = (tuple(box[:axis]) + (cut,) + tuple(box[axis + 1:])
                             for cut in (slice(0, hi), slice(0, lo), slice(lo, hi)))
    if analysis:
        line = grid[whole]
        grid[detail], grid[coarse] = (quad.mt1.apply_transpose(line, axis),
                                      quad.mt0.apply_transpose(line, axis))
    else:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN
            np.add(quad.m0.apply(grid[coarse], axis), quad.m1.apply(grid[detail], axis),
                   out=grid[whole])


TILE_CELLS = 2 ** 16  # cells of one tile of lines in a full sweep: 512 KB, a cache's share


def _sweep(spec: BasisSpec, grid: np.ndarray, n: int, m: int, analysis: bool,
           full: bool = True) -> np.ndarray:
    """The univariate cascades in place along each of the last n axes of
    the level-m multiscale ``grid`` in turn, which is returned; leading
    axes index a batch.

    With ``full``, every line takes the level-m cascade: Tdual_m^T with
    ``analysis``, else T_m, per axis on each tile of lines of
    :func:`_tiles` in turn; the products are elementwise, so each line gets
    the same ones, in the same order, as on the whole grid.  Otherwise this
    is the change of basis between the hyperbolic and the isotropic system:
    a line whose other coordinates reach top level M > j0 gets T_{M-1} (or
    Tdual_{M-1}^T) on its cells of level below M.  Such a line runs through
    the level-M blocks of the types with e_i = 0 on the swept axis, and its
    cells below level M are their scaling positions along it.  All lines of
    top level at least k + 1 take cascade step k together, as n - 1 boxes:
    box i holds the lines whose other axis i is at least |Delta_k| and
    whose other axes before it are below.  So each line gets the mask
    products its block's own cascade would, in the same order, with O(m)
    products in all.
    """
    axes = range(grid.ndim - n, grid.ndim)
    levels = range(spec.j0 + 1, m + 1 if full else m)
    steps = [(spec.masks(k), *spec.block_slice(k))
             for k in (reversed(levels) if analysis else levels)]
    for axis in axes:
        if full:
            for tile, work in _tiles(grid, axis):
                for quad, lo, hi in steps:
                    _step(quad, work, (), 0, lo, hi, analysis)
                if work is not tile:
                    tile[...] = work
            continue
        others = [b for b in axes if b != axis]
        for quad, lo, hi in steps:
            box = [slice(None)] * grid.ndim
            for b in others:
                box[b] = slice(hi, None)
                _step(quad, grid, box, axis, lo, hi, analysis)
                box[b] = slice(0, hi)
    return grid


def _tiles(grid: np.ndarray, axis: int):
    """(tile, work) pairs covering the lines of ``grid`` along ``axis``:
    ``tile`` is a view with that axis first, and ``work`` the array to step
    on, to be written back to ``tile`` unless it is ``tile``.  A grid of at
    most ``TILE_CELLS`` cells is one tile, stepped in place (a buffer would
    add two copies and a grid size of memory to a grid already in cache)
    or, where lines outnumber their cells off the contiguous axis (in place
    a product runs an inner loop per line), on a copy.  A larger grid is
    cut into runs of the other axes, in their order, of at most
    ``TILE_CELLS`` cells each, copied one at a time into one axis-first
    buffer."""
    length, rest = grid.shape[axis], grid.shape[:axis] + grid.shape[axis + 1:]
    per_tile = max(TILE_CELLS // length, 1)
    split = next(a for a in range(len(rest) + 1) if math.prod(rest[a:]) <= per_tile)
    if split == 0:
        lines = grid.swapaxes(0, axis)
        short = lines.size > length ** 2 and not lines.flags.c_contiguous
        yield lines, lines.copy() if short else lines
        return
    lines = np.moveaxis(grid, axis, 0)
    run = per_tile // math.prod(rest[split:])
    buffer = np.empty(length * run * math.prod(rest[split:]))
    for outer in np.ndindex(rest[:split - 1]):
        for start in range(0, rest[split - 1], run):
            tile = lines[(slice(None), *outer, slice(start, start + run))]
            work = buffer[:tile.size].reshape(tile.shape)
            np.copyto(work, tile)
            yield tile, work


def _analyze_array(spec: BasisSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Apply Tdual_m^T along the leading axis of a 1-D or 2-D array."""
    return _sweep(spec, np.array(a, dtype=np.float64).T, 1, m, analysis=True).T


def _synthesize_array(spec: BasisSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Apply T_m along the leading axis of a 1-D or 2-D array."""
    return _sweep(spec, np.array(a, dtype=np.float64).T, 1, m, analysis=False).T


def _same_mask(a: BandMatrix, b: BandMatrix) -> bool:
    """True when two masks have the same shape and bitwise equal entries."""
    return a is b or (a.shape == b.shape and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.entries(), b.entries())))


def _cascade_step(t_prev: BandMatrix, m0: BandMatrix, m1: BandMatrix, lo: int, hi: int):
    """T_m = [M0 | M1] @ diag(T_{m-1}, I): one step of the synthesis cascade
    run on the identity.  An entry left of column lo sums the products of
    M0 and T_{m-1} in ascending shared index; one right of it is an entry
    of M1 times 1.0; zero sums are dropped.  These are the entries scipy
    gave for M0 [T_{m-1} | 0] + M1 [rows lo..hi of I]."""
    (r0, c0, v0), (r1, c1, v1), (r, c, v) = m0.entries(), m1.entries(), t_prev.entries()
    eye = np.arange(lo, hi)
    left = BandMatrix(hi, hi, np.concatenate((r0, r1)), np.concatenate((c0, c1 + lo)),
                      np.concatenate((v0, v1)))
    right = BandMatrix._adopt(hi, hi, np.concatenate((r, eye)), np.concatenate((c, eye)),
                              np.concatenate((v, np.ones(hi - lo))))
    return left.matmul(right)


def build_transform(spec: BasisSpec, m: int) -> tuple[BandMatrix, BandMatrix]:
    """Assemble T_m and its dual as sparse matrices, column blocks in the
    multiscale ordering, in numpy with scipy's bits (``_cascade_step``).

    Starting from the highest level already kept on the spec (or from the
    identity at j0), each level takes one cascade step, over the primal
    masks for T and over the dual masks for Tdual, and every level built on
    the way is kept, so each (spec, m) pair is built once.  While every
    level so far has dual masks bitwise equal to its primal masks, the
    dual is the same ``BandMatrix`` object as T_m.
    """
    if m < spec.j0:
        raise LevelBelowCoarsest(f"level {m} below coarsest level {spec.j0}")
    pairs = spec._transforms
    if m not in pairs:
        top = max((j for j in pairs if j < m), default=spec.j0)
        if top not in pairs:
            eye = BandMatrix.identity(spec.delta_size(top))
            pairs[top] = (eye, eye)
        t, t_dual = pairs[top]
        for level in range(top + 1, m + 1):
            quad = spec.masks(level)
            lo, hi = spec.block_slice(level)
            t_next = _cascade_step(t, quad.m0, quad.m1, lo, hi)
            if t_dual is t and _same_mask(quad.mt0, quad.m0) and _same_mask(quad.mt1, quad.m1):
                t_dual = t_next
            else:
                t_dual = _cascade_step(t_dual, quad.mt0, quad.mt1, lo, hi)
            t = t_next
            pairs[level] = (t, t_dual)
    return pairs[m]


def forward(spec: BasisSpec, c_m: np.ndarray) -> MultiscaleVector:
    """Decompose level-m single-scale coefficients, c -> Tdual_m^T c.

    Runs the matrix-free analysis cascade level by level; the result is
    partitioned into the coarse block and one detail block per level.
    """
    c_m = np.asarray(c_m, dtype=np.float64)
    if c_m.ndim != 1:
        raise DimensionMismatch("forward expects a 1-D coefficient vector")
    m = spec.level_of_size(len(c_m))
    flat = _analyze_array(spec, c_m, m)
    blocks = [flat[slice(*spec.block_slice(j))] for j in range(spec.j0, m + 1)]
    return MultiscaleVector(j0=spec.j0, m=m, blocks=tuple(blocks))


def inverse(spec: BasisSpec, ms: MultiscaleVector) -> np.ndarray:
    """Reconstruct single-scale coefficients, c = T_m @ concat(ms)."""
    _check_block_lengths(spec, ms)
    return _synthesize_array(spec, np.asarray(ms.concat(), dtype=np.float64), ms.m)


def cascade_cost(spec: BasisSpec, m: int) -> int:
    """Number of nonzero mask entries touched by one analysis cascade.

    Operation-count proxy for the O(|Delta_m|) complexity claim: for
    bounded-bandwidth masks the ratio cost(m+1)/cost(m) approaches 2.
    """
    cost = 0
    for level in range(spec.j0 + 1, m + 1):
        quad = spec.masks(level)
        cost += quad.mt0.nnz + quad.mt1.nnz
    return cost


def check_entry_decay(spec: BasisSpec, m: int, alpha: float) -> float:
    """Worst ratio of |t_{mu,lambda}| against the far-field decay envelope.

    Rows of T_m are level-m scaling indices mu = (m, l); columns are
    multiscale indices lambda = (j, k).  Each entry is compared with
    2^{(j-m)/2} (1 + dist)^{-alpha}, where dist measures, in level-j index
    units, how far the fine cell l lies outside the nominal dyadic patch
    of position k; entries inside the patch are near-field and only the
    2^{(j-m)/2} factor is asserted there.
    """
    if m <= spec.j0:
        raise LevelBelowCoarsest(f"need m > j0={spec.j0}")
    t, _ = build_transform(spec, m)
    size = spec.delta_size(m)
    rows, cols, values = t.entries()
    widths = np.array([spec.nabla_size(level) for level in range(spec.j0, m + 1)])
    # Per column of T_m: its level and the first column of its level.
    lvl, start = np.repeat([range(spec.j0, m + 1), np.cumsum(widths) - widths], widths, axis=1)
    worst = []  # per block of entries, to keep temporaries small; a maximum is order-free
    for s in range(0, values.size, PRODUCT_TERMS):
        block = slice(s, s + PRODUCT_TERMS)
        j, k = lvl[cols[block]], cols[block] - start[cols[block]]
        # Fine-cell center in level-j block units.
        x = (rows[block] + 0.5) / size * widths[j - spec.j0]
        dist = np.maximum(0.0, np.maximum(k - x, x - (k + 1)))
        envelope = 2.0 ** ((j - m) / 2.0) * (1.0 + dist) ** (-alpha)
        worst.append((np.abs(values[block]) / envelope).max())
    return float(np.max(worst, initial=0.0))

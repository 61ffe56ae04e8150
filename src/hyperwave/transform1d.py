"""Univariate multiscale transforms, matrix-free and as explicit matrices.

The synthesis matrix T_m maps multiscale coefficients, ordered as
[coarse scaling block, detail blocks by increasing level], to level-m
single-scale coefficients; its dual satisfies Tdual_m^T T_m = I.  The
matrix-free route is one two-scale step in place on a multiscale grid,
``_step``, and one sweep of it over the grid's axes and levels, ``_sweep``,
which serves every grid transform at O(|Delta_m|) per line.  It multiplies
by the masks with the numpy products of ``BandMatrix.apply`` and
``apply_transpose``, which give scipy's results bit for bit (up to the
sign of a NaN) without importing scipy.  The verification checks assemble
T_m and Tdual_m explicitly, the one place here where scipy is loaded: each
level takes one sparse cascade step from the level below, T_m = M0_m
[T_{m-1} | 0] + M1_m [rows of I for level m], and every assembled level is
kept on the spec.  When every level's dual masks equal its primal masks
(an orthonormal basis such as Haar), Tdual_m is T_m, and the pair holds
one matrix twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandmatrix import BandMatrix
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
    """Coefficient blocks (c_j0, d_j0+1, ..., d_m) of a multiscale expansion."""

    j0: int
    m: int
    blocks: tuple[np.ndarray, ...]

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


def _sweep(spec: BasisSpec, grid: np.ndarray, n: int, m: int, analysis: bool,
           full: bool = True) -> np.ndarray:
    """The univariate cascades in place along each of the last n axes of
    the level-m multiscale ``grid`` in turn, which is returned; leading
    axes index a batch.

    With ``full``, every line takes the level-m cascade: Tdual_m^T with
    ``analysis``, else T_m.  Otherwise this is the change of basis between
    the hyperbolic and the isotropic system: a line whose other coordinates
    reach top level M > j0 gets T_{M-1} (or Tdual_{M-1}^T) on its cells of
    level below M.  Such a line runs through the level-M blocks of the
    types with e_i = 0 on the swept axis, and its cells below level M are
    their scaling positions along it.  All lines of top level at least
    k + 1 take cascade step k together, as n - 1 boxes: box i holds the
    lines whose other axis i is at least |Delta_k| and whose other axes
    before it are below.  So each line gets the mask products its block's
    own cascade would, in the same order, with O(m) products in all.
    """
    axes = range(grid.ndim - n, grid.ndim)
    levels = range(spec.j0 + 1, m + 1 if full else m)
    for axis in axes:
        others = [b for b in axes if b != axis]
        # In place along the contiguous axis, a product runs an inner loop per
        # line; where lines outnumber their cells, a full sweep runs on an
        # axis-first copy, written back, whose inner loops span all lines.
        lines = grid.swapaxes(0, axis)
        short = lines.size > lines.shape[0] ** 2 and not lines.flags.c_contiguous
        work = lines.copy() if full and short else lines
        for k in reversed(levels) if analysis else levels:
            quad = spec.masks(k)
            lo, hi = spec.block_slice(k)
            if full:
                _step(quad, work, (), 0, lo, hi, analysis)
                continue
            box = [slice(None)] * grid.ndim
            for b in others:
                box[b] = slice(hi, None)
                _step(quad, grid, box, axis, lo, hi, analysis)
                box[b] = slice(0, hi)
        if work is not lines:
            lines[...] = work
    return grid


def _analyze_array(spec: BasisSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Apply Tdual_m^T along the leading axis of a 1-D or 2-D array."""
    return _sweep(spec, np.array(a, dtype=np.float64).T, 1, m, analysis=True).T


def _synthesize_array(spec: BasisSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Apply T_m along the leading axis of a 1-D or 2-D array."""
    return _sweep(spec, np.array(a, dtype=np.float64).T, 1, m, analysis=False).T


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


def _same_mask(a: BandMatrix, b: BandMatrix) -> bool:
    """True when two masks have the same shape and bitwise equal entries."""
    return a is b or (a.shape == b.shape and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.entries(), b.entries())))


def _cascade_step(t_prev: BandMatrix, m0: BandMatrix, m1: BandMatrix, lo: int, hi: int):
    """The scipy CSR matrix M0 [T_{m-1} | 0] + M1 [rows lo..hi of I], both
    operands widened with zero columns to |Delta_m| = hi.  These are the
    product and sum of one step of the synthesis cascade run on the
    identity, so the entries, and the zeros the sum drops, are the same."""
    import scipy.sparse as sp

    prev = t_prev.csr
    padded = sp.csr_matrix((prev.data, prev.indices, prev.indptr), shape=(prev.shape[0], hi))
    eye_rows = sp.csr_matrix(
        (np.ones(hi - lo), np.arange(lo, hi), np.arange(hi - lo + 1)), shape=(hi - lo, hi))
    return m0.csr @ padded + m1.csr @ eye_rows


def build_transform(spec: BasisSpec, m: int) -> tuple[BandMatrix, BandMatrix]:
    """Assemble T_m and its dual as sparse matrices, column blocks in the
    multiscale ordering.

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
            t_next = BandMatrix.from_csr(_cascade_step(t, quad.m0, quad.m1, lo, hi))
            if t_dual is t and _same_mask(quad.mt0, quad.m0) and _same_mask(quad.mt1, quad.m1):
                t_dual = t_next
            else:
                t_dual = BandMatrix.from_csr(_cascade_step(t_dual, quad.mt0, quad.mt1, lo, hi))
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
    lvl, pos = _level_maps(spec, m)
    j = lvl[cols]
    k = pos[cols]
    widths = np.array([spec.nabla_size(level) for level in range(spec.j0, m + 1)])
    n_block = widths[j - spec.j0]
    # Fine-cell center in level-j block units.
    x = (rows + 0.5) / size * n_block
    dist = np.maximum(0.0, np.maximum(k - x, x - (k + 1)))
    envelope = 2.0 ** ((j - m) / 2.0) * (1.0 + dist) ** (-alpha)
    ratios = np.abs(values) / envelope
    return float(ratios.max()) if ratios.size else 0.0

"""Univariate multiscale transforms, matrix-free and as explicit matrices.

The synthesis matrix T_m maps multiscale coefficients, ordered as
[coarse scaling block, detail blocks by increasing level], to level-m
single-scale coefficients; its dual satisfies Tdual_m^T T_m = I.  The
matrix-free cascade costs O(|Delta_m|) for bounded-bandwidth masks and is
the default; the verification checks assemble T_m and Tdual_m explicitly
by running the same cascade on a sparse identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .bandmatrix import BandMatrix
from .basis1d import BasisSpec, MaskQuad
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


def _analyze_array(spec: BasisSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Apply Tdual_m^T along the leading axis of a 1-D or 2-D array."""
    out = np.empty_like(a, dtype=np.float64)
    cur = np.asarray(a, dtype=np.float64)
    for level in range(m, spec.j0, -1):
        quad = spec.masks(level)
        lo, hi = spec.block_slice(level)
        out[lo:hi] = quad.mt1.csr.T @ cur
        cur = quad.mt0.csr.T @ cur
    out[: spec.delta_size(spec.j0)] = cur
    return out


def _synthesize_array(spec: BasisSpec, a, m: int):
    """Apply T_m along the leading axis of a 1-D/2-D float64 array or sparse matrix."""
    cur = a[: spec.delta_size(spec.j0)].copy()
    for level in range(spec.j0 + 1, m + 1):
        quad = spec.masks(level)
        lo, hi = spec.block_slice(level)
        cur = quad.m0.csr @ cur + quad.m1.csr @ a[lo:hi]
    return cur


def _apply_axis(fn, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``fn``, a map of the leading axis of 2-D arrays, along one axis
    of an n-D array; the length of that axis may change."""
    moved = np.swapaxes(arr, axis, 0)
    res = fn(moved.reshape(moved.shape[0], -1))
    return np.swapaxes(res.reshape(res.shape[:1] + moved.shape[1:]), 0, axis)


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


def _dual_spec(spec: BasisSpec) -> BasisSpec:
    """The basis with primal and dual masks exchanged: its T_m is Tdual_m."""
    return replace(spec, _masks=lambda j: MaskQuad(*spec.masks(j)[2:], *spec.masks(j)[:2]))


def build_transform(spec: BasisSpec, m: int) -> tuple[BandMatrix, BandMatrix]:
    """Assemble T_m and its dual as sparse matrices: the synthesis cascade,
    over the primal and over the exchanged masks, applied to the sparse
    identity, so column blocks follow the multiscale ordering."""
    if m < spec.j0:
        raise LevelBelowCoarsest(f"level {m} below coarsest level {spec.j0}")
    eye = sp.identity(spec.delta_size(m), format="csr")
    t = _synthesize_array(spec, eye, m)
    t_dual = _synthesize_array(_dual_spec(spec), eye, m)
    return BandMatrix.from_csr(t), BandMatrix.from_csr(t_dual)


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
    coo = t.csr.tocoo()
    lvl, pos = _level_maps(spec, m)
    j = lvl[coo.col]
    k = pos[coo.col]
    widths = np.array([spec.nabla_size(level) for level in range(spec.j0, m + 1)])
    n_block = widths[j - spec.j0]
    # Fine-cell center in level-j block units.
    x = (coo.row + 0.5) / size * n_block
    dist = np.maximum(0.0, np.maximum(k - x, x - (k + 1)))
    envelope = 2.0 ** ((j - m) / 2.0) * (1.0 + dist) ** (-alpha)
    ratios = np.abs(coo.data) / envelope
    return float(ratios.max()) if ratios.size else 0.0

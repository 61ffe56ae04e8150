"""Univariate multiscale transforms, matrix-free and as explicit matrices.

The synthesis matrix T_m maps multiscale coefficients, ordered as
[coarse scaling block, detail blocks by increasing level], to level-m
single-scale coefficients; its dual satisfies Tdual_m^T T_m = I.  The
matrix-free cascade costs O(|Delta_m|) for bounded-bandwidth masks and is
the default; explicit matrices are assembled only for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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

    @property
    def total_length(self) -> int:
        return sum(len(b) for b in self.blocks)


def _check_block_lengths(spec: BasisSpec, ms: MultiscaleVector) -> None:
    if ms.j0 != spec.j0:
        raise DimensionMismatch(f"vector j0={ms.j0} differs from basis j0={spec.j0}")
    expected = [spec.delta_size(spec.j0)] + [
        spec.nabla_size(j) for j in range(spec.j0 + 1, ms.m + 1)
    ]
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


def _synthesize_array(spec: BasisSpec, a: np.ndarray, m: int) -> np.ndarray:
    """Apply T_m along the leading axis of a 1-D or 2-D array."""
    a = np.asarray(a, dtype=np.float64)
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


def build_transform(spec: BasisSpec, m: int) -> tuple[BandMatrix, BandMatrix]:
    """Assemble T_m and its dual explicitly as sparse matrices.

    The product runs over the per-level factors diag([M_l0, M_l1], I),
    finest factor leftmost, so that column blocks follow the multiscale
    ordering frozen in the file format.
    """
    if m < spec.j0:
        raise LevelBelowCoarsest(f"level {m} below coarsest level {spec.j0}")
    size = spec.delta_size(m)
    t = sp.identity(size, format="csr")
    t_dual = sp.identity(size, format="csr")
    for level in range(spec.j0 + 1, m + 1):
        quad = spec.masks(level)
        pad = size - spec.delta_size(level)
        g = sp.hstack([quad.m0.csr, quad.m1.csr], format="csr")
        g_dual = sp.hstack([quad.mt0.csr, quad.mt1.csr], format="csr")
        if pad:
            eye = sp.identity(pad, format="csr")
            g = sp.block_diag([g, eye], format="csr")
            g_dual = sp.block_diag([g_dual, eye], format="csr")
        # Finest factor leftmost: T_m = G_m * diag(G_{m-1}, I) * ...
        t = g @ t
        t_dual = g_dual @ t_dual
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
    blocks = [flat[: spec.delta_size(spec.j0)]]
    for j in range(spec.j0 + 1, m + 1):
        lo, hi = spec.block_slice(j)
        blocks.append(flat[lo:hi])
    return MultiscaleVector(j0=spec.j0, m=m, blocks=tuple(blocks))


def inverse(spec: BasisSpec, ms: MultiscaleVector) -> np.ndarray:
    """Reconstruct single-scale coefficients, c = T_m @ concat(ms)."""
    _check_block_lengths(spec, ms)
    return _synthesize_array(spec, ms.concat(), ms.m)


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

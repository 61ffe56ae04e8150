"""Discrete sequence norms over hyperbolic and isotropic coefficients.

All norms act on the stored coefficients after rescaling them internally
to the requested L^p normalization; weight exponents use raw levels
j >= j0, which changes norms only by a fixed constant relative to a
shifted-level convention.  The p = tau = 2 identities (hybrid Besov =
Sobolev of hybrid regularity, isotropic Besov = isotropic Sobolev) hold
bitwise because the specialized norms delegate to the general ones.

Each vector keeps, per exponent p, the levels of its blocks that hold
entries and their inner l^p norms, written on the first norm that reads
them; every further (q, s, tau) costs O(blocks).  A vector that keeps its
multiscale grid bins the grid's cells (:class:`_HybridBins`,
:class:`_IsoBins`, shared with the embedding check in ``verify``) and
builds no index array.  The sums carry the bits of the entry sums because
``np.bincount`` adds each bin in input order and the grid's zero cells add
+0.0: a kept grid's entries are its blocks in file order, each in C order,
the order in which the grid's C order visits a block's cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidExponent, WrongSystem
from .tensorbasis import (
    HYPERBOLIC,
    ISOTROPIC,
    CoeffVector,
    _index_code,
    _blocks,
    _kept_grid,
    _rescale_factor,
    rescale,
)

__all__ = [
    "NormParams",
    "besov_hybrid_norm",
    "besov_iso_norm",
    "gk_norm",
    "sobolev_norm_hyper",
    "sobolev_norm_iso",
    "weak_ltau",
]


@dataclass(frozen=True)
class NormParams:
    """Parameters (q, s, p, tau) selecting a hybrid sequence norm.

    q is the isotropic regularity, s the additional mixed regularity, p
    the integrability and tau the fine index; p, tau may be inf.  The
    Sobolev-window condition -gamma_tilde < s < gamma is a property of the
    basis, not of the formula, and is therefore not enforced here.
    """

    q: float
    s: float
    p: float = 2.0
    tau: float = 2.0

    def __post_init__(self):
        if not (self.p > 0) or not (self.tau > 0):
            raise InvalidExponent("p and tau must lie in (0, inf]")

    def in_sobolev_window(self, gamma: float, gamma_tilde: float) -> bool:
        """Whether (s, q+s) lie inside (-gamma_tilde, gamma), the window in
        which the sequence quantity characterizes the function space."""
        return (-gamma_tilde < self.s < gamma) and (-gamma_tilde < self.q + self.s < gamma)


def _block_norm(values: np.ndarray, group: np.ndarray, n_groups: int, p: float) -> np.ndarray:
    """Inner l^p norm of |values| within each group (max for p = inf)."""
    a = np.abs(values)
    if np.isinf(p):
        out = np.zeros(n_groups)
        np.maximum.at(out, group, a)
        return out
    if a.dtype.kind == "f":
        a **= p  # in place: the bits of a ** p, one temporary fewer
    else:
        a = a ** p
    sums = np.bincount(group, weights=a, minlength=n_groups)
    return sums ** (1.0 / p)


def _outer_norm(weighted: np.ndarray, tau: float) -> float:
    if weighted.size == 0:
        return 0.0
    if np.isinf(tau):
        return float(weighted.max())
    return float(np.sum(weighted ** tau) ** (1.0 / tau))


def _grouped_block_norms(code: np.ndarray, span: int, values: np.ndarray, p: float):
    """The distinct codes, ascending, and the inner l^p norm of |values|
    over the entries of each; every code lies in [0, span).

    When the code space is no larger than the entry count, the codes are
    the bins themselves: ``np.bincount`` adds each bin in input order, as
    it does over the inverse of ``np.unique``, so the sums carry the same
    bits without a sort.  A wider span, such as levels 0 and 2^40, would
    allocate one bin per code, and keeps ``np.unique``.
    """
    if span <= code.size:
        codes = np.flatnonzero(np.bincount(code, minlength=span))
        return codes, _block_norm(values, code, span, p)[codes]
    codes, group = np.unique(code, return_inverse=True)
    return codes, _block_norm(values, group, codes.size, p)


def _stored_block_norms(v: CoeffVector, p: float, build):
    """``build()``, the block levels and inner l^p norms of ``v``, made once
    per exponent p and kept on ``v`` as read-only arrays.  Vectors derived
    from ``v`` are new objects and start without them."""
    stored = vars(v).setdefault("_block_norms", {})
    if p not in stored:
        levels, inner = build()
        for a in (levels, inner):
            a.flags.writeable = False
        stored.setdefault(p, (levels, inner))
    return stored[p]


class _HybridBins:
    """The bins of the hybrid block sums over the cells of up to k stacked
    level-m multiscale grids of L^2-normalized hyperbolic coefficients,
    shape (k, size, ..., size): per cell its block code, offset by trial so
    that a batch of k' <= k grids takes the first k' of them, and for
    p != 2 its rescale factor to L^p."""

    def __init__(self, spec, n: int, m: int, p: float, k: int = 1):
        self.p, self.nl = p, m - spec.j0 + 1
        levels = range(spec.j0, m + 1)
        lvl = np.repeat(levels, [spec.nabla_size(j) for j in levels])
        axes = [lvl.reshape([-1 if i == a else 1 for i in range(n)]) for a in range(n)]
        trial = np.arange(k).reshape((k,) + (1,) * n)
        codes = _index_code(axes, [spec.j0] * n, [self.nl] * n)
        self.codes = (codes + trial * self.nl ** n).ravel()
        self.factors = None
        if p != 2.0:
            self.factors = _rescale_factor(np.arange(n * m + 1), 2.0, p)[sum(axes)]
        self.starts = [spec.block_slice(j)[0] for j in levels]

    def __call__(self, grids: np.ndarray):
        """The (k', nl^n) inner l^p norms of the blocks of each grid, in
        code order, and the mask of the blocks that hold a nonzero cell."""
        k, n = len(grids), grids.ndim - 1
        values = grids if self.factors is None else grids * self.factors
        inner = _block_norm(values.ravel(), self.codes[:values.size], k * self.nl ** n, self.p)
        present = grids != 0
        for axis in range(1, n + 1):
            present = np.logical_or.reduceat(present, self.starts, axis=axis)
        return inner.reshape(k, -1), present.reshape(k, -1)


class _IsoBins:
    """The bins of the isotropic level sums over the cells of up to k
    stacked isotropic multiscale grids (swept by the change of basis), read
    block by block in file order: per cell its level, offset by trial."""

    def __init__(self, spec, n: int, m: int, p: float, k: int = 1):
        self.spec, self.n, self.m, self.p = spec, n, m, p
        levels = np.arange(spec.j0, m + 1)
        sizes = np.diff([0, *(spec.delta_size(j) ** n for j in levels.tolist())])
        level_of = np.repeat(np.arange(levels.size), sizes)
        self.codes = (level_of + levels.size * np.arange(k)[:, None]).ravel()
        self.factors = _rescale_factor(n * levels, 2.0, p)

    def __call__(self, grids: np.ndarray):
        """The (k', levels) inner l^p norms of the levels of each grid and
        the mask of the levels that hold a nonzero cell."""
        k, j0 = len(grids), self.spec.j0
        cells = np.empty((k, grids[0].size))
        present = np.zeros((k, self.factors.size), dtype=bool)
        at = 0
        for (m, _), block in _blocks(self.spec, grids, self.n, self.m, ISOTROPIC):
            size = block[0].size
            out = cells[:, at:at + size].reshape(block.shape)
            if self.p == 2.0:
                out[...] = block
            else:
                np.multiply(block, self.factors[m - j0], out=out)
            present[:, m - j0] |= (block != 0).reshape(k, -1).any(axis=1)
            at += size
        inner = _block_norm(cells.ravel(), self.codes[:cells.size], self.factors.size * k, self.p)
        return inner.reshape(k, -1), present


def _hybrid_block_norms(u: CoeffVector, p: float):
    """The level vectors of the blocks that hold entries of hyperbolic
    coefficients, (B, n) in lexicographic order, and the inner l^p norm of
    the L^p-normalized values of each."""
    kept = _kept_grid(u)
    if kept is not None:
        spec, grid = kept
        inner, present = _HybridBins(spec, u.n, u.max_level, p)(grid[None])
        codes = np.flatnonzero(present[0])
        return _level_blocks(codes, spec.j0, u.max_level - spec.j0 + 1, u.n), inner[0, codes]
    # Levels offset by the smallest one, so the codes span few blocks.
    levels = u.levels.astype(np.int64, copy=False)
    lo = int(levels.min())
    base = int(u.max_level) - lo + 1
    if base ** u.n > np.iinfo(np.int64).max:
        raise DimensionMismatch(f"levels {lo}..{u.max_level} span too many blocks to index")
    codes, inner = _grouped_block_norms(_index_code(levels.T, [lo] * u.n, [base] * u.n),
                                        base ** u.n, rescale(u, p).values, p)
    return _level_blocks(codes, lo, base, u.n), inner


def besov_hybrid_norm(u: CoeffVector, params: NormParams) -> float:
    """Hybrid-regularity Besov sequence norm of hyperbolic coefficients.

    [ sum_j 2^{tau (q |j|_inf + s |j|_1)} ( sum_{lambda in block j}
    |u_lambda^{(p)}|^p )^{tau/p} ]^{1/tau}, with max-modifications for
    p = inf or tau = inf.
    """
    if u.system != HYPERBOLIC:
        raise WrongSystem("besov_hybrid_norm expects hyperbolic coefficients")
    if u.num_entries == 0:
        return 0.0
    blocks, inner = _stored_block_norms(u, params.p, lambda: _hybrid_block_norms(u, params.p))
    return _outer_norm(_hybrid_weights(blocks, params.q, params.s) * inner, params.tau)


def _level_blocks(codes: np.ndarray, lo: int, base: int, n: int) -> np.ndarray:
    """The (B, n) level vectors of ``codes``, made by ``_index_code`` with
    every digit offset by ``lo`` in radix ``base``."""
    return codes[:, None] // base ** np.arange(n - 1, -1, -1) % base + lo


def _hybrid_weights(blocks: np.ndarray, q: float, s: float) -> np.ndarray:
    """The weight 2^{q |j|_inf + s |j|_1} of each level vector j of ``blocks``."""
    return 2.0 ** (q * blocks.max(axis=1) + s * blocks.sum(axis=1))


def _iso_level_norms(v: CoeffVector, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The levels present in isotropic coefficients, ascending, and the
    l^p norm of the L^p-normalized values of each level over all its type
    blocks."""
    kept = _kept_grid(v)
    if kept is not None:
        spec, grid = kept
        inner, present = _IsoBins(spec, v.n, v.max_level, p)(grid[None])
        return np.arange(spec.j0, v.max_level + 1)[present[0]], inner[0, present[0]]
    levels = v.levels.astype(np.int64, copy=False)
    if not levels.size:
        return levels, np.zeros(0)
    lo, hi = int(levels.min()), int(levels.max())
    if hi - lo > np.iinfo(np.int64).max:
        raise DimensionMismatch(f"levels {lo}..{hi} span too many blocks to index")
    codes, inner = _grouped_block_norms(levels - lo, hi - lo + 1, rescale(v, p).values, p)
    return codes + lo, inner


def besov_iso_norm(v: CoeffVector, alpha: float, p: float = 2.0, tau: float = 2.0) -> float:
    """Isotropic Besov sequence norm with regularity alpha.

    [ sum_m 2^{tau m alpha} ( sum_{mu at level m} |v_mu^{(p)}|^p )^{tau/p}
    ]^{1/tau}; the level sum runs over all type blocks of the level.
    """
    if v.system != ISOTROPIC:
        raise WrongSystem("besov_iso_norm expects isotropic coefficients")
    if not (p > 0) or not (tau > 0):
        raise InvalidExponent("p and tau must lie in (0, inf]")
    levels, inner = _stored_block_norms(v, p, lambda: _iso_level_norms(v, p))
    return _outer_norm(_level_weights(levels, alpha) * inner, tau)


def _level_weights(levels: np.ndarray, alpha: float) -> np.ndarray:
    """The weight 2^{alpha m} of each isotropic level m."""
    return 2.0 ** (alpha * levels)


def gk_norm(u: CoeffVector, q: float, s: float) -> float:
    """Hybrid-regularity Sobolev quantity, the p = tau = 2 hybrid norm."""
    return besov_hybrid_norm(u, NormParams(q=q, s=s, p=2.0, tau=2.0))


def sobolev_norm_hyper(u: CoeffVector, s: float) -> float:
    """H^s quantity of hyperbolic coefficients: gk_norm with zero mixed part."""
    return gk_norm(u, q=s, s=0.0)


def sobolev_norm_iso(v: CoeffVector, s: float) -> float:
    """H^s quantity of isotropic coefficients."""
    return besov_iso_norm(v, alpha=s, p=2.0, tau=2.0)


def weak_ltau(values, tau: float) -> float:
    """Weak-l^tau quasinorm sup_k k^{1/tau} |u*(k)| of a finite sequence."""
    if not (tau > 0):
        raise InvalidExponent(f"tau must be positive, got {tau}")
    a = np.sort(np.abs(np.asarray(values, dtype=np.float64)))[::-1]
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    k = np.arange(1, a.size + 1, dtype=np.float64)
    return float((k ** (1.0 / tau) * a).max())

"""Discrete sequence norms over hyperbolic and isotropic coefficients.

All norms act on the stored coefficients after rescaling them internally
to the requested L^p normalization; weight exponents use raw levels
j >= j0, which changes norms only by a fixed constant relative to a
shifted-level convention.  The p = tau = 2 identities (hybrid Besov =
Sobolev of hybrid regularity, isotropic Besov = isotropic Sobolev) hold
bitwise because the specialized norms delegate to the general ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidExponent, WrongSystem
from .tensorbasis import HYPERBOLIC, ISOTROPIC, CoeffVector, rescale

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
    sums = np.bincount(group, weights=a ** p, minlength=n_groups)
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
    up = rescale(u, params.p)
    # Levels offset by the smallest one, so the codes span few blocks.
    levels = u.levels.astype(np.int64, copy=False)
    lo = int(levels.min())
    base = int(u.max_level) - lo + 1
    if base ** u.n > np.iinfo(np.int64).max:
        raise DimensionMismatch(f"levels {lo}..{u.max_level} span too many blocks to index")
    codes, inner = _grouped_block_norms(_level_code(levels.T, lo, base), base ** u.n,
                                        up.values, params.p)
    return _outer_norm(_hybrid_weights(codes, lo, base, u.n, params.q, params.s) * inner,
                       params.tau)


def _level_code(columns, lo: int, base: int):
    """One integer per level vector, given as one level array per axis in
    ``columns``: its digits in base ``base`` are the levels less ``lo``, so
    ascending codes are the lexicographic order of the level vectors."""
    code = columns[0] - lo
    for levels in columns[1:]:
        code = code * base + (levels - lo)
    return code


def _hybrid_weights(codes: np.ndarray, lo: int, base: int, n: int, q: float, s: float):
    """The weight 2^{q |j|_inf + s |j|_1} of the level vector j of each of
    ``codes``, made by :func:`_level_code` from n levels."""
    blocks = codes[:, None] // base ** np.arange(n - 1, -1, -1) % base + lo
    return 2.0 ** (q * blocks.max(axis=1) + s * blocks.sum(axis=1))


def _iso_level_norms(v: CoeffVector, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The levels present in isotropic coefficients, ascending, and the
    l^p norm of the L^p-normalized values of each level over all its type
    blocks."""
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
    levels, inner = _iso_level_norms(v, p)
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

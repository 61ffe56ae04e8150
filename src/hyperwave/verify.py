"""Numerical verification of the quantitative lemmata and embeddings.

Every check returns plain numbers or small report structures; asymptotic
statements ("uniformly bounded in m") are operationalized as running
maxima that change by less than 10% (25% for the embedding suite) across
the last three levels tested.
Kronecker products are formed explicitly only for small factors; these
are identity checks, not scalability features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bandmatrix import BandMatrix
from .basis1d import BasisSpec
from .errors import (
    ExponentOutOfRange,
    InvalidExponent,
    SizeTooLarge,
    UnsupportedDimension,
    WrongSystem,
)
from .seqnorms import NormParams, _iso_level_norms, _outer_norm, besov_hybrid_norm
from .tensorbasis import HYPERBOLIC, CoeffVector, iso_from_hyper
from .transform1d import build_transform

__all__ = [
    "TransformNormReport",
    "check_biorthogonality",
    "check_embedding_chain",
    "check_kron_identity",
    "check_riesz",
    "check_transform_norms",
    "matrix_p_norm_bound",
    "operator_p_norm_estimate",
    "running_max_stabilizes",
]

KRON_MAX_FACTOR = 64
POWER_ITER_TOL = 1e-10
POWER_ITER_MAX = 10_000


def matrix_p_norm_bound(a: BandMatrix, p: float) -> float:
    """Upper bound (max_j sum_i |a_ij|^p)^{1/p} for the p-quasinorm, p <= 1."""
    if not 0 < p <= 1:
        raise InvalidExponent(f"bound requires 0 < p <= 1, got {p}")
    sums = a.column_abs_pow_sums(p)
    return float(sums.max() ** (1.0 / p)) if sums.size else 0.0


def _vec_p_norm(x: np.ndarray, p: float) -> float:
    if np.isinf(p):
        return float(np.abs(x).max()) if x.size else 0.0
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _spectral_norm(a: BandMatrix, seed: int = 0) -> float:
    """Largest singular value; dense SVD for small matrices, power
    iteration on A^T A (fixed seed start vector) otherwise."""
    if max(a.shape) <= 512:
        dense = a.to_dense()
        return float(np.linalg.svd(dense, compute_uv=False)[0]) if min(a.shape) else 0.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(a.cols)
    x /= np.linalg.norm(x)
    csr = a.csr
    sigma2 = 0.0
    for _ in range(POWER_ITER_MAX):
        y = csr.T @ (csr @ x)
        new = float(x @ y)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0
        x = y / nrm
        if abs(new - sigma2) <= POWER_ITER_TOL * max(new, 1.0):
            sigma2 = new
            break
        sigma2 = new
    return float(np.sqrt(max(sigma2, 0.0)))


def operator_p_norm_estimate(
    a: BandMatrix, p: float, trials: int = 50, seed: int = 0
) -> float:
    """Lower bound on the operator p-norm; exact for p in {1, 2, inf}.

    For p = 1 (column sums) and p = inf (row sums) the value is the exact
    norm; p = 2 uses the largest singular value.  Otherwise the maximum of
    ||A u||_p / ||u||_p over all coordinate vectors and ``trials`` random
    dense vectors is returned.
    """
    if not (p > 0):
        raise InvalidExponent(f"p must be positive, got {p}")
    if p == 1:
        return float(a.column_abs_pow_sums(1.0).max()) if a.cols else 0.0
    if np.isinf(p):
        return float(a.T.column_abs_pow_sums(1.0).max()) if a.rows else 0.0
    if p == 2:
        return _spectral_norm(a, seed=seed)
    # Coordinate vectors give the column p-norms exactly.
    best = float((a.column_abs_pow_sums(p).max()) ** (1.0 / p)) if a.cols else 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        u = rng.standard_normal(a.cols)
        denom = _vec_p_norm(u, p)
        if denom == 0.0:
            continue
        # T_m is not banded, so its two-scale diagonals are many short runs.
        best = max(best, _vec_p_norm(a.csr @ u, p) / denom)
    return best


def check_kron_identity(a: BandMatrix, b: BandMatrix, p: float) -> tuple[float, float]:
    """(|A (x) B|_p, |A|_p |B|_p) for p in {1, 2, inf}; factors <= 64x64."""
    if p not in (1, 2) and not np.isinf(p):
        raise InvalidExponent(f"identity holds for p in {{1, 2, inf}}, got {p}")
    if max(a.shape + b.shape) > KRON_MAX_FACTOR:
        raise SizeTooLarge(
            f"Kronecker factors limited to {KRON_MAX_FACTOR}x{KRON_MAX_FACTOR}"
        )
    kron = BandMatrix.from_dense(np.kron(a.to_dense(), b.to_dense()))
    lhs = operator_p_norm_estimate(kron, p)
    rhs = operator_p_norm_estimate(a, p) * operator_p_norm_estimate(b, p)
    return lhs, rhs


def running_max_stabilizes(values, rel: float = 0.10) -> bool:
    """True when the running maximum moved less than ``rel`` across the
    last three entries."""
    values = list(values)
    if len(values) < 3:
        return False
    running = np.maximum.accumulate(np.asarray(values, dtype=np.float64))
    final = running[-1]
    if final == 0.0:
        return True
    return bool(running[-3] >= (1.0 - rel) * final)


@dataclass(frozen=True)
class TransformNormRow:
    m: int
    t_norm: float
    t_dual_norm: float
    t_trans_norm: float
    t_dual_trans_norm: float
    t_norm_scaled: float
    t_dual_norm_scaled: float


@dataclass(frozen=True)
class TransformNormReport:
    """Per-level norm estimates for the transform growth bounds.

    ``bounded`` flags whether each of the four tracked quantities (the two
    transpose norms raw, the two transform norms normalized by
    2^{-m(1/p - 1/2)}) has a stabilized running maximum.
    """

    p: float
    rows: tuple[TransformNormRow, ...] = field(default_factory=tuple)

    def series(self, name: str) -> list[float]:
        return [getattr(r, name) for r in self.rows]

    @property
    def bounded(self) -> dict[str, bool]:
        return {
            name: running_max_stabilizes(self.series(name))
            for name in (
                "t_trans_norm",
                "t_dual_trans_norm",
                "t_norm_scaled",
                "t_dual_norm_scaled",
            )
        }


def _p_norm_estimate(a: BandMatrix, p: float, trials: int, seed: int) -> float:
    if p <= 1:
        # For p <= 1 the column bound is attained by a coordinate vector,
        # so the estimate is the exact quasinorm.
        return matrix_p_norm_bound(a, p)
    return operator_p_norm_estimate(a, p, trials=trials, seed=seed)


def check_transform_norms(
    spec: BasisSpec, p: float, m_max: int, trials: int = 20, seed: int = 0
) -> TransformNormReport:
    """Norms of T_m, its dual and their transposes for m up to m_max.

    The transpose norms are expected O(1); the transform norms are
    expected O(2^{m(1/p - 1/2)}) and are reported normalized by that
    growth factor, counted from the coarsest level so the m = j0 row is
    exactly 1 for an orthonormal basis.
    """
    if not (1.0 / spec.alpha < p <= 2.0):
        raise ExponentOutOfRange(
            f"check requires 1/alpha < p <= 2, got p={p} with alpha={spec.alpha}"
        )
    rows = []
    for m in range(spec.j0, m_max + 1):
        t, t_dual = build_transform(spec, m)
        scale = 2.0 ** (-(m - spec.j0) * (1.0 / p - 0.5))
        tn = _p_norm_estimate(t, p, trials, seed)
        tdn = _p_norm_estimate(t_dual, p, trials, seed)
        rows.append(
            TransformNormRow(
                m=m,
                t_norm=tn,
                t_dual_norm=tdn,
                t_trans_norm=_p_norm_estimate(t.T, p, trials, seed),
                t_dual_trans_norm=_p_norm_estimate(t_dual.T, p, trials, seed),
                t_norm_scaled=tn * scale,
                t_dual_norm_scaled=tdn * scale,
            )
        )
    return TransformNormReport(p=p, rows=tuple(rows))


def check_biorthogonality(spec: BasisSpec, m: int) -> float:
    """Max-norm defect of Tdual_m^T T_m - I."""
    import scipy.sparse as sp

    t, t_dual = build_transform(spec, m)
    defect = t_dual.csr.T @ t.csr - sp.identity(t.rows, format="csr")
    return float(abs(defect).max()) if defect.nnz else 0.0


def check_riesz(spec: BasisSpec, m: int, singlescale_gram: BandMatrix | None = None) -> float:
    """Spectral condition number of the multiscale Gram matrix up to level m.

    The Gram of the wavelet system is T_m^T G T_m with G the single-scale
    Gram at level m; G defaults to the identity, exact whenever the
    single-scale basis is orthonormal (Haar and rescalings of it).
    """
    t, _ = build_transform(spec, m)
    if singlescale_gram is None:
        gram = (t.csr.T @ t.csr).toarray()
    else:
        gram = (t.csr.T @ (singlescale_gram.csr @ t.csr)).toarray()
    ev = np.linalg.eigvalsh(gram)
    if ev[0] <= 0:
        return float("inf")
    return float(ev[-1] / ev[0])


def check_embedding_chain(
    spec: BasisSpec, u: CoeffVector, q: float, s: float
) -> tuple[float, float]:
    """Ratios probing the two-sided embedding between isotropic and hybrid
    Besov scales at the matched fine index 1/tau = s + 1/2.

    lower_ratio compares the isotropic norm of regularity q + s against
    the hybrid norm; upper_ratio compares the hybrid norm against the
    isotropic norm of regularity q + 2s.  Both are expected uniformly
    bounded over the truncation level.
    """
    if u.system != HYPERBOLIC:
        raise WrongSystem("embedding check expects hyperbolic coefficients")
    if u.n != 2:
        raise UnsupportedDimension("embedding check is implemented for n = 2")
    if not (s < spec.alpha - 0.5 and min(q + s, q + 2 * s) > max(0.0, 2 * (s - 0.5))):
        warnings.warn(
            f"(q={q}, s={s}) outside the embedding window of basis "
            f"{spec.name!r}; ratios may degenerate",
            stacklevel=2,
        )
    tau = 1.0 / (s + 0.5)
    hybrid = besov_hybrid_norm(u, NormParams(q=q, s=s, p=tau, tau=tau))
    if hybrid == 0.0:
        raise ZeroDivisionError("embedding ratios undefined for the zero vector")
    # Both isotropic norms weight one set of per-level sums, as
    # besov_iso_norm(v, alpha, tau, tau) would for each alpha.
    levels, inner = _iso_level_norms(iso_from_hyper(spec, u), tau)
    iso_low = _outer_norm(2.0 ** ((q + s) * levels) * inner, tau)
    iso_high = _outer_norm(2.0 ** ((q + 2 * s) * levels) * inner, tau)
    if iso_high == 0.0:
        raise ZeroDivisionError("embedding ratios undefined: isotropic norm vanishes")
    return iso_low / hybrid, hybrid / iso_high

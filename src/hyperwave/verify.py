"""Numerical verification of the quantitative lemmata and embeddings.

Every check returns plain numbers or small report structures; asymptotic
statements ("uniformly bounded in m") are operationalized as running
maxima that change by less than 10% (25% for the embedding suite) across
the last three levels tested.
Kronecker products are formed explicitly only for small factors; these
are identity checks, not scalability features.

``SUITES`` is the one table of the ``verify`` command's suites, with the
levels, depth cap, exponent range and flag limits of each.  The suites
that assemble T_m (biorth, decay, lemma4) stop at level ``ASSEMBLY_CAP``
(16), where one level takes seconds and over 100 MB and the next doubles
both; riesz stops at 10 and embedding at 8 (6 at n = 3).
The embedding suite draws each level's trials in one call and checks them
in batches of at most ``EMBEDDING_BATCH_CELLS`` (2^16) grid cells, on the
dense grids, with the bins of each level built once and rows identical to
those of one ``check_embedding_chain`` per trial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bandmatrix import BandMatrix
from .basis1d import BasisSpec
from .errors import (
    ExponentOutOfRange,
    HyperwaveError,
    InvalidExponent,
    SizeTooLarge,
    WrongSystem,
)
from .seqnorms import (
    _HybridBins,
    _hybrid_weights,
    _IsoBins,
    _level_weights,
    _outer_norm,
)
from .tables import _index_code, fmt
from .tensorbasis import (
    HYPERBOLIC,
    CoeffVector,
    _analyze_grids,
    _kept_grid,
    _require_l2,
    _to_multiscale_array,
)
from .transform1d import _sweep, build_transform, check_entry_decay

__all__ = [
    "SUITES",
    "Suite",
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


def _lemma1_p(p: float, spec: BasisSpec | None = None) -> bool:
    """Lemma 1's exponent range 0 < p <= 1; the basis does not enter."""
    return 0 < p <= 1


def _lemma4_p(p: float, spec: BasisSpec) -> bool:
    """Lemma 4's exponent range 1/alpha < p <= 2 of the basis."""
    return 1.0 / spec.alpha < p <= 2.0


def matrix_p_norm_bound(a: BandMatrix, p: float) -> float:
    """Upper bound (max_j sum_i |a_ij|^p)^{1/p} for the p-quasinorm, p <= 1."""
    if not _lemma1_p(p):
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
    sigma2 = 0.0
    for _ in range(POWER_ITER_MAX):
        y = a.dot(a.dot(x), transpose=True)
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
    dense vectors is returned.  The trials are drawn at once, as one
    stream of ``trials`` vectors, and multiplied in one product.
    """
    if not (p > 0):
        raise InvalidExponent(f"p must be positive, got {p}")
    if p == 1:
        return float(a.column_abs_pow_sums(1.0).max()) if a.cols else 0.0
    if np.isinf(p):
        r, _, v = a.entries()  # each row summed by ascending column, as the columns of a.T
        return float(np.bincount(r, np.abs(v), minlength=a.rows).max()) if a.rows else 0.0
    if p == 2:
        return _spectral_norm(a, seed=seed)
    # Coordinate vectors give the column p-norms exactly.
    best = float((a.column_abs_pow_sums(p).max()) ** (1.0 / p)) if a.cols else 0.0
    u = np.random.default_rng(seed).standard_normal((trials, a.cols))
    # T_m is not banded, so its two-scale diagonals are many short runs.
    au = a.dot(u.T)
    for t in range(trials):
        denom = _vec_p_norm(u[t], p)
        if denom != 0.0:
            best = max(best, _vec_p_norm(au[:, t], p) / denom)
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

    @property
    def bounded(self) -> dict[str, bool]:
        names = ("t_trans_norm", "t_dual_trans_norm", "t_norm_scaled", "t_dual_norm_scaled")
        return {name: running_max_stabilizes([getattr(r, name) for r in self.rows])
                for name in names}


def _p_norm_estimate(a: BandMatrix, p: float, trials: int, seed: int) -> float:
    if _lemma1_p(p):
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
    exactly 1 for an orthonormal basis.  When ``build_transform`` returns
    one matrix for T_m and its dual, each estimate is made once and used
    for both.
    """
    if not _lemma4_p(p, spec):
        raise ExponentOutOfRange(
            f"check requires 1/alpha < p <= 2, got p={p} with alpha={spec.alpha}"
        )
    rows = []
    for m in range(spec.j0, m_max + 1):
        t, t_dual = build_transform(spec, m)
        scale = 2.0 ** (-(m - spec.j0) * (1.0 / p - 0.5))
        tn = _p_norm_estimate(t, p, trials, seed)
        ttn = _p_norm_estimate(t.T, p, trials, seed)
        if t_dual is t:
            tdn, tdtn = tn, ttn
        else:
            tdn = _p_norm_estimate(t_dual, p, trials, seed)
            tdtn = _p_norm_estimate(t_dual.T, p, trials, seed)
        rows.append(TransformNormRow(m, tn, tdn, ttn, tdtn, tn * scale, tdn * scale))
    return TransformNormReport(p=p, rows=tuple(rows))


def check_biorthogonality(spec: BasisSpec, m: int) -> float:
    """Max-norm defect of Tdual_m^T T_m - I."""
    t, t_dual = build_transform(spec, m)
    return t_dual.product_defect(t)


def check_riesz(spec: BasisSpec, m: int) -> float:
    """Spectral condition number of the multiscale Gram matrix up to level m.

    The Gram of the wavelet system is T_m^T G T_m with G the single-scale
    Gram at level m, taken as the identity: exact whenever the single-scale
    basis is orthonormal (Haar, rescalings of it, and liftings that change
    only the wavelet and dual masks, whose primal scaling functions stay
    Haar boxes).
    """
    t, _ = build_transform(spec, m)
    gram = t.matmul(t, transpose=True).to_dense()
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
    isotropic norm of regularity q + n*s, for coefficients on the n-cube.
    Both are expected uniformly bounded over the truncation level.  The
    hybrid norm adds the terms of each block in index order, as
    ``besov_hybrid_norm`` does for entries in file order, the one order of
    every vector the library makes.
    """
    if u.system != HYPERBOLIC:
        raise WrongSystem("embedding check expects hyperbolic coefficients")
    _require_l2(u, HYPERBOLIC)
    grid = _to_multiscale_array(spec, u)[None]
    present = None  # a vector made from a grid holds its nonzero cells
    if _kept_grid(u) is None:
        # Every stored entry marks its block present, a stored zero included.
        base = u.max_level - spec.j0 + 1
        present = np.zeros((1, base ** u.n), dtype=bool)
        present[0, _index_code(u.levels.T, [spec.j0] * u.n, [base] * u.n)] = True
    return _embedding_ratios(spec, u.n, u.max_level, q, s)(grid, present)[0]


EMBEDDING_BATCH_CELLS = 2 ** 16  # grid cells per batch of embedding trials


def _embedding_ratios(spec, n, m, q, s, k=1):
    """The ratios of :func:`check_embedding_chain` at level m, as a function
    of k' <= k multiscale grids stacked in ``grids`` of shape
    (k', size, ..., size) that returns k' (lower, upper) pairs.  The bins
    of both sides (``seqnorms._HybridBins`` and ``seqnorms._IsoBins``, the
    binning the norms of a vector that keeps its grid use) are built here
    once for every batch of the level.  The isotropic side sweeps the change
    of basis in place on ``grids`` once the hybrid side has read them: the
    call consumes ``grids``.

    A block or level enters a norm exactly when the sparse coefficients
    would hold an entry in it: a nonzero cell, or for the hybrid blocks the
    (k', blocks) mask ``present`` when given.  Each norm bins the rescaled
    cells of all k' grids at once, by trial and block, and adds the terms of
    a block in the order the sparse norms add its entries, so the ratios
    equal theirs bit for bit.

    Outside its window the call warns.  The isotropic space B^t_tau(L_tau)
    on the n-cube has a wavelet characterisation for
    n (1/tau - 1)_+ < t (DeVore, "Nonlinear approximation", Acta Numerica
    1998; Cohen, "Numerical analysis of wavelet methods", 2003).  With
    1/tau = s + 1/2 the lower end is n (s - 1/2)_+, which both t = q + s and
    t = q + n*s must exceed; the basis bounds s by alpha - 1/2.
    """
    if not s + 0.5 > 0:
        raise InvalidExponent(f"the embedding needs 1/tau = s + 1/2 > 0, got s={s}")
    if not (s < spec.alpha - 0.5 and min(q + s, q + n * s) > max(0.0, n * (s - 0.5))):
        warnings.warn(
            f"(q={q}, s={s}) outside the embedding window of basis "
            f"{spec.name!r}; ratios may degenerate",
            stacklevel=3,  # the caller of check_embedding_chain or of the suite
        )
    tau = 1.0 / (s + 0.5)
    levels = np.arange(spec.j0, m + 1)
    hybrid_bins, iso_bins = _HybridBins(spec, n, m, tau, k), _IsoBins(spec, n, m, tau, k)
    with np.errstate(over="ignore", invalid="ignore"):
        hybrid_weights = _hybrid_weights(hybrid_bins.blocks, q, s)
        iso_weights = [_level_weights(levels, alpha) for alpha in (q + s, q + n * s)]

    @np.errstate(over="ignore", invalid="ignore")  # a norm that is not finite is raised below
    def ratios(grids, present=None) -> list[tuple[float, float]]:
        inner, found = hybrid_bins(grids)
        present = found if present is None else present
        hybrid = [_outer_norm(w[p], tau) for w, p in zip(hybrid_weights * inner, present)]
        _sweep(spec, grids, n, m, analysis=False, full=False)
        out = []
        for h, (w, p) in zip(hybrid, zip(*iso_bins(grids))):
            low, high = (_outer_norm((weight * w)[p], tau) for weight in iso_weights)
            if h == 0.0:
                raise ZeroDivisionError("embedding ratios undefined for the zero vector")
            if high == 0.0:
                raise ZeroDivisionError("embedding ratios undefined: isotropic norm vanishes")
            if not all(map(math.isfinite, (h, low, high))):
                raise HyperwaveError(f"embedding norms not finite in float64: hybrid {fmt(h)}, "
                                     f"isotropic {fmt(low)} and {fmt(high)}")
            out.append((low / h, h / high))
        return out

    return ratios


# The verify suites.  A row generator takes (spec, args, levels, ps), with the
# levels and exponents its record allows, and yields the report rows
# (check, param, m, value, bound, pass).


def _biorth_rows(spec, args, levels, ps):
    tol = 1e-12 if spec.name == "haar" else 1e-10
    for m in levels:
        defect = check_biorthogonality(spec, m)
        yield ("biorth", "", m, defect, tol, defect <= tol)


def _decay_rows(spec, args, levels, ps):
    alpha = min(4.0, spec.alpha)
    for m in levels:
        ratio = check_entry_decay(spec, m, alpha)
        yield ("decay", f"alpha={fmt(alpha)}", m, ratio, 2.0, ratio <= 2.0)


def _lemma1_rows(spec, args, levels, ps):
    rng = np.random.default_rng(args.seed)
    for p in ps:
        worst, ok = 0.0, True
        for _ in range(args.trials):
            size = rng.integers(2, 9)
            dense = np.zeros((size, size))
            nnz = rng.integers(1, size * size + 1)
            ii = rng.integers(0, size, nnz)
            jj = rng.integers(0, size, nnz)
            dense[ii, jj] = rng.standard_normal(nnz)
            a = BandMatrix.from_dense(dense)
            bound = matrix_p_norm_bound(a, p)
            est = operator_p_norm_estimate(a, p, trials=10, seed=int(rng.integers(1 << 30)))
            if bound > 0:
                worst = max(worst, est / bound)
            ok = ok and est <= bound
        yield ("lemma1", f"p={fmt(p)}", 0, worst, 1.0, ok)


def _lemma4_rows(spec, args, levels, ps):
    """Per exponent, the scaled norms of T_m and of its transpose, and
    whether they stay bounded; at p = 2, for an orthonormal basis only (one
    matrix for T_m and its dual), also the deviation of |T_m|_2 from 1."""
    t, t_dual = build_transform(spec, levels[-1])
    orthonormal = t_dual is t
    for p in ps:
        report = check_transform_norms(spec, p, levels[-1], seed=args.seed)
        for row in report.rows:
            yield ("lemma4_T_scaled", f"p={fmt(p)}", row.m, row.t_norm_scaled, np.nan, True)
            yield ("lemma4_Tt", f"p={fmt(p)}", row.m, row.t_trans_norm, np.nan, True)
        ok = all(report.bounded.values())
        yield ("lemma4_bounded", f"p={fmt(p)}", levels[-1], float(ok), 1.0, ok)
        if p == 2.0 and orthonormal:
            dev = max(abs(r.t_norm - 1.0) for r in report.rows)
            yield ("lemma4_p2_unit", "p=2", levels[-1], dev, 1e-10, dev <= 1e-10)


def _kron_rows(spec, args, levels, ps):
    rng = np.random.default_rng(args.seed)
    for p, tol in ((1.0, 1e-12), (np.inf, 1e-12), (2.0, 1e-9)):
        worst = 0.0
        for _ in range(args.trials):
            a = BandMatrix.from_dense(rng.standard_normal((4, 4)))
            b = BandMatrix.from_dense(rng.standard_normal((4, 4)))
            lhs, rhs = check_kron_identity(a, b, p)
            worst = max(worst, abs(lhs - rhs))
        yield ("kron", "p=inf" if np.isinf(p) else f"p={fmt(p)}", 0, worst, tol, worst <= tol)


def _riesz_rows(spec, args, levels, ps):
    conds = [check_riesz(spec, m) for m in levels]
    yield from (("riesz", "", m, cond, np.nan, True) for m, cond in zip(levels, conds))
    ok = running_max_stabilizes(conds)
    yield ("riesz_bounded", "", levels[-1], float(ok), 1.0, ok)


def _embedding_rows(spec, args, levels, ps):
    rng = np.random.default_rng(args.seed)
    param = f"q={fmt(args.q)},s={fmt(args.s)}"
    maxima = []
    for m in levels:
        low, up = _embedding_level(spec, args, rng, m)
        maxima.append((low, up))
        yield ("embedding_lower", param, m, low, np.nan, True)
        yield ("embedding_upper", param, m, up, np.nan, True)
    ok = all(running_max_stabilizes(series, rel=0.25) for series in zip(*maxima))
    yield ("embedding_stable", param, levels[-1], float(ok), 1.0, ok)


def _embedding_level(spec, args, rng, m) -> tuple[float, float]:
    """The largest lower and upper ratios over ``args.trials`` random grids of
    level m, drawn and checked in batches that share one set of bins."""
    shape = (spec.delta_size(m),) * args.n
    batch = min(args.trials, max(1, EMBEDDING_BATCH_CELLS // math.prod(shape)))
    ratios = _embedding_ratios(spec, args.n, m, args.q, args.s, batch)
    low = up = 0.0
    for done in range(0, args.trials, batch):
        # One draw of k grids gives the stream of k draws of one grid.
        data = rng.standard_normal((min(batch, args.trials - done), *shape))
        for lo, hi in ratios(_analyze_grids(spec, data, args.n, m)):
            low, up = max(low, lo), max(up, hi)
    return low, up


@dataclass(frozen=True)
class Suite:
    """One ``verify`` suite and every fact its flags are checked against.

    It runs the levels ``first(spec)`` to ``min(args.m_max, cap(args.n))``;
    its check needs ``needs`` of them (3 for a running maximum, 0 if it reads
    none).  ``p_range(p, spec)`` selects the exponents ``args.ps`` it reads;
    each (flag, test, text) of ``limits`` names a flag whose value must pass
    ``test``, the condition ``text`` states.  ``suite(spec, args)`` returns
    its rows.
    """

    name: str
    rows: Callable
    first: Callable[[BasisSpec], int] = lambda spec: spec.j0
    needs: int = 1
    cap: Callable[[int], float] = lambda n: math.inf
    p_range: Callable | None = None
    limits: tuple[tuple[str, Callable[[float], bool], str], ...] = ()

    def check(self, spec: BasisSpec, args) -> None:
        """Raise HyperwaveError when ``args`` leave the suite nothing to check
        (passing it unchecked or failing it on no data): a flag outside its
        ``limits``, no exponent in its range, or ``min(--m-max, cap)`` below
        its last needed level; also an ``--m-max`` beyond the basis's finest
        level."""
        if args.m_max > spec.max_level:
            raise HyperwaveError(f"--m-max {args.m_max} is beyond the finest level "
                                 f"{spec.max_level} of the basis")
        for flag, test, text in self.limits:
            if not test(value := getattr(args, flag)):
                raise HyperwaveError(f"--{flag} {fmt(value)} is out of range: the {self.name} "
                                     f"suite needs {text}")
        if self.p_range and not self._exponents(spec, args.ps):
            raise HyperwaveError(f"--p/--p-grid hold no exponent in the range of the "
                                 f"{self.name} suite")
        first, least = self.first(spec), self.first(spec) + self.needs - 1
        if self.needs and args.m_max < least:
            raise HyperwaveError(f"--m-max {args.m_max} leaves the {self.name} suite nothing to "
                                 f"check; it needs at least {least}")
        if self.needs and (cap := self.cap(args.n)) < least:
            raise HyperwaveError(f"the {self.name} suite stops at level {cap}, but its "
                                 f"check needs levels {first} to {least}")

    def _exponents(self, spec, ps) -> list[float]:
        return [p for p in ps if self.p_range(p, spec)] if self.p_range else []

    def __call__(self, spec: BasisSpec, args) -> list[tuple]:
        levels = range(self.first(spec), min(args.m_max, self.cap(args.n)) + 1)
        return list(self.rows(spec, args, levels, self._exponents(spec, args.ps)))


# biorth, decay and lemma4 assemble T_m, of 2^m (m - j0 + 1) entries for
# Haar, and keep every level: at level 16 (1.1 M entries, 27 MB a matrix) a
# suite runs for 0.5-3 s and peaks at 110-160 MB, and each level more
# doubles both, so they stop there.
ASSEMBLY_CAP = 16

SUITES = {suite.name: suite for suite in (
    Suite("biorth", _biorth_rows, cap=lambda n: ASSEMBLY_CAP),
    Suite("decay", _decay_rows, first=lambda spec: spec.j0 + 1, cap=lambda n: ASSEMBLY_CAP),
    Suite("lemma1", _lemma1_rows, needs=0, p_range=_lemma1_p),
    Suite("lemma4", _lemma4_rows, needs=3, p_range=_lemma4_p, cap=lambda n: ASSEMBLY_CAP),
    Suite("kron", _kron_rows, needs=0),
    # One dense eigendecomposition per level: deeper is too slow.
    Suite("riesz", _riesz_rows, needs=3, cap=lambda n: 10),
    # Dense random vectors of (2^m)^n entries: deeper is too slow.
    Suite("embedding", _embedding_rows, first=lambda spec: max(4, spec.j0), needs=3,
          cap=lambda n: 8 if n <= 2 else 6,
          limits=(("s", lambda s: s + 0.5 > 0, "1/tau = s + 1/2 > 0"),)),
)}

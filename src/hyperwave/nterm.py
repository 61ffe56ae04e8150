"""Best N-term approximation in H^q and Jackson/Bernstein ratio checks.

Because the level-weighted coefficient system is a Riesz basis of H^q, the
best N-term approximant keeps the N rescaled coefficients of largest
modulus; no combinatorial search is involved.  Ties are broken by
lexicographic index order so results are deterministic across platforms.

The Jackson and Bernstein ratios are sequence-space facts, not tests of a
basis: with p = tau and r >= 0 both are at most 1 on every vector
(Stechkin's lemma and Hoelder's inequality, see
:func:`jackson_bernstein_ratios`).  A bound above 1 on them cannot fail;
what depends on the basis is the norm equivalence behind them, which the
riesz, lemma4 and embedding checks of ``verify`` test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, InvalidExponent
from .seqnorms import NormParams, besov_hybrid_norm
from .tables import _index_order
from .tensorbasis import CoeffVector, rescale

__all__ = [
    "NTermResult",
    "best_nterm",
    "error_curve",
    "fit_rate",
    "jackson_bernstein_ratios",
]


class _KeysOnFirstRead:
    """The ``support`` field of :class:`NTermResult`, a data descriptor.

    It holds either the key tuple or a zero-argument callable that builds
    it; the first read calls the callable and keeps its tuple in its place.
    Dataclass ``__init__`` stores the field through ``__set__``, and class
    access raises, so the field has no default.
    """

    def __get__(self, obj, cls=None):
        if obj is None:
            raise AttributeError("support")
        keys = obj.__dict__["support"]
        if callable(keys):
            keys = obj.__dict__["support"] = keys()
        return keys

    def __set__(self, obj, value):
        obj.__dict__["support"] = value


@dataclass(frozen=True)
class NTermResult:
    """Support of the largest requested truncation and the error curve.

    ``support`` is a tuple of ``HyperIndex``/``IsoIndex`` keys in greedy
    order.  :func:`error_curve` passes a builder instead, so the greedy
    order is sorted and its keys are made by ``CoeffVector.index_keys`` the
    first time ``support`` is read, and kept; until then the result holds
    the vector, q and the support's length, and no array of the vector's
    size.

    ``errors`` maps N to E_N, the l^2 norm of the discarded rescaled
    coefficients; E_N is nonincreasing, E_0 is the full weighted norm and
    E_N vanishes once N reaches the number of nonzeros.
    """

    support: tuple = _KeysOnFirstRead()
    errors: dict[int, float]
    q: float


def _weights(u: CoeffVector, q: float) -> np.ndarray:
    """H^q moduli 2^{q level_inf} |u|."""
    return 2.0 ** (q * u.level_linf()) * np.abs(u.values)


def _greedy_order(u: CoeffVector, w: np.ndarray) -> np.ndarray:
    """The entries by descending ``w``, ties in lexicographic index order:
    a stable argsort of -w over the index order."""
    by_index = _index_order(u._columns())
    order = np.argsort(-w[by_index], kind="stable")
    return order if isinstance(by_index, slice) else by_index[order]


def _tail_errors(w_sorted: np.ndarray) -> np.ndarray:
    """tail[k] = sqrt(sum_{i >= k} w_i^2), accumulated from the small end."""
    tail2 = np.concatenate([np.cumsum((w_sorted ** 2)[::-1])[::-1], [0.0]])
    return np.sqrt(tail2)


def error_curve(u: CoeffVector, q: float, n_list) -> NTermResult:
    """E_N for every N in the ascending grid, from one sort of the weights:
    tied weights are equal numbers, so E_N does not depend on the tie order,
    which only the support, built on its first read, needs."""
    n_list = [int(n) for n in n_list]
    if any(b < a for a, b in zip(n_list, n_list[1:])):
        raise InsufficientPoints("N grid must be ascending")
    if any(n < 0 for n in n_list):
        raise InsufficientPoints("N must be nonnegative")
    tail = _tail_errors(-np.sort(-_weights(u, q)))
    total = u.num_entries
    errors = {n: float(tail[min(n, total)]) for n in n_list}
    n_sup = min(max(n_list, default=0), total)
    return NTermResult(lambda: u.index_keys(_greedy_order(u, _weights(u, q))[:n_sup]), errors, q)


def best_nterm(u: CoeffVector, q: float, n: int) -> NTermResult:
    """Best N-term truncation in the H^q metric for a single N."""
    return error_curve(u, q, [n])


def fit_rate(curve: NTermResult, n_min: int, n_max: int) -> float:
    """Exponent of the least-squares power-law fit E_N ~ N^{-s_hat}.

    Uses the curve points with n_min <= N <= n_max, N >= 1 and E_N > 0;
    raises InsufficientPoints when fewer than three remain, or when an
    E_N in that window is not finite (an overflowing H^q weight).
    """
    window = [(n, e) for n, e in sorted(curve.errors.items()) if n_min <= n <= n_max and n >= 1]
    for n, e in window:
        if not np.isfinite(e):
            raise InsufficientPoints(f"rate fit needs finite errors, got E_N={e} at N={n}")
    pts = [(np.log(n), np.log(e)) for n, e in window if e > 0]
    if len(pts) < 3:
        raise InsufficientPoints(
            f"rate fit needs at least 3 positive points in [{n_min}, {n_max}]"
        )
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def jackson_bernstein_ratios(u: CoeffVector, q: float, r: float) -> tuple[float, float]:
    """Empirical constants of the direct and inverse estimates.

    With 1/tau = r + 1/2: the Jackson ratio is sup_N max(N,1)^r E_N divided
    by the hybrid Besov norm with parameters (q, r, tau, tau); the
    Bernstein ratio maximizes, over the nested greedy truncations u_N, the
    same Besov norm against N^r times the H^q quantity of u_N.  The
    truncation family is a necessary-condition check: the inverse estimate
    quantifies over all N-term vectors.

    Both ratios come from one sort, in O(N log N): with p = tau the Besov
    norm of u_N is the tau-th root of a prefix sum of
    (2^{q |j|_inf + r |j|_1} |u^{(tau)}|)^tau in greedy order, and the H^q
    quantity the square root of a prefix sum of (2^{q |j|_inf} |u^{(2)}|)^2.

    Since 2^{r |j|_1} |u^{(tau)}| = |u^{(2)}|, that Besov norm is the
    l^tau norm of a = 2^{q |j|_inf} |u^{(2)}|, the weights whose l^2 tail
    is E_N.  For r >= 0 (tau <= 2) both ratios are therefore at most 1 on
    every vector: E_N <= N^{-r} |a|_tau by Stechkin's lemma (and
    E_0 = |a|_2 <= |a|_tau), and |u_N|_tau <= N^r |u_N|_2 by Hoelder's
    inequality, with equality at N = 1.  Up to rounding, a ratio above 1
    is a fault of this code, never of the basis.  An r of -1/2 or less,
    which leaves no tau, raises InvalidExponent.
    """
    if not r + 0.5 > 0:
        raise InvalidExponent(f"r must be above -1/2 (1/tau = r + 1/2), got {r}")
    tau = 1.0 / (r + 0.5)
    denom = besov_hybrid_norm(u, NormParams(q=q, s=r, p=tau, tau=tau))
    if denom == 0.0:
        raise ZeroDivisionError("Jackson ratio undefined for the zero vector")
    w = _weights(u, q)
    order = _greedy_order(u, w)
    n = np.arange(u.num_entries + 1)
    jackson = float(np.max(np.maximum(n, 1) ** r * _tail_errors(w[order]) / denom))
    linf, l1 = u.level_linf()[order], u.level_l1()[order]
    u_tau = np.abs(rescale(u, tau).values[order])
    u_two = np.abs(rescale(u, 2.0).values[order])
    besov = np.cumsum((2.0 ** (q * linf + r * l1) * u_tau) ** tau) ** (1.0 / tau)
    h_norm = np.sqrt(np.cumsum((2.0 ** (q * linf) * u_two) ** 2))
    if not h_norm.all():
        raise ZeroDivisionError("Bernstein ratio undefined: truncation vanishes")
    return jackson, float(np.max(besov / (n[1:] ** r * h_norm)))

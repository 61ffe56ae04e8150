"""Best N-term approximation in H^q and Jackson/Bernstein ratio checks.

Because the level-weighted coefficient system is a Riesz basis of H^q, the
best N-term approximant keeps the N rescaled coefficients of largest
modulus; no combinatorial search is involved.  Ties are broken by
lexicographic index order so results are deterministic across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints
from .seqnorms import NormParams, besov_hybrid_norm
from .tensorbasis import CoeffVector, rescale

__all__ = [
    "NTermResult",
    "best_nterm",
    "error_curve",
    "fit_rate",
    "jackson_bernstein_ratios",
]


@dataclass(frozen=True)
class NTermResult:
    """Support of the largest requested truncation and the error curve.

    ``errors`` maps N to E_N, the l^2 norm of the discarded rescaled
    coefficients; E_N is nonincreasing, E_0 is the full weighted norm and
    E_N vanishes once N reaches the number of nonzeros.
    """

    support: tuple
    errors: dict[int, float]
    q: float


def _weights_and_order(u: CoeffVector, q: float) -> tuple[np.ndarray, np.ndarray]:
    """H^q moduli 2^{q level_inf} |u| and their descending sort order."""
    w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
    return w, np.lexsort((*u.index_columns().T[::-1], -w))


def _tail_errors(w_sorted: np.ndarray) -> np.ndarray:
    """tail[k] = sqrt(sum_{i >= k} w_i^2), accumulated from the small end."""
    tail2 = np.concatenate([np.cumsum((w_sorted ** 2)[::-1])[::-1], [0.0]])
    return np.sqrt(tail2)


def error_curve(u: CoeffVector, q: float, n_list) -> NTermResult:
    """E_N for every N in the ascending grid, from a single sort."""
    n_list = [int(n) for n in n_list]
    if any(b < a for a, b in zip(n_list, n_list[1:])):
        raise InsufficientPoints("N grid must be ascending")
    if any(n < 0 for n in n_list):
        raise InsufficientPoints("N must be nonnegative")
    w, order = _weights_and_order(u, q)
    tail = _tail_errors(w[order])
    total = u.num_entries
    errors = {n: float(tail[min(n, total)]) for n in n_list}
    n_sup = min(max(n_list, default=0), total)
    support = u.index_keys(order[:n_sup])
    return NTermResult(support=support, errors=errors, q=q)


def best_nterm(u: CoeffVector, q: float, n: int) -> NTermResult:
    """Best N-term truncation in the H^q metric for a single N."""
    return error_curve(u, q, [n])


def fit_rate(curve: NTermResult, n_min: int, n_max: int) -> float:
    """Exponent of the least-squares power-law fit E_N ~ N^{-s_hat}.

    Uses the curve points with n_min <= N <= n_max, N >= 1 and E_N > 0;
    raises InsufficientPoints when fewer than three remain.
    """
    pts = [
        (np.log(n), np.log(e))
        for n, e in sorted(curve.errors.items())
        if n_min <= n <= n_max and n >= 1 and e > 0
    ]
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
    """
    tau = 1.0 / (r + 0.5)
    denom = besov_hybrid_norm(u, NormParams(q=q, s=r, p=tau, tau=tau))
    if denom == 0.0:
        raise ZeroDivisionError("Jackson ratio undefined for the zero vector")
    w, order = _weights_and_order(u, q)
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

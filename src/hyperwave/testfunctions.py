"""Deterministic generators of test data with known smoothness classes.

All kinds sample by midpoint values on the dyadic grid rather than by L^2
projection; this is cheap and sufficient for rate experiments, at the
price of a quadrature bias for the non-smooth kinds.  ``random_decay``
instead draws multiscale coefficients and synthesizes them, so its output
is a single-scale coefficient array on the same grid.
"""

from __future__ import annotations

import numpy as np

from .basis1d import make_haar_basis
from .errors import UnknownKind, UnsupportedDimension
from .tensorbasis import HYPERBOLIC, _blocks, _check_dimension, _zeros
from .transform1d import _sweep

__all__ = ["KINDS", "sample_function"]

KINDS = ("smooth", "point_kink", "tensor_kink", "random_decay")


def _midpoints(m: int) -> np.ndarray:
    size = 2 ** m
    return (np.arange(size) + 0.5) / size


def sample_function(kind: str, params: dict | None, n: int, m: int) -> np.ndarray:
    """n-dimensional array of extent 2^m per axis for the requested kind.

    smooth        product of sin(pi x_i); analytic.
    point_kink    |x - x0|^beta with a point singularity (params: beta, x0).
    tensor_kink   product of |x_i - 1/2|^beta: dominating mixed smoothness,
                  low isotropic smoothness (params: beta).
    random_decay  coefficients drawn per hyperbolic level block with
                  magnitude envelope 2^{-(q |j|_inf + (r + 1/2) |j|_1)},
                  jittered by xi ~ U(1/2, 1) and a random sign, then
                  synthesized with the Haar basis (params: q, r, seed).
                  The extra half power of |j|_1 gives every level block a
                  unit share of hybrid-Besov mass, which is what produces
                  the rate r in N-term experiments.
    """
    if kind not in KINDS:
        raise UnknownKind(f"unknown kind {kind!r}; expected one of {KINDS}")
    _check_dimension(n)
    if m > 12:
        raise UnsupportedDimension(f"grid level m={m} beyond the supported 12")
    params = dict(params or {})

    if kind == "random_decay":
        return _random_decay(params, n, m)

    # Sparse axes broadcast into the one grid-size array, filled in place.
    axes = np.meshgrid(*([_midpoints(m)] * n), indexing="ij", sparse=True)
    out = _zeros(m, (2 ** m,) * n)
    beta = float(params.get("beta", 1.0))
    if kind == "point_kink":
        for g, c in zip(axes, params.get("x0", (0.5,) * n)):
            out += (g - c) ** 2
        out **= beta / 2.0
        return out
    out += 1.0
    for g in axes:
        out *= np.sin(np.pi * g) if kind == "smooth" else np.abs(g - 0.5) ** beta
    return out


def _random_decay(params: dict, n: int, m: int) -> np.ndarray:
    q = float(params.get("q", 0.0))
    r = float(params.get("r", 1.0))
    seed = int(params.get("seed", 0))
    rng = np.random.default_rng(seed)
    spec = make_haar_basis(0)
    arr = _zeros(m, (2 ** m,) * n)
    # Fixed block order (file order, lexicographic level vectors) keeps
    # output bit-identical for a given seed.
    for (jvec,), block in _blocks(spec, arr, n, m, HYPERBOLIC):
        env = 2.0 ** (-(q * max(jvec) + (r + 0.5) * sum(jvec)))
        xi = rng.uniform(0.5, 1.0, block.shape)
        sign = rng.choice([-1.0, 1.0], block.shape)
        block[...] = env * xi * sign
    return _sweep(spec, arr, n, m, analysis=False)

import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hyperwave
from hyperwave import (
    BandMatrix,
    CoeffVector,
    MaskQuad,
    make_haar_basis,
    make_mask_basis,
)

SQ2 = math.sqrt(2.0)


def pair_mask(n_coarse: int, top: float, bottom: float) -> BandMatrix:
    """Mask stacking fine pairs (2k, 2k+1) with the given two weights."""
    rows = np.empty(2 * n_coarse, dtype=np.int64)
    rows[0::2] = 2 * np.arange(n_coarse)
    rows[1::2] = 2 * np.arange(n_coarse) + 1
    cols = np.repeat(np.arange(n_coarse), 2)
    vals = np.empty(2 * n_coarse)
    vals[0::2] = top
    vals[1::2] = bottom
    return BandMatrix(2 * n_coarse, n_coarse, rows, cols, vals)


def scaled_haar_masks(j0: int, max_level: int, d: float = 0.6) -> dict[int, MaskQuad]:
    """Biorthogonal but non-orthonormal Haar rescaling: the primal wavelet
    mask is scaled by d*sqrt(2), the dual by 1/(2d)*sqrt(2), so the primal
    and dual transforms differ."""
    quads = {}
    for j in range(j0 + 1, max_level + 1):
        n = 2 ** (j - 1 - j0)
        m0 = pair_mask(n, 1 / SQ2, 1 / SQ2)
        m1 = pair_mask(n, d, -d)
        mt1 = pair_mask(n, 1 / (2 * d), -1 / (2 * d))
        quads[j] = MaskQuad(m0, m1, m0, mt1)
    return quads


@pytest.fixture(scope="session")
def haar():
    return make_haar_basis(0)


@pytest.fixture(scope="session")
def haar_j2():
    return make_haar_basis(2)


@pytest.fixture(scope="session")
def scaled():
    return make_mask_basis(
        scaled_haar_masks(0, 10),
        d=1, d_tilde=1, gamma=0.5, gamma_tilde=0.5,
        alpha=64.0, j0=0, name="scaledhaar",
    )


def child_env() -> dict:
    """Environment for a child ``python`` process: the source tree of the
    imported ``hyperwave`` first on PYTHONPATH, so ``python -m hyperwave``
    runs from a checkout without an install, as pytest itself does."""
    path = [str(Path(hyperwave.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def make_hyper(entries: dict, n: int, max_level: int, basis="haar", p=2.0) -> CoeffVector:
    """CoeffVector from {(levels, positions): value} for concise tests."""
    if not entries:
        return CoeffVector(
            "hyperbolic", n, p, max_level, basis,
            np.zeros((0, n), int), np.zeros((0, n), int), np.zeros(0),
        )
    levels = np.array([list(k[0]) for k in entries], dtype=np.int64)
    positions = np.array([list(k[1]) for k in entries], dtype=np.int64)
    values = np.array(list(entries.values()), dtype=np.float64)
    return CoeffVector("hyperbolic", n, p, max_level, basis, levels, positions, values)


def make_iso(entries: dict, n: int, max_level: int, basis="haar", p=2.0) -> CoeffVector:
    """CoeffVector from {(m, e, positions): value}."""
    levels = np.array([k[0] for k in entries], dtype=np.int64)
    etypes = np.array([list(k[1]) for k in entries], dtype=np.int8)
    positions = np.array([list(k[2]) for k in entries], dtype=np.int64)
    values = np.array(list(entries.values()), dtype=np.float64)
    return CoeffVector("isotropic", n, p, max_level, basis, levels, positions,
                       values, etypes=etypes)


def random_hyper(spec, rng, n: int, m: int) -> CoeffVector:
    """Dense random hyperbolic vector at truncation m."""
    from hyperwave import hyper_forward

    size = spec.delta_size(m)
    return hyper_forward(spec, n, rng.standard_normal((size,) * n))


def from_index_arrays(u: CoeffVector) -> CoeffVector:
    """``u`` built anew from its index arrays and values: a vector that
    keeps no grid, whose multiscale grid is scattered from its entries."""
    return replace(u)


def random_sparse_hyper(spec, rng, n: int, m: int, nnz: int) -> CoeffVector:
    """Random nnz-sparse hyperbolic vector at truncation m, built from
    index arrays."""
    from hyperwave.tensorbasis import _from_multiscale_array

    size = spec.delta_size(m)
    flat = rng.choice(size ** n, size=nnz, replace=False)
    arr = np.zeros(size ** n)
    arr[flat] = rng.standard_normal(nnz)
    return from_index_arrays(_from_multiscale_array(spec, arr.reshape((size,) * n), n, m))

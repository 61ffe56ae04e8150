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


def lifted_haar_quad(rng, j):
    """Level-j Haar masks lifted as in Sweldens, "The lifting scheme" (1996):
    M1' = M1 + M0 K and Mt0' = Mt0 - Mt1 K^T for a random tridiagonal K.
    K[3, 3] = -1 cancels the Haar entry (6, 3) of M1', so that mask has a
    gap in a diagonal besides the ragged runs at both ends."""
    m0, m1, mt0, mt1 = (b.to_dense() for b in make_haar_basis(0).masks(j))
    n = m0.shape[1]
    k = sum(np.diag(rng.uniform(-0.5, 0.5, n - abs(o)), o) for o in (-1, 0, 1))
    if n > 3:
        k[3, 3] = -1.0
    return MaskQuad(*(BandMatrix.from_dense(a) for a in (m0, m1 + m0 @ k, mt0 - mt1 @ k.T, mt1)))


def lifted_spec():
    """A biorthogonal basis that is not orthonormal: lifted Haar masks on
    levels 1-8, so its dual masks differ from its primal ones."""
    rng = np.random.default_rng(7)
    return make_mask_basis({j: lifted_haar_quad(rng, j) for j in range(1, 9)},
                           d=1, d_tilde=1, gamma=0.5, gamma_tilde=0.5, alpha=64.0, j0=0,
                           name="lifted")


@pytest.fixture(scope="session")
def lifted():
    return lifted_spec()


def csr(a: BandMatrix):
    """A scipy CSR copy of ``a``, built from its entries: the oracle the
    numpy products of ``BandMatrix`` are checked against.  scipy is a test
    dependency only."""
    import scipy.sparse as sp

    r, c, v = a.entries()
    return sp.csr_matrix((v, (r, c)), shape=a.shape)


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

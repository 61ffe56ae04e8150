"""The array-native norm and Jackson/Bernstein code against the direct
formulations they replaced: row-wise block grouping with
``np.unique(axis=0)`` and one rebuilt truncation per N.  The
dimension-generic change of basis against the bivariate one it replaced.
The table codec of coefficient and array files against the per-line
writers and readers it replaced.  The grid-to-index-column conversion
against the ``np.nonzero`` route it replaced.  The assembled transforms,
now one cascade step per level with a shared dual for equal masks,
against the product of padded per-level factors they replaced, and the
transform norm rows against four separate estimates.  The numpy mask
products of ``BandMatrix`` against the scipy CSR products they replaced.
The mask and matrix files, now blocks of the table codec, against the
per-line writers and parser they replaced.  The embedding suite, now
batches of dense grids, against one analysis and one
``check_embedding_chain`` per trial.  The grid a vector made from a grid
keeps, in either system, against the scatter of its entries, its lazily
built entries against the eager extraction they replaced, and its norms
against those of its twin built from index columns; the index keys built
from record views against one named tuple per row.  The level-by-level
isotropic synthesis against a CSR reference of the same route, bit for
bit, and against the per-block synthesis it replaced, within rounding.
Every grid transform, now one in-place sweep of the two-scale step,
against the 1-D cascades on reshaped 2-D copies it replaced, and the
dyadic-grid values of a basis function against their two-branch
expansion."""

import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from hyperwave import (
    HYPERBOLIC,
    ISOTROPIC,
    BandMatrix,
    CoeffVector,
    DimensionMismatch,
    HyperIndex,
    IsoIndex,
    LevelIndex,
    MaskQuad,
    NormParams,
    besov_hybrid_norm,
    besov_iso_norm,
    build_transform,
    check_embedding_chain,
    error_curve,
    evaluate_on_dyadic_grid,
    iso_from_hyper,
    jackson_bernstein_ratios,
    make_haar_basis,
    make_mask_basis,
    rescale,
    running_max_stabilizes,
    sample_function,
    seqnorms,
    sobolev_norm_hyper,
    sobolev_norm_iso,
    testfunctions,
    verify,
)
from hyperwave import bandmatrix, hyper_forward, hyper_from_iso, hyper_inverse, iso_synthesize
from hyperwave import load_coeffs, save_coeffs, tensorbasis, transform1d
from hyperwave import load_mask_file, load_matrix_file, save_mask_file, save_matrix_file
from hyperwave.cli import load_array, save_array
from hyperwave.errors import DimensionMismatch
from hyperwave.nterm import _greedy_order, _tail_errors
from hyperwave.seqnorms import _block_norm, _outer_norm
from hyperwave.tables import WRITE_CHUNK_ROWS, _index_order, _row_code, fmt
from hyperwave.tensorbasis import (
    _analyze_grids,
    _blocks,
    _from_multiscale_array,
    _iso_block_slices,
    _kept_grid,
    _nonzero_cells,
    _to_multiscale_array,
)
from hyperwave.transform1d import _analyze_array, _synthesize_array
from hyperwave.verify import TransformNormRow, _p_norm_estimate, check_transform_norms
from conftest import csr, lifted_spec, make_hyper, make_iso, random_hyper, random_sparse_hyper


def reference_besov_hybrid_norm(u, params):
    """Hybrid Besov norm with the blocks grouped row-wise."""
    if u.num_entries == 0:
        return 0.0
    up = rescale(u, params.p)
    blocks, group = np.unique(u.levels, axis=0, return_inverse=True)
    inner = _block_norm(up.values, group, len(blocks), params.p)
    weighted = 2.0 ** (params.q * blocks.max(axis=1) + params.s * blocks.sum(axis=1)) * inner
    return _outer_norm(weighted, params.tau)


def reference_sobolev_norm_hyper(u, q):
    return reference_besov_hybrid_norm(u, NormParams(q=q, s=0.0, p=2.0, tau=2.0))


def reference_jackson_bernstein(u, q, r):
    """Both ratios with two full norms of a rebuilt truncation per N."""
    tau = 1.0 / (r + 0.5)
    params = NormParams(q=q, s=r, p=tau, tau=tau)
    denom = reference_besov_hybrid_norm(u, params)
    if denom == 0.0:
        raise ZeroDivisionError("Jackson ratio undefined for the zero vector")
    total = u.num_entries
    w = 2.0 ** (q * u.level_linf()) * np.abs(rescale(u, 2.0).values)
    order = np.lexsort((*u.index_columns().T[::-1], -w))
    tail = _tail_errors(w[order])
    jackson = max(max(n, 1) ** r * float(tail[n]) / denom for n in range(total + 1))
    bernstein = 0.0
    for n in range(1, total + 1):
        keep = order[:n]
        u_n = CoeffVector(u.system, u.n, u.p_norm, u.max_level, u.basis,
                          u.levels[keep], u.positions[keep], u.values[keep])
        h_norm = reference_sobolev_norm_hyper(u_n, q)
        if h_norm == 0.0:
            raise ZeroDivisionError("Bernstein ratio undefined: truncation vanishes")
        bernstein = max(bernstein, reference_besov_hybrid_norm(u_n, params) / (n ** r * h_norm))
    return jackson, bernstein


def random_vector(rng, n, p_norm, nnz, lo=0, hi=6):
    """Random hyperbolic vector with levels in [lo, hi], repeated blocks and
    a p_norm of choice; positions do not enter the norms."""
    levels = rng.integers(lo, hi + 1, size=(nnz, n))
    positions = rng.integers(0, 8, size=(nnz, n))
    values = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-3, 3, nnz)
    return CoeffVector("hyperbolic", n, p_norm, hi, "haar", levels, positions, values)


P_TAU = [2.0, 1.0, 0.7, 0.4, np.inf]


class TestBesovHybridNormBitwise:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p_norm", [2.0, 1.0, 0.7])
    def test_random_vectors(self, n, p_norm):
        rng = np.random.default_rng(100 * n + int(10 * p_norm))
        for _ in range(20):
            u = random_vector(rng, n, p_norm, int(rng.integers(1, 60)))
            params = NormParams(q=float(rng.uniform(-1, 1)), s=float(rng.uniform(-1, 1)),
                                p=float(rng.choice(P_TAU)), tau=float(rng.choice(P_TAU)))
            assert besov_hybrid_norm(u, params) == reference_besov_hybrid_norm(u, params)

    @pytest.mark.parametrize("p, tau", [(np.inf, 2.0), (2.0, np.inf), (np.inf, np.inf), (0.5, 0.5)])
    def test_infinite_exponents_dense(self, haar, p, tau):
        rng = np.random.default_rng(3)
        for n, m in ((1, 6), (2, 4), (3, 3)):
            u = random_hyper(haar, rng, n, m)
            params = NormParams(q=0.3, s=-0.2, p=p, tau=tau)
            assert besov_hybrid_norm(u, params) == reference_besov_hybrid_norm(u, params)

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kept_grids_match_twins(self, request, name, n, scatters):
        def norm(u, p, tau, q, s):
            return besov_hybrid_norm(u, NormParams(q=q, s=s, p=p, tau=tau))

        def reference(u, p, tau, q, s):
            return reference_besov_hybrid_norm(u, NormParams(q=q, s=s, p=p, tau=tau))

        assert_kept_norms_match_twins(request.getfixturevalue(name), n, scatters, HYPERBOLIC,
                                      norm, reference)

    def test_negative_levels_do_not_alias(self):
        # Levels below zero pass CoeffVector.  Codes taken without the
        # offset would send blocks (-1, 2) and (0, -1) to the same integer.
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            u = random_vector(rng, n, 2.0, 40, lo=-2, hi=3)
            params = NormParams(q=0.5, s=0.25, p=1.0, tau=1.5)
            assert besov_hybrid_norm(u, params) == reference_besov_hybrid_norm(u, params)
        u = make_hyper({((-1, 2), (0, 0)): 1.0, ((0, -1), (0, 0)): 1.0}, 2, 2, p=1.0)
        params = NormParams(q=0.0, s=0.0, p=1.0, tau=2.0)
        assert besov_hybrid_norm(u, params) == np.sqrt(2.0)

    def test_level_span_beyond_int64_codes_rejected(self):
        # With levels -2^32 and 0 the codes of (-2^32, 0) and (0, -2^32)
        # would wrap onto one int64 value.
        u = make_hyper({((-2 ** 32, 0), (0, 0)): 1.0, ((0, -2 ** 32), (0, 0)): 1.0}, 2, 0)
        with pytest.raises(DimensionMismatch):
            besov_hybrid_norm(u, NormParams(q=0.0, s=0.0))
        # Isotropic levels -2^62 and 2^62 would wrap when offset by the lowest.
        v = make_iso({(-2 ** 62, (1,), (0,)): 1.0, (2 ** 62, (1,), (0,)): 1.0}, 1, 2 ** 62)
        with pytest.raises(DimensionMismatch):
            besov_iso_norm(v, 0.0)


def reference_besov_iso_norm(v, alpha, p, tau):
    """Isotropic Besov norm with the levels grouped by ``np.unique``."""
    if v.num_entries == 0:
        return 0.0
    vp = rescale(v, p)
    levels, group = np.unique(v.levels, return_inverse=True)
    inner = _block_norm(vp.values, group, len(levels), p)
    return _outer_norm(2.0 ** (alpha * levels) * inner, tau)


def random_iso_vector(rng, n, p_norm, nnz, lo=0, hi=6):
    """Random isotropic vector with levels in [lo, hi]; types and positions
    do not enter the norms."""
    levels = rng.integers(lo, hi + 1, size=nnz)
    etypes = rng.integers(0, 2, size=(nnz, n)).astype(np.int8)
    positions = rng.integers(0, 8, size=(nnz, n))
    values = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-3, 3, nnz)
    return CoeffVector("isotropic", n, p_norm, hi, "haar", levels, positions, values,
                       etypes=etypes)


class TestSortFreeGrouping:
    """Block sums binned by their code, where the code space is no larger
    than the entry count, against the ``np.unique`` grouping."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lo", [0, -3])
    def test_iso_norm_matches_unique(self, n, lo):
        rng = np.random.default_rng(30 * n - lo)
        for _ in range(30):
            # Nine levels against 1..40 entries: both groupings run.
            v = random_iso_vector(rng, n, float(rng.choice([2.0, 1.0, 0.7])),
                                  int(rng.integers(1, 41)), lo=lo, hi=lo + 8)
            alpha = float(rng.uniform(-1, 1))
            p, tau = float(rng.choice(P_TAU)), float(rng.choice(P_TAU))
            assert besov_iso_norm(v, alpha, p, tau) == reference_besov_iso_norm(v, alpha, p, tau)

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kept_iso_grids_match_twins(self, request, name, n, scatters):
        # The isotropic norm has one weight, alpha, taken from the grid of q.
        def norm(v, p, tau, q, s):
            return besov_iso_norm(v, q, p, tau)

        def reference(v, p, tau, q, s):
            return reference_besov_iso_norm(v, q, p, tau)

        assert_kept_norms_match_twins(request.getfixturevalue(name), n, scatters, ISOTROPIC,
                                      norm, reference)

    # Rescaling by 2^{|j|_1 / 2} overflows at such levels, in both codes alike.
    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_wide_level_span_allocates_no_bin_per_code(self):
        rng = np.random.default_rng(8)
        wide = [
            make_hyper({((0,), (0,)): 1.5, ((2 ** 40,), (0,)): -2.0}, 1, 2 ** 40),
            random_vector(rng, 2, 2.0, 50, lo=-2 ** 19, hi=2 ** 19),
        ]
        iso = make_iso({(0, (1,), (0,)): 1.5, (2 ** 40, (1,), (3,)): -2.0}, 1, 2 ** 40)
        for p, tau in ((2.0, 2.0), (1.0, np.inf), (np.inf, 0.5)):
            params = NormParams(q=0.0, s=0.0, p=p, tau=tau)
            want = [reference_besov_hybrid_norm(u, params) for u in wide]
            want_iso = reference_besov_iso_norm(iso, 0.0, p, tau)
            tracemalloc.start()
            try:
                got = [besov_hybrid_norm(u, params) for u in wide]
                got_iso = besov_iso_norm(iso, 0.0, p, tau)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want and got_iso == want_iso
            assert peak < 4 << 20

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_level_reductions_match_axis_reductions(self, n):
        rng = np.random.default_rng(n)
        for nnz in (0, 1, 17):
            u = random_vector(rng, n, 2.0, nnz, lo=-3, hi=5)
            levels = u.levels.reshape(nnz, n)
            for got, want in ((u.level_linf(), levels.max(axis=1, initial=-2 ** 62)),
                              (u.level_l1(), levels.sum(axis=1))):
                assert got.dtype == np.int64 and got.shape == (nnz,)
                assert got.tobytes() == want.astype(np.int64).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["haar", "scaled", "haar_j2"])
    def test_embedding_chain_matches_two_iso_norms(self, request, name, n):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        for m in range(spec.j0 + 2, spec.j0 + (6 if n < 3 else 4)):
            for u in (random_hyper(spec, rng, n, m), *sparse_embedding_cases(spec, rng, n, m)):
                self.assert_embedding_chain_matches(spec, u)

    @staticmethod
    def assert_embedding_chain_matches(spec, u):
        for q, s in ((0.0, 0.25), (0.3, 0.1)):
            tau = 1.0 / (s + 0.5)
            hybrid = besov_hybrid_norm(u, NormParams(q=q, s=s, p=tau, tau=tau))
            v = iso_from_hyper(spec, u)
            want = (besov_iso_norm(v, q + s, tau, tau) / hybrid,
                    hybrid / besov_iso_norm(v, q + u.n * s, tau, tau))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = check_embedding_chain(spec, u, q, s)
                # A vector that keeps its grid marks its blocks by their
                # nonzero cells, one built from index arrays by its entries.
                assert got == check_embedding_chain(spec, twin(u), q, s)
            assert got == want
            if u.n == 1:
                # On the interval the hybrid and isotropic scales are one scale.
                np.testing.assert_allclose(got, (1.0, 1.0), rtol=1e-12, atol=0)


class TestEmbeddingBatches:
    @pytest.mark.parametrize("n, m_max", [(1, 8), (2, 8), (3, 6)])
    @pytest.mark.parametrize("trials", [1, 3, 7, 20])
    def test_embedding_suite_matches_one_trial_at_a_time(self, haar, trials, n, m_max):
        # A batch holds all trials at n = 1; at n = 2 it holds 16 trials of
        # level 6, 4 of level 7 and 1 of level 8; at n = 3 it holds 16 of
        # level 4, 2 of level 5 and 1 of level 6.
        args = SimpleNamespace(seed=trials, trials=trials, q=0.0, s=0.25, n=n, m_max=m_max, ps=[])
        assert (list(verify.SUITES["embedding"](haar, args))
                == reference_embedding_rows(haar, args, range(4, m_max + 1)))


def sparse_embedding_cases(spec, rng, n, m):
    """Sparse n-variate vectors at truncation m in index order: one with
    mostly empty blocks, the same without level j0 + 1 on any axis, and
    that one with a stored 0.0 and a stored -0.0, each alone in one of the
    first two empty blocks (the 0.0 alone when only one block is empty)."""
    u = random_sparse_hyper(spec, rng, n, m, min(12, spec.delta_size(m) ** n - 1))
    keep = (u.levels != spec.j0 + 1).all(axis=1)
    gap = replace(u, levels=u.levels[keep], positions=u.positions[keep], values=u.values[keep])
    taken = set(map(tuple, gap.levels.tolist()))
    free = [j for j in itertools.product(range(spec.j0, m + 1), repeat=n) if j not in taken][:2]
    zeros = CoeffVector(HYPERBOLIC, n, 2.0, m, u.basis,
                        np.concatenate([gap.levels, free]),
                        np.concatenate([gap.positions, np.zeros((len(free), n), dtype=np.int64)]),
                        np.concatenate([gap.values, [0.0, -0.0][:len(free)]])).canonical_order()
    return u, gap, zeros


def reference_embedding_rows(spec, args, levels):
    """The embedding suite's rows from one analysis and one check per trial."""
    rng = np.random.default_rng(args.seed)
    param = f"q={fmt(args.q)},s={fmt(args.s)}"
    rows, maxima = [], []
    for m in levels:
        size = spec.delta_size(m)
        low = up = 0.0
        for _ in range(args.trials):
            u = hyper_forward(spec, args.n, rng.standard_normal((size,) * args.n))
            lo, hi = check_embedding_chain(spec, u, args.q, args.s)
            low, up = max(low, lo), max(up, hi)
        maxima.append((low, up))
        rows += [("embedding_lower", param, m, low, np.nan, True),
                 ("embedding_upper", param, m, up, np.nan, True)]
    ok = all(running_max_stabilizes(series, rel=0.25) for series in zip(*maxima))
    return rows + [("embedding_stable", param, levels[-1], float(ok), 1.0, ok)]


class TestJacksonBernsteinEquivalence:
    @pytest.mark.parametrize("p_norm", [2.0, 1.0, 0.7])
    def test_random_vectors(self, p_norm):
        rng = np.random.default_rng(int(10 * p_norm))
        for _ in range(15):
            n = int(rng.integers(1, 4))
            u = random_vector(rng, n, p_norm, int(rng.integers(1, 50)))
            q = float(rng.choice([0.0, 0.25, -0.4]))
            r = float(rng.choice([1.0, 0.5, 0.25]))
            got = jackson_bernstein_ratios(u, q, r)
            want = reference_jackson_bernstein(u, q, r)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_dense_haar_vectors(self, haar):
        rng = np.random.default_rng(11)
        for n, m in ((1, 7), (2, 4), (3, 2)):
            u = random_hyper(haar, rng, n, m)
            for q, r in ((0.0, 1.0), (0.25, 0.5)):
                got = jackson_bernstein_ratios(u, q, r)
                np.testing.assert_allclose(got, reference_jackson_bernstein(u, q, r),
                                           rtol=1e-13, atol=0)

    def test_zero_vector_raises_like_reference(self):
        u = make_hyper({((1, 1), (0, 0)): 0.0, ((0, 1), (0, 0)): 0.0}, 2, 2)
        for fn in (jackson_bernstein_ratios, reference_jackson_bernstein):
            with pytest.raises(ZeroDivisionError, match="zero vector"):
                fn(u, 0.0, 1.0)

    def test_vanishing_truncation_raises_like_reference(self):
        # 2^{q |j|_inf} underflows to zero for the level-(3,3) entry while
        # its Besov weight 2^{q |j|_inf + r |j|_1} does not, so the Besov
        # norm is positive.  The explicit zero at level (0,0) then ties with
        # it at modulus zero, comes first in index order, and the first
        # greedy truncation has H^q quantity zero.
        u = make_hyper({((0, 0), (0, 0)): 0.0, ((3, 3), (0, 0)): 1e300}, 2, 3)
        # A single coefficient whose square underflows has the same effect.
        tiny = make_hyper({((0, 0), (0, 0)): 1e-170}, 2, 3)
        for vec, q in ((u, -360.0), (tiny, 0.0)):
            for fn in (jackson_bernstein_ratios, reference_jackson_bernstein):
                with pytest.raises(ZeroDivisionError, match="truncation vanishes"):
                    fn(vec, q, 1.0)


class TestSupportTuples:
    def test_hyperbolic_support_holds_python_ints(self, haar):
        u = random_hyper(haar, np.random.default_rng(2), 3, 2)
        support = error_curve(u, 0.2, [5, 17]).support
        assert isinstance(support, tuple) and len(support) == 17
        for key in support:
            assert type(key) is HyperIndex
            assert all(type(x) is int for x in key.levels + key.positions)
        assert set(support) <= set(u.as_dict())

    def test_isotropic_support_holds_python_ints(self, haar):
        v = iso_from_hyper(haar, random_hyper(haar, np.random.default_rng(4), 2, 3))
        support = error_curve(v, 0.0, [9]).support
        assert len(support) == 9
        for key in support:
            assert type(key) is IsoIndex and type(key.m) is int
            assert all(type(x) is int for x in key.e + key.positions)
        d = v.as_dict()
        assert set(support) <= set(d)
        assert all(type(x) is float for x in d.values())

    def test_keys_match_per_row_construction(self, haar):
        """``index_keys`` of record views against one named tuple per row, for
        both systems at n = 1..3, in a given order and empty."""
        rng = np.random.default_rng(12)
        for cv in coefficient_vectors(haar):
            rows = rng.permutation(cv.num_entries)
            if cv.system == HYPERBOLIC:
                want = [HyperIndex(tuple(cv.levels[i].tolist()), tuple(cv.positions[i].tolist()))
                        for i in rows]
            else:
                want = [IsoIndex(int(cv.levels[i]), tuple(cv.etypes[i].tolist()),
                                 tuple(cv.positions[i].tolist())) for i in rows]
            got = cv.index_keys(rows)
            assert got == tuple(want) and all(type(k) is type(w) for k, w in zip(got, want))


def reference_iso_from_hyper(spec, u):
    """Bivariate change of basis: T_{m-1} along the one coarse axis of the
    types (0,1) and (1,0), the (1,1) block copied."""
    mmax = u.max_level
    arr = _to_multiscale_array(spec, u)
    d0 = spec.delta_size(spec.j0)
    out_levels, out_etypes, out_pos, out_vals = [], [], [], []

    def emit(m, e, block):
        k1, k2 = np.nonzero(block)
        if k1.size:
            out_levels.append(np.full(k1.size, m, dtype=np.int64))
            out_etypes.append(np.tile(np.array(e, dtype=np.int8), (k1.size, 1)))
            out_pos.append(np.stack([k1, k2], axis=1))
            out_vals.append(block[k1, k2])

    emit(spec.j0, (0, 0), arr[:d0, :d0])
    for m in range(spec.j0 + 1, mmax + 1):
        lo, hi = spec.block_slice(m)
        emit(m, (0, 1), _synthesize_array(spec, arr[:lo, lo:hi], m - 1))
        emit(m, (1, 0), _synthesize_array(spec, arr[lo:hi, :lo].T, m - 1).T)
        emit(m, (1, 1), arr[lo:hi, lo:hi])
    return CoeffVector(
        "isotropic", 2, 2.0, mmax, u.basis,
        np.concatenate(out_levels), np.concatenate(out_pos),
        np.concatenate(out_vals), etypes=np.concatenate(out_etypes),
    )


def reference_gather_iso_blocks(spec, v):
    """Dense per-(m, e) blocks in ascending block code, one mask ``code == c``
    over all entries per block."""
    blocks = {}
    n = v.n
    code = v.levels * 2 ** n + v.etypes @ 2 ** np.arange(n - 1, -1, -1)
    for c in np.unique(code):
        sel = code == c
        m, bits = divmod(int(c), 2 ** n)
        e = tuple((bits >> (n - 1 - a)) & 1 for a in range(n))
        if not any(e):
            shape = (spec.delta_size(spec.j0),) * n
        else:
            shape = tuple(spec.nabla_size(m) if ei else spec.delta_size(m - 1) for ei in e)
        block = np.zeros(shape)
        block[tuple(v.positions[sel].T)] = v.values[sel]
        blocks[(m, e)] = block
    return blocks


def reference_hyper_from_iso(spec, v):
    size = spec.delta_size(v.max_level)
    arr = np.zeros((size, size))
    d0 = spec.delta_size(spec.j0)
    for (m, e), block in reference_gather_iso_blocks(spec, v).items():
        if e == (0, 0):
            arr[:d0, :d0] = block
            continue
        lo, hi = spec.block_slice(m)
        if e == (1, 1):
            arr[lo:hi, lo:hi] = block
        elif e == (0, 1):
            arr[:lo, lo:hi] = _analyze_array(spec, block, m - 1)
        else:
            arr[lo:hi, :lo] = _analyze_array(spec, block.T, m - 1).T
    return _from_multiscale_array(spec, arr, 2, v.max_level)


def reference_iso_synthesize(spec, v):
    mmax = v.max_level
    size = spec.delta_size(mmax)
    out = np.zeros((size, size))

    def prolong(block, j_from):
        cur = block
        for level in range(j_from + 1, mmax + 1):
            m0 = csr(spec.masks(level).m0)
            cur = m0 @ cur
            cur = (m0 @ cur.T).T
        return cur

    for (m, e), block in reference_gather_iso_blocks(spec, v).items():
        if e == (0, 0):
            out += prolong(block, spec.j0)
            continue
        quad = spec.masks(m)
        f1 = csr(quad.m1 if e[0] else quad.m0)
        f2 = csr(quad.m1 if e[1] else quad.m0)
        out += prolong((f2 @ (f1 @ block).T).T, m)
    return out


def reference_levelwise_iso_synthesize(spec, v):
    """The level-by-level isotropic synthesis of a bivariate vector with
    scipy CSR products: the blocks laid out on the multiscale grid, then for
    each level m above j0 the box [0, |Delta_m|)^2 refined along its rows,
    then along its columns, by M0 on the scaling and M1 on the wavelet
    range."""
    arr = np.zeros((spec.delta_size(v.max_level),) * 2)
    for (m, e), block in reference_gather_iso_blocks(spec, v).items():
        arr[_iso_block_slices(spec, m, e)] = block
    for m in range(spec.j0 + 1, v.max_level + 1):
        quad = spec.masks(m)
        m0, m1 = csr(quad.m0), csr(quad.m1)
        lo, hi = spec.block_slice(m)
        arr[:hi, :hi] = m0 @ arr[:lo, :hi] + m1 @ arr[lo:hi, :hi]
        arr[:hi, :hi] = (m0 @ arr[:hi, :lo].T + m1 @ arr[:hi, lo:hi].T).T
    return arr + 0.0


def check_iso_synthesize(spec, v):
    """``iso_synthesize`` bit for bit as the level-by-level reference, and
    within rounding of the per-block route it replaced."""
    synth, per_block = iso_synthesize(spec, v), reference_iso_synthesize(spec, v)
    assert synth.tobytes() == reference_levelwise_iso_synthesize(spec, v).tobytes()
    assert np.abs(synth - per_block).max() <= 1e-13 * np.abs(per_block).max()


def same_bits(a, b):
    fields = ("system", "n", "p_norm", "max_level", "basis")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    for name in ("levels", "positions", "values", "etypes"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def _apply_axis(fn, arr, axis):
    """Apply ``fn``, a map of the leading axis of 2-D arrays, along one axis
    of an n-D array; the length of that axis may change."""
    moved = np.swapaxes(arr, axis, 0)
    res = fn(moved.reshape(moved.shape[0], -1))
    return np.swapaxes(res.reshape(res.shape[:1] + moved.shape[1:]), 0, axis)


def reference_on_scaling_axes(cascade, spec, block, m, e):
    """The per-block cascade: the univariate ``cascade`` at level m - 1
    along the axes with e_i = 0 of a level-m block, the last n = len(e)
    axes of ``block``; a type-0 block passes unchanged."""
    for axis, ei in enumerate(e, start=block.ndim - len(e)):
        if any(e) and not ei:
            block = _apply_axis(lambda a: cascade(spec, a, m - 1), block, axis)
    return block


def reference_iso_blocks(spec, grid, n, mmax):
    """(m, e, block) in iso order, each block synthesised on its own."""
    types = [e for e in itertools.product((0, 1), repeat=n) if any(e)]
    for m, e in [(spec.j0, (0,) * n), *itertools.product(range(spec.j0 + 1, mmax + 1), types)]:
        view = grid[(..., *_iso_block_slices(spec, m, e))]
        yield m, e, reference_on_scaling_axes(_synthesize_array, spec, view, m, e)


def reference_generic_iso_from_hyper(spec, u):
    """The change of basis for every n as one cascade per type block."""
    blocks, parts = [], []
    for m, e, block in reference_iso_blocks(spec, _to_multiscale_array(spec, u), u.n,
                                            u.max_level):
        blocks.append((m, e))
        parts.append(_nonzero_cells(block))
    sizes = [values.size for values, _ in parts]
    levels = np.repeat(np.array([m for m, _ in blocks], dtype=np.int64), sizes)
    etypes = np.repeat(np.array([e for _, e in blocks], dtype=np.int8), sizes, axis=0)
    values, positions = (np.concatenate(col) for col in zip(*parts))
    return CoeffVector("isotropic", u.n, 2.0, u.max_level, u.basis, levels, positions, values,
                       etypes=etypes)


def reference_generic_hyper_from_iso(spec, v):
    """The inverse change of basis for every n, one dual cascade per block
    that holds entries of ``v``, in place on its grid."""
    arr = _to_multiscale_array(spec, v)
    for m, e in {(int(m), tuple(e)) for m, e in zip(v.levels, v.etypes.tolist())}:
        block = arr[_iso_block_slices(spec, m, e)]
        block[...] = reference_on_scaling_axes(_analyze_array, spec, block, m, e)
    return _from_multiscale_array(spec, arr, v.n, v.max_level)


def change_of_basis_inputs(spec, n, m, rng):
    """A hyperbolic vector of a dense level-m grid with zeros, the same with
    special values (+-0.0, +-inf, nan), then an isotropic vector and the
    same with special values."""
    size = spec.delta_size(max(m, spec.j0 + 1))
    a = rng.standard_normal((size,) * n)
    a[rng.random(a.shape) < 0.3] = 0.0
    u = hyper_forward(spec, n, a)
    v = iso_from_hyper(spec, u)
    for x in (u, v):
        yield x
        yield x.with_values(special_operand(rng, x.num_entries, None))


def same_bits_but_nan_sign(a, b):
    """``same_bits`` with every NaN value read as one NaN.  Where two NaNs
    meet in a sum, numpy's add keeps the NaN of one operand or the other
    by the place of the entry in its loop, and the sweep runs its loops
    over other extents than the per-block cascades (see
    ``assert_same_bits_but_nan_sign``)."""
    def canon(x):
        return x.with_values(np.where(np.isnan(x.values), np.nan, x.values))

    same_bits(canon(a), canon(b))


class TestChangeOfBasisBitwise:
    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    @pytest.mark.parametrize("n, m", [(1, 2), (1, 7), (2, 3), (2, 6), (3, 3), (3, 5)])
    def test_sweep_matches_per_block_cascades(self, request, name, n, m):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(10 * n + m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, x in enumerate(change_of_basis_inputs(spec, n, m, rng)):
                check = same_bits_but_nan_sign if i % 2 else same_bits
                if x.system == HYPERBOLIC:
                    check(iso_from_hyper(spec, x), reference_generic_iso_from_hyper(spec, x))
                else:
                    check(hyper_from_iso(spec, x), reference_generic_hyper_from_iso(spec, x))

    @pytest.mark.parametrize("m", [3, 6])
    def test_bivariate_outputs_match(self, haar, scaled, haar_j2, m):
        rng = np.random.default_rng(m)
        for spec in (haar, scaled, haar_j2):
            size = spec.delta_size(max(m, spec.j0 + 1))
            a = rng.standard_normal((size, size))
            a[rng.random((size, size)) < 0.3] = 0.0
            u = hyper_forward(spec, 2, a)
            v = iso_from_hyper(spec, u)
            same_bits(v, reference_iso_from_hyper(spec, u))
            same_bits(hyper_from_iso(spec, v), reference_hyper_from_iso(spec, v))
            check_iso_synthesize(spec, v)

    def test_sparse_vector_matches(self, haar):
        u = make_hyper({((0, 3), (0, 2)): 1.5, ((2, 1), (1, 0)): -0.25,
                        ((3, 3), (1, 2)): 2.0}, 2, 3)
        v = iso_from_hyper(haar, u)
        same_bits(v, reference_iso_from_hyper(haar, u))
        same_bits(hyper_from_iso(haar, v), reference_hyper_from_iso(haar, v))
        check_iso_synthesize(haar, v)


def reference_analyze_array(spec, a, m):
    """Tdual_m^T along the leading axis of a 1-D or 2-D array, a new array
    per level: the cascade before it became an in-place sweep."""
    out = np.empty_like(a, dtype=np.float64)
    cur = np.asarray(a, dtype=np.float64)
    for level in range(m, spec.j0, -1):
        quad = spec.masks(level)
        lo, hi = spec.block_slice(level)
        out[lo:hi] = quad.mt1.apply_transpose(cur)
        cur = quad.mt0.apply_transpose(cur)
    out[: spec.delta_size(spec.j0)] = cur
    return out


def reference_synthesize_array(spec, a, m):
    """T_m along the leading axis of a 1-D or 2-D array, a new array per
    level."""
    cur = a[: spec.delta_size(spec.j0)].copy()
    for level in range(spec.j0 + 1, m + 1):
        quad = spec.masks(level)
        lo, hi = spec.block_slice(level)
        with np.errstate(invalid="ignore", over="ignore"):
            cur = quad.m0.apply(cur) + quad.m1.apply(a[lo:hi])
    return cur


def reshape_route(cascade, spec, grid, n, m):
    """The 1-D ``cascade`` at level m along each of the last n axes of
    ``grid`` in turn, each axis moved to the front of a 2-D copy."""
    for axis in range(grid.ndim - n, grid.ndim):
        grid = _apply_axis(lambda a: cascade(spec, a, m), grid, axis)
    return grid


def reference_evaluate_on_dyadic_grid(spec, idx, m):
    """The two-branch expansion: a scaling index prolonged by M0 alone, a
    wavelet index synthesised from a unit multiscale vector."""
    j, k = idx.j, idx.k
    if idx.kind == "scaling":
        c = np.zeros(spec.delta_size(j))
        c[k] = 1.0
        for level in range(j + 1, m + 1):
            c = spec.masks(level).m0.apply(c)
    else:
        c = np.zeros(spec.delta_size(m))
        c[spec.block_slice(j)[0] + k] = 1.0
        c = reference_synthesize_array(spec, c, m)
    return (2.0 ** (m / 2.0)) * c


class TestOneSweep:
    """Every grid transform, now the one in-place sweep of the two-scale
    step, against the reshape route it replaced, NaN equal to NaN."""

    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reshape_route(self, request, monkeypatch, name, n):
        spec = request.getfixturevalue(name)
        m = spec.j0 + (3 if n == 3 else 4)
        size = spec.delta_size(m)
        rng = np.random.default_rng(n)
        data = special_grid(rng, (size,) * n)
        batch = special_grid(rng, (2,) + (size,) * n)
        before = data.tobytes(), batch.tobytes()
        seen, sweep = [], testfunctions._sweep

        def spy(*args, **kwargs):
            seen.append(args[1].copy())  # the drawn coefficients, before the synthesis
            return sweep(*args, **kwargs)

        monkeypatch.setattr(testfunctions, "_sweep", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = hyper_forward(spec, n, data)
            assert_same_bits_but_nan_sign(
                _kept_grid(u)[1], reshape_route(reference_analyze_array, spec, data, n, m) + 0.0)
            for x in (u, u.with_values(special_operand(rng, u.num_entries, None))):
                assert_same_bits_but_nan_sign(hyper_inverse(spec, x), reshape_route(
                    reference_synthesize_array, spec, _to_multiscale_array(spec, x), n, m))
            assert_same_bits_but_nan_sign(
                _analyze_grids(spec, batch, n, m),
                reshape_route(reference_analyze_array, spec, batch, n, m))
            for a in (special_grid(rng, (size, 3)), special_grid(rng, (3, size)).T):
                assert_same_bits_but_nan_sign(_analyze_array(spec, a, m),
                                              reference_analyze_array(spec, a, m))
                assert_same_bits_but_nan_sign(_synthesize_array(spec, a, m),
                                              reference_synthesize_array(spec, a, m))
            sampled = sample_function("random_decay", {"seed": n}, n, m)
        (drawn,) = seen
        assert_same_bits_but_nan_sign(
            sampled, reshape_route(reference_synthesize_array, make_haar_basis(0), drawn, n, m))
        assert (data.tobytes(), batch.tobytes()) == before

    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    def test_dyadic_grid_values_match_two_branches(self, request, name):
        spec = request.getfixturevalue(name)
        for j in range(spec.j0, 6):
            for kind, width in (("scaling", spec.delta_size(j)), ("wavelet", spec.nabla_size(j))):
                for k in range(width):
                    idx = LevelIndex(j, k, kind)
                    assert (evaluate_on_dyadic_grid(spec, idx, 8).tobytes()
                            == reference_evaluate_on_dyadic_grid(spec, idx, 8).tobytes())


def kept_grid_vectors(spec, n, rng):
    """Vectors that keep their grid, holding +-0.0, +-inf and nan: the
    analysis of special data, a special grid taken as it is, and the
    inverse change of basis of the first's isotropic vector; then the
    isotropic vector of the first and a special grid taken as it is."""
    m = spec.j0 + 3
    shape = (spec.delta_size(m),) * n
    with np.errstate(invalid="ignore", over="ignore"):
        u = hyper_forward(spec, n, special_operand(rng, shape[0] ** n, None).reshape(shape))
        v = iso_from_hyper(spec, u)
        return [u, _from_multiscale_array(spec, special_grid(rng, shape), n, m),
                hyper_from_iso(spec, v),
                v, _from_multiscale_array(spec, special_grid(rng, shape), n, m, ISOTROPIC)]


def special_grid(rng, shape):
    return special_operand(rng, math.prod(shape), None).reshape(shape)


def reference_iso_cells(spec, grid, n, mmax):
    """The entries of an isotropic grid as ``iso_from_hyper`` extracted them
    at once, before isotropic vectors kept their grid: the nonzero cells of
    each block in iso order, in C order within a block."""
    blocks, parts = [], []
    for (m, e), block in _blocks(spec, grid, n, mmax, ISOTROPIC):
        blocks.append((m, e))
        parts.append(_nonzero_cells(block))
    sizes = [values.size for values, _ in parts]
    levels = np.repeat(np.array([m for m, _ in blocks], dtype=np.int64), sizes)
    etypes = np.repeat(np.array([e for _, e in blocks], dtype=np.int8), sizes, axis=0)
    values, positions = (np.concatenate(col) for col in zip(*parts))
    return {"levels": levels, "etypes": etypes, "positions": positions, "values": values}


@pytest.fixture
def scatters(monkeypatch):
    """The number of calls to ``tensorbasis._block_table``, one per scatter
    of entries into a grid, and to ``tensorbasis._nonzero_cells`` made
    during the test, by name."""
    calls = {"_block_table": 0, "_nonzero_cells": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(tensorbasis, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(tensorbasis, name, counted)
    return calls


def twin(x):
    """``x`` rebuilt from its index columns: a vector that keeps no grid."""
    return CoeffVector.from_index_columns(x.system, x.n, x.p_norm, x.max_level, x.basis,
                                          x.index_columns(), x.values)


class TestKeptGrid:
    """A vector made from a grid keeps it, in both systems: its grid,
    inverse and change of basis are those of the same vector built from
    index arrays, bit for bit, and it builds its index arrays only when
    they are read."""

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kept_grid_is_the_scatter(self, request, name, n):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(40 + n)
        for x in kept_grid_vectors(spec, n, rng):
            # Each result is computed before the index arrays are first read.
            grid = _to_multiscale_array(spec, x)
            with np.errstate(invalid="ignore", over="ignore"):
                if x.system == HYPERBOLIC:
                    results = hyper_inverse(spec, x), iso_from_hyper(spec, x)
                else:
                    results = hyper_from_iso(spec, x), None
            assert not {"levels", "positions", "values"} & set(vars(x))
            rebuilt = twin(x)
            assert grid.tobytes() == _to_multiscale_array(spec, rebuilt).tobytes()
            assert not np.signbit(grid[grid == 0]).any()
            with np.errstate(invalid="ignore", over="ignore"):
                if x.system == HYPERBOLIC:
                    assert results[0].tobytes() == hyper_inverse(spec, rebuilt).tobytes()
                    same_bits(results[1], iso_from_hyper(spec, rebuilt))
                else:
                    same_bits(results[0], hyper_from_iso(spec, rebuilt))
                    assert (iso_synthesize(spec, x).tobytes()
                            == iso_synthesize(spec, rebuilt).tobytes())

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_iso_fields_match_eager_extraction(self, request, name, n):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(50 + n)
        for v in kept_grid_vectors(spec, n, rng)[3:]:
            want = reference_iso_cells(spec, _to_multiscale_array(spec, v), n, v.max_level)
            assert v.num_entries == want["values"].size
            for name_, a in want.items():
                got = getattr(v, name_)
                assert got.dtype == a.dtype and got.shape == a.shape
                assert got.tobytes() == a.tobytes() and not got.flags.writeable

    def test_first_read_of_etypes(self, haar, scatters):
        u = hyper_forward(haar, 2, np.random.default_rng(8).standard_normal((16, 16)))
        v = iso_from_hyper(haar, u)
        assert u.etypes is None and not {"levels", "positions", "values"} & set(vars(u))
        assert scatters == {"_block_table": 0, "_nonzero_cells": 0}
        etypes = v.etypes
        # One extraction per isotropic block: the coarse one and 3 types on levels 1..4.
        assert scatters == {"_block_table": 0, "_nonzero_cells": 1 + 3 * 4}
        assert {"levels", "etypes", "positions", "values"} <= set(vars(v))
        assert etypes.dtype == np.int8 and etypes.shape == (v.num_entries, 2)
        assert CoeffVector.etypes is None

    def test_round_trip_builds_no_index_arrays(self, haar, scatters):
        data = np.random.default_rng(3).standard_normal((16,) * 3)
        u = hyper_forward(haar, 3, data)
        hyper_inverse(haar, u)
        back = hyper_from_iso(haar, iso_from_hyper(haar, u))
        assert u.num_entries == np.count_nonzero(_to_multiscale_array(haar, u))
        assert back.num_entries == u.num_entries
        assert scatters == {"_block_table": 0, "_nonzero_cells": 0}
        assert not {"levels", "positions", "values"} & set(vars(u))
        # One extraction per hyperbolic block: levels 0..4 on each of 3 axes.
        assert len(u.values) == u.num_entries and scatters["_nonzero_cells"] == 5 ** 3
        assert u.levels.shape == u.positions.shape == (u.num_entries, 3)
        assert scatters["_nonzero_cells"] == 5 ** 3

    def test_grid_is_a_writable_copy_of_a_read_only_one(self, haar):
        u = hyper_forward(haar, 2, np.arange(64.0).reshape(8, 8))
        for x in (u, iso_from_hyper(haar, u)):
            grid = _to_multiscale_array(haar, x)
            want = grid.copy()
            grid[...] = np.nan
            assert _to_multiscale_array(haar, x).tobytes() == want.tobytes()
            assert not x._kept[1].flags.writeable
            assert not (x.levels.flags.writeable or x.positions.flags.writeable
                        or x.values.flags.writeable)

    def test_other_spec_object_scatters(self, haar, scatters):
        u = hyper_forward(haar, 2, np.random.default_rng(5).standard_normal((8, 8)))
        twin_spec = make_haar_basis(0)
        assert twin_spec.name == haar.name and twin_spec is not haar
        for i, x in enumerate((u, iso_from_hyper(haar, u)), start=1):
            grid = _to_multiscale_array(haar, x)
            assert scatters["_block_table"] == i - 1
            assert _to_multiscale_array(twin_spec, x).tobytes() == grid.tobytes()
            assert scatters["_block_table"] == i

    def test_derived_vectors_drop_the_grid(self, haar, scatters):
        u = hyper_forward(haar, 2, np.random.default_rng(6).standard_normal((8, 8)))
        v = iso_from_hyper(haar, u)
        sobolev_norm_hyper(u, 0.5), sobolev_norm_iso(v, 0.5)
        assert "_block_norms" in vars(u) and "_block_norms" in vars(v)
        derived = [d for x in (u, v) for d in (replace(x), x.with_values(x.values),
                                               rescale(x, 1.0), x.canonical_order())]
        for i, d in enumerate(derived, start=1):
            _to_multiscale_array(haar, d)
            assert scatters["_block_table"] == i
            assert not {"_kept", "_block_norms"} & set(vars(d))


def kept_vectors_and_twins(spec, n, scatters):
    """Vectors that keep their grid, of both systems and with special values,
    and their twins built from index columns.  The twins are those of equal
    vectors made apart, so the kept ones have built nothing; the call resets
    the ``scatters`` counts."""
    def vectors():
        rng = np.random.default_rng(60 + n)
        size = spec.delta_size(spec.j0 + 3)
        u = hyper_forward(spec, n, rng.standard_normal((size,) * n))
        return [*kept_grid_vectors(spec, n, rng), u, iso_from_hyper(spec, u)]

    with np.errstate(invalid="ignore", over="ignore"):
        xs, twins = vectors(), [twin(x) for x in vectors()]
    scatters.update({"_block_table": 0, "_nonzero_cells": 0})
    return xs, twins


NORM_EXPONENTS = list(itertools.product([0.5, 1.0, 2.0, np.inf], [0.5, 2.0, np.inf]))
NORM_WEIGHTS = [-0.25, 0.0, 0.3]


def assert_kept_norms_match_twins(spec, n, scatters, system, norm, reference):
    """``norm(x, p, tau, q, s)`` of each kept vector of ``system`` equals that
    of its twin and the reference, NaN for NaN, and reads no index array."""
    xs, twins = kept_vectors_and_twins(spec, n, scatters)
    pairs = [(x, y) for x, y in zip(xs, twins) if x.system == system]
    with np.errstate(invalid="ignore", over="ignore"):
        for (p, tau), q, s in itertools.product(NORM_EXPONENTS, NORM_WEIGHTS, NORM_WEIGHTS):
            for x, y in pairs:
                got = norm(x, p, tau, q, s)
                assert same_float(got, norm(y, p, tau, q, s))
                assert same_float(got, reference(y, p, tau, q, s))
    assert scatters == {"_block_table": 0, "_nonzero_cells": 0}
    for x, _ in pairs:
        assert not {"levels", "positions", "values"} & set(vars(x))


def same_float(a, b):
    """Equal floats, or both NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


class TestNormSweepBuildsNothing:
    """The norm path of ``norm_sweep``, one vector at n = 2, m = 6, runs on
    the kept grids: no scatter, no index array, and one binning per system
    for its three Sobolev norms."""

    def test_norm_sweep_sequence(self, haar, scatters, monkeypatch):
        calls = []
        monkeypatch.setattr(seqnorms, "_block_norm",
                            lambda *a, _f=seqnorms._block_norm: calls.append(a[-1]) or _f(*a))
        u = hyper_forward(haar, 2, np.random.default_rng(10).standard_normal((64, 64)))
        v = iso_from_hyper(haar, u)
        norms = [(sobolev_norm_hyper(u, s), sobolev_norm_iso(v, s)) for s in (-0.3, 0.0, 0.3)]
        assert calls == [2.0, 2.0]
        ratios = check_embedding_chain(haar, u, 0.0, 0.25)
        assert scatters == {"_block_table": 0, "_nonzero_cells": 0}
        # The same figures as the vectors rebuilt from their entries.
        hyper, iso = twin(u), twin(v)
        assert norms == [(sobolev_norm_hyper(hyper, s), sobolev_norm_iso(iso, s))
                         for s in (-0.3, 0.0, 0.3)]
        assert ratios == check_embedding_chain(haar, hyper, 0.0, 0.25)


@pytest.mark.parametrize("name, emitted", [("haar", True), ("scaled", False), ("lifted", False)])
def test_lemma4_p2_unit_only_for_an_orthonormal_basis(request, name, emitted):
    """|T_m|_2 = 1 is checked only where T_m and its dual are one matrix."""
    spec = request.getfixturevalue(name)
    args = SimpleNamespace(m_max=spec.j0 + 4, ps=[2.0], seed=0, n=2)
    rows = verify.SUITES["lemma4"](spec, args)
    assert any(row[0] == "lemma4_p2_unit" for row in rows) is emitted
    assert [row[0] for row in rows].count("lemma4_bounded") == 1


def reference_nonzero_cells(block):
    """The np.nonzero route: the values of the nonzero cells, then their
    index arrays stacked into (N, n) positions."""
    idx = np.nonzero(block)
    return np.ascontiguousarray(block[idx]), np.stack(idx, axis=1).astype(np.int64)


def special_blocks(rng, n):
    """n-D grids of several shapes and densities holding -0.0 and NaN, all
    zero grids of both signs, and strided views such as iso blocks are."""
    for shape in ((17,) * n, (1,) * n, tuple(range(3, 3 + n))):
        for zeros in (0.0, 0.3, 0.9):
            block = rng.standard_normal(shape)
            block[rng.random(shape) < zeros] = 0.0
            block[rng.random(shape) < 0.1] = -0.0
            block[rng.random(shape) < 0.05] = np.nan
            yield block
        yield np.zeros(shape)
        yield np.full(shape, -0.0)
    big = rng.standard_normal((9,) * n)
    big[rng.random(big.shape) < 0.5] = 0.0
    yield big[(slice(1, None, 2),) * n]


class TestNonzeroCellsBitwise:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cells_match_nonzero_route(self, n):
        rng = np.random.default_rng(40 + n)
        for block in special_blocks(rng, n):
            got, want = _nonzero_cells(block), reference_nonzero_cells(block)
            assert len(got) == len(want) == 2
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()


class TestIsoSynthesisInputOrder:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shuffled_entries_synthesise_to_same_bytes(self, haar, haar_j2, n):
        rng = np.random.default_rng(20 + n)
        for spec in (haar, haar_j2):
            u = random_hyper(spec, rng, n, spec.j0 + 3)
            v = iso_from_hyper(spec, u)
            perm = rng.permutation(v.num_entries)
            shuffled = replace(v, levels=v.levels[perm], etypes=v.etypes[perm],
                               positions=v.positions[perm], values=v.values[perm])
            assert iso_synthesize(spec, shuffled).tobytes() == iso_synthesize(spec, v).tobytes()

    def test_first_bad_block_in_level_type_order_is_reported(self, haar):
        # The level-3 entry comes first in the input, the level-1 block
        # first in (level, type) order; both positions are out of range.
        v = make_iso({(3, (0, 1), (9, 0)): 1.0, (1, (1, 1), (5, 0)): 2.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=r"^position \(5, 0\) out of range "
                           r"for level 1 type \(1, 1\) block of shape \(1, 1\)$"):
            iso_synthesize(haar, v)
        v = make_iso({(3, (0, 1), (0, 0)): 1.0, (2, (0, 0), (0, 0)): 2.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=r"^no level-2 block of type \(0, 0\)"):
            iso_synthesize(haar, v)

    @pytest.mark.parametrize("j0", [0, 2])
    def test_typed_entry_of_a_coarsest_level_vector_has_no_block(self, j0):
        # Truncated at j0, the vector has the coarse block only: its block
        # keys hold no type 1, yet a type-1 entry must find no block.
        spec = make_haar_basis(j0)
        for e in [(1, 0), (0, 1), (1, 1)]:
            v = make_iso({(j0, e, (0, 0)): 1.0}, 2, j0)
            for fn in (iso_synthesize, hyper_from_iso):
                with pytest.raises(DimensionMismatch, match=rf"^no level-{j0} block of type "
                                   rf"\({e[0]}, {e[1]}\)"):
                    fn(spec, v)


class TestHyperbolicRangeErrors:
    """A hyperbolic scatter reports, like an isotropic one, the first bad
    entry in block order, and a range error before a repeated index."""

    def test_first_bad_block_in_level_order_is_reported(self, haar):
        # The level-(2, 0) entry comes first in the input, the level-(1, 1)
        # block first in level order; both positions are out of range.
        u = make_hyper({((2, 0), (0, 4)): 1.0, ((1, 1), (5, 0)): 2.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=r"^position \(5, 0\) out of range "
                           r"for level \(1, 1\) block of shape \(1, 1\)$"):
            hyper_inverse(haar, u)

    def test_level_below_coarsest_keeps_its_message(self, haar_j2):
        # The level-(3, 3) position is out of range too, in a later block.
        u = make_hyper({((3, 3), (9, 0)): 1.0, ((2, 1), (0, 0)): 2.0}, 2, 3)
        for fn in (hyper_inverse, iso_from_hyper):
            with pytest.raises(DimensionMismatch, match=r"^index level below coarsest level 2$"):
                fn(haar_j2, u)

    @pytest.mark.parametrize("level", [-1, -2, -2 ** 63])
    def test_negative_level_has_no_block(self, haar, level):
        # Read as a digit of the block code, -2 would alias level (2, 3).
        u = make_hyper({((3, level), (0, 0)): 1.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=r"^index level below coarsest level 0$"):
            hyper_inverse(haar, u)
        v = make_iso({(level, (0, 1), (0, 0)): 1.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=rf"^no level-{level} block of type \(0, 1\)"):
            iso_synthesize(haar, v)

    @pytest.mark.parametrize("fn", [hyper_inverse, iso_from_hyper])
    def test_range_error_comes_before_repeated_index(self, haar, fn):
        u = make_hyper({((1, 1), (0, 0)): 1.0, ((0, 2), (0, 9)): 2.0}, 2, 2)
        u = replace(u, levels=u.levels[[0, 1, 0]], positions=u.positions[[0, 1, 0]],
                    values=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch, match=r"^position \(0, 9\) out of range "
                           r"for level \(0, 2\) block of shape \(1, 2\)$"):
            fn(haar, u)
        with pytest.raises(DimensionMismatch, match="^duplicate coefficient indices$"):
            fn(haar, replace(u, positions=np.zeros((3, 2), dtype=np.int64)))


def reference_sort_keys(cv):
    """``np.lexsort`` keys of the index order, least significant first."""
    keys = [cv.positions[:, i] for i in range(cv.n - 1, -1, -1)]
    if cv.system == "hyperbolic":
        keys += [cv.levels[:, i] for i in range(cv.n - 1, -1, -1)]
    else:
        keys += [cv.etypes[:, i] for i in range(cv.n - 1, -1, -1)]
        keys += [cv.levels]
    return keys


def reference_save_coeffs(cv, path):
    """One formatted line per entry, in the order of the lexsort keys."""
    order = np.lexsort(reference_sort_keys(cv))
    lines = [f"hyperwave-coeffs v1 {cv.system} n={cv.n} p={cv.p_norm:.17g} "
             f"basis={cv.basis} jmax={cv.max_level}"]
    for i in order:
        pos = " ".join(str(int(x)) for x in cv.positions[i])
        if cv.system == "hyperbolic":
            lvl = " ".join(str(int(x)) for x in cv.levels[i])
        else:
            et = " ".join(str(int(x)) for x in cv.etypes[i])
            lvl = f"{int(cv.levels[i])} {et}"
        lines.append(f"{lvl} {pos} {float(cv.values[i]):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_load_coeffs(path):
    """Per-line parse of a well-formed coefficient file."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    head = lines[0].split()
    system = head[2]
    fields = dict(part.split("=", 1) for part in head[3:])
    n, p, basis, mmax = int(fields["n"]), float(fields["p"]), fields["basis"], int(fields["jmax"])
    levels, etypes, positions, values = [], [], [], []
    for ln in lines[1:]:
        parts = ln.split()
        ints = [int(x) for x in parts[:-1]]
        values.append(float(parts[-1]))
        if system == "hyperbolic":
            levels.append(ints[:n])
        else:
            levels.append(ints[0])
            etypes.append(ints[1:n + 1])
        positions.append(ints[-n:])
    if not values:
        if system == "hyperbolic":
            return CoeffVector(system, n, p, mmax, basis, np.zeros((0, n), int),
                               np.zeros((0, n), int), np.zeros(0))
        return CoeffVector(system, n, p, mmax, basis, np.zeros(0, int), np.zeros((0, n), int),
                           np.zeros(0), etypes=np.zeros((0, n), np.int8))
    return CoeffVector(
        system, n, p, mmax, basis,
        np.asarray(levels, dtype=np.int64), np.asarray(positions, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        etypes=np.asarray(etypes, dtype=np.int8) if system == "isotropic" else None,
    )


def reference_save_array(arr, path):
    arr = np.asarray(arr, dtype=np.float64)
    level = int(np.log2(arr.shape[0])) if arr.shape[0] > 1 else 0
    lines = [f"hyperwave-array v1 n={arr.ndim} m={level}"]
    lines.extend(f"{v:.17g}" for v in arr.reshape(-1))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_load_array(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    n = int(dict(part.split("=", 1) for part in lines[0].split()[2:])["n"])
    values = np.array([float(x) for x in lines[1:]])
    size = round(len(values) ** (1.0 / n))
    return values.reshape((size,) * n)


SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf, 1.0 / 3.0])


def with_special_values(cv, rng):
    """The vector with some values replaced by signed zero, the smallest
    subnormal, +-1e308, nan, +-inf and 1/3."""
    values = cv.values.copy()
    hit = rng.choice(cv.num_entries, size=min(cv.num_entries, 3 * SPECIAL_VALUES.size),
                     replace=False)
    values[hit] = np.resize(SPECIAL_VALUES, hit.size)
    return cv.with_values(values)


def empty_like(cv):
    keep = slice(0, 0)
    et = None if cv.etypes is None else cv.etypes[keep]
    return CoeffVector(cv.system, cv.n, cv.p_norm, cv.max_level, cv.basis,
                       cv.levels[keep], cv.positions[keep], cv.values[keep], etypes=et)


def coefficient_vectors(spec):
    """Dense and sparse vectors of both systems for n = 1..3, with special
    values, a non-L2 exponent, and their empty counterparts."""
    rng = np.random.default_rng(21)
    out = []
    for n, m in ((1, 7), (2, 4), (3, 2)):
        dense = with_special_values(random_hyper(spec, rng, n, m), rng)
        sparse = random_sparse_hyper(spec, rng, n, m + 1, 20)
        iso = iso_from_hyper(spec, random_hyper(spec, rng, n, m))
        for cv in (dense, sparse, rescale(sparse, 0.7), iso, with_special_values(iso, rng)):
            out += [cv, empty_like(cv)]
    return out


@pytest.mark.filterwarnings("error")
class TestTableCodecBitwise:
    def test_coefficient_files_byte_identical(self, haar, tmp_path):
        for i, cv in enumerate(coefficient_vectors(haar)):
            new, ref = tmp_path / f"{i}.coeffs", tmp_path / f"{i}.ref.coeffs"
            save_coeffs(cv, new)
            reference_save_coeffs(cv, ref)
            assert new.read_bytes() == ref.read_bytes()

    def test_loaded_arrays_bitwise_equal(self, haar, tmp_path):
        for i, cv in enumerate(coefficient_vectors(haar)):
            path = tmp_path / f"{i}.coeffs"
            reference_save_coeffs(cv, path)
            got, want = load_coeffs(path), reference_load_coeffs(path)
            same_bits(got, want)
            assert got.levels.dtype == got.positions.dtype == np.int64
            if got.etypes is not None:
                assert got.etypes.dtype == np.int8

    def test_index_columns_give_the_reference_order(self, haar):
        rng = np.random.default_rng(8)
        for cv in coefficient_vectors(haar):
            keys = cv.index_columns().T[::-1]
            ref = reference_sort_keys(cv)
            assert all(np.array_equal(a, b) for a, b in zip(keys, ref))
            w = rng.integers(0, 3, cv.num_entries).astype(float)
            assert np.array_equal(np.lexsort((*keys, -w)), np.lexsort(ref + [-w]))

    def test_tables_of_more_than_one_chunk(self, haar, tmp_path):
        """Two whole write chunks and three rows more, in both file kinds."""
        rng = np.random.default_rng(11)
        rows = 2 * WRITE_CHUNK_ROWS + 3
        cv = random_sparse_hyper(haar, rng, 2, 7, rows)
        save_coeffs(cv, tmp_path / "new.coeffs")
        reference_save_coeffs(cv, tmp_path / "ref.coeffs")
        assert (tmp_path / "new.coeffs").read_bytes() == (tmp_path / "ref.coeffs").read_bytes()
        arr = rng.standard_normal(rows)
        save_array(arr, tmp_path / "new.arr")
        reference_save_array(arr, tmp_path / "ref.arr")
        assert (tmp_path / "new.arr").read_bytes() == (tmp_path / "ref.arr").read_bytes()

    def test_array_files_byte_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        for n, size in ((1, 64), (1, 1), (2, 16), (3, 4)):
            arr = rng.standard_normal((size,) * n)
            arr.flat[:SPECIAL_VALUES.size] = SPECIAL_VALUES[:arr.size]
            new, ref = tmp_path / f"{n}-{size}.arr", tmp_path / f"{n}-{size}.ref.arr"
            save_array(arr, new)
            reference_save_array(arr, ref)
            assert new.read_bytes() == ref.read_bytes()
            got, want = load_array(ref), reference_load_array(ref)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def reference_build_transform(spec, m):
    """T_m and Tdual_m as the product of the per-level factors
    diag([M_l0, M_l1], I), finest factor leftmost."""
    size = spec.delta_size(m)
    t = sp.identity(size, format="csr")
    t_dual = sp.identity(size, format="csr")
    for level in range(spec.j0 + 1, m + 1):
        quad = spec.masks(level)
        pad = size - spec.delta_size(level)
        g = sp.hstack([csr(quad.m0), csr(quad.m1)], format="csr")
        g_dual = sp.hstack([csr(quad.mt0), csr(quad.mt1)], format="csr")
        if pad:
            eye = sp.identity(pad, format="csr")
            g = sp.block_diag([g, eye], format="csr")
            g_dual = sp.block_diag([g_dual, eye], format="csr")
        t = g @ t
        t_dual = g_dual @ t_dual
    return t, t_dual


def assert_same_csr(got, want):
    """A ``BandMatrix`` holds the entries of a scipy matrix, bit for bit."""
    got, want = csr(got), sp.csr_matrix(want)
    got.sort_indices()
    want.sort_indices()
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestBuildTransformBitwise:
    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    def test_transforms_match(self, request, name):
        spec = request.getfixturevalue(name)
        for m in range(spec.j0, min(spec.max_level, 12) + 1):
            for got, want in zip(build_transform(spec, m), reference_build_transform(spec, m)):
                assert_same_csr(got, want)

    def test_dual_shared_only_when_masks_equal(self, haar, lifted):
        for m in range(1, 9):
            t, t_dual = build_transform(haar, m)
            assert t_dual is t
            t, t_dual = build_transform(lifted, m)
            assert t_dual is not t

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    def test_build_order_does_not_matter(self, name):
        make = lifted_spec if name == "lifted" else make_haar_basis
        up, down = make(), make()
        pairs_up = [build_transform(up, m) for m in (5, 8)]
        pairs_down = [build_transform(down, m) for m in (8, 5)][::-1]
        for got, want in zip(pairs_up, pairs_down):
            for a, b in zip(got, want):
                assert_same_csr(a, csr(b))


def reference_check_transform_norms(spec, p, m_max, trials=20, seed=0):
    """Rows of check_transform_norms with all four operators estimated."""
    rows = []
    for m in range(spec.j0, m_max + 1):
        t, t_dual = build_transform(spec, m)
        scale = 2.0 ** (-(m - spec.j0) * (1.0 / p - 0.5))
        tn, tdn = (_p_norm_estimate(a, p, trials, seed) for a in (t, t_dual))
        ttn, tdtn = (_p_norm_estimate(a.T, p, trials, seed) for a in (t, t_dual))
        rows.append(TransformNormRow(m, tn, tdn, ttn, tdtn, tn * scale, tdn * scale))
    return rows


class TestTransformNormsOfSharedDual:
    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("p", [0.6, 1.0, 1.5, 2.0])
    def test_rows_match_four_estimates(self, request, name, p):
        spec = request.getfixturevalue(name)
        got = check_transform_norms(spec, p, 8, trials=5, seed=3).rows
        assert list(got) == reference_check_transform_norms(spec, p, 8, trials=5, seed=3)


def masks_of(request, name):
    spec = request.getfixturevalue(name)
    return [b for j in range(spec.j0 + 1, min(spec.max_level, 10) + 1) for b in spec.masks(j)]


def special_operand(rng, length, width):
    """Normal deviates with about a third of the entries replaced by +-0.0
    and a few by +-inf and nan; 1-D when ``width`` is None."""
    x = rng.standard_normal((length,) if width is None else (length, width))
    flat = x.reshape(-1)
    flat[rng.random(flat.size) < 0.3] = 0.0
    flat[rng.random(flat.size) < 0.15] = -0.0
    picks = rng.random(flat.size) < 0.02
    flat[picks] = rng.choice([np.inf, -np.inf, np.nan], picks.sum())
    return x


def assert_same_bits_but_nan_sign(got, want):
    """Equal bits, except that a NaN may carry another sign or payload.

    Where a NaN of the operand meets a NaN made by inf - inf or 0 * inf in
    one sum, x86 keeps the NaN of the first operand of the addition, and
    numpy's SIMD loops and scipy's kernels are compiled with the operands
    in different orders: the two results are then NaNs of opposite sign.
    No output of the library shows the sign of a NaN."""
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("error")
class TestMaskProductsBitwise:
    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    def test_products_match_scipy(self, request, name):
        rng = np.random.default_rng(3)
        masks = masks_of(request, name)
        assert max(len(np.unique(r - 2 * c)) for r, c, _ in (m.entries() for m in masks)) \
            == (6 if name == "lifted" else 2)
        for mask in masks:
            for width in (None, 1, 2, 7, 64, 4096):
                if width is not None and mask.rows * width > 1 << 20:
                    continue
                for x, got, want in (
                    (x := special_operand(rng, mask.cols, width), mask.apply(x), csr(mask) @ x),
                    (x := special_operand(rng, mask.rows, width), mask.apply_transpose(x),
                     csr(mask).T @ x),
                ):
                    assert_same_bits_but_nan_sign(got, want)

    def test_entries_no_run_reaches(self, request):
        """Output entries with no term are +0.0, in both directions."""
        rng = np.random.default_rng(4)
        for mask in masks_of(request, "lifted")[12:]:
            dense = mask.to_dense()
            dense[5, :] = 0.0
            dense[:, 2] = 0.0
            holed = BandMatrix.from_dense(dense)
            for width in (None, 3):
                for x, got, want in (
                    (x := special_operand(rng, holed.cols, width), holed.apply(x),
                     csr(holed) @ x),
                    (x := special_operand(rng, holed.rows, width), holed.apply_transpose(x),
                     csr(holed).T @ x),
                ):
                    assert_same_bits_but_nan_sign(got, want)
                assert holed.apply(np.full(holed.cols, np.nan))[5] == 0.0
                assert holed.apply_transpose(np.full(holed.rows, np.nan))[2] == 0.0

    def test_negative_zero_operands(self, request):
        """0.0 + (-0.0) is +0.0: an all -0.0 operand gives +0.0 entries."""
        for mask in masks_of(request, "lifted"):
            for x, got, want in (
                (x := np.full(mask.cols, -0.0), mask.apply(x), csr(mask) @ x),
                (x := np.full((mask.rows, 3), -0.0), mask.apply_transpose(x), csr(mask).T @ x),
            ):
                assert got.tobytes() == want.tobytes()
                assert not np.signbit(got).any()


def reference_defect(a, b, eye=True):
    """The scipy value of max |A^T B - I| (of max |A^T B| without ``eye``)
    as the checks computed it."""
    product = csr(a).T @ csr(b)
    if eye:
        product = product - sp.identity(product.shape[0], format="csr")
    return float(abs(product).max()) if product.nnz else 0.0


def reference_operator_p_norm_estimate(a, p, trials, seed):
    """The p-norm estimate of a p outside {1, 2, inf} with one scipy
    product per trial."""
    best = float((a.column_abs_pow_sums(p).max()) ** (1.0 / p)) if a.cols else 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        u = rng.standard_normal(a.cols)
        denom = float(np.sum(np.abs(u) ** p) ** (1.0 / p))
        if denom != 0.0:
            best = max(best, float(np.sum(np.abs(csr(a) @ u) ** p) ** (1.0 / p)) / denom)
    return best


def holed_matrix(rng, rows, cols):
    """A random sparse matrix with an all-zero row and column, explicit
    +-0.0 entries and a few +-inf and nan entries."""
    dense = special_operand(rng, rows, cols)
    dense[rng.random((rows, cols)) < 0.5] = np.nan  # marks the positions left empty
    dense[rows // 2:rows // 2 + 1, :] = dense[:, cols // 3:cols // 3 + 1] = np.nan
    r, c = np.nonzero(~np.isnan(dense))
    values = dense[r, c]
    values[rng.random(values.size) < 0.02] = np.nan
    return BandMatrix(rows, cols, r, c, values)


@pytest.mark.filterwarnings("error")
class TestSparseProductsBitwise:
    """``BandMatrix.dot``, ``matmul`` and ``product_defect``, and the checks
    built on them, against the scipy CSR products they replaced."""

    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    def test_defect_and_gram_match_scipy(self, request, name):
        spec = request.getfixturevalue(name)
        for m in range(spec.j0, min(spec.max_level, 12) + 1):
            t, t_dual = build_transform(spec, m)
            assert verify.check_biorthogonality(spec, m) == reference_defect(t_dual, t)
            if m <= 10:
                gram = (csr(t).T @ csr(t)).toarray()
                assert t.matmul(t, transpose=True).to_dense().tobytes() == gram.tobytes()
                ev = np.linalg.eigvalsh(gram)
                assert verify.check_riesz(spec, m) == (ev[-1] / ev[0] if ev[0] > 0 else np.inf)
        for quad in (spec.masks(j) for j in range(spec.j0 + 1, min(spec.max_level, 8) + 1)):
            for a, b in itertools.product(quad, repeat=2):
                for eye in (True, False):
                    if eye and a.cols != b.cols:
                        continue
                    assert a.product_defect(b, eye=eye) == \
                        reference_defect(a, b, eye)

    def test_products_of_special_values_match_scipy(self):
        rng = np.random.default_rng(11)
        for rows, inner, cols in ((7, 9, 5), (40, 30, 50), (1, 6, 1), (0, 4, 3), (3, 0, 2)):
            a, b = holed_matrix(rng, inner, rows), holed_matrix(rng, inner, cols)
            got, want = a.matmul(b, transpose=True), sp.csr_matrix(csr(a).T @ csr(b))
            want.sort_indices()
            assert_same_csr_but_nan_sign(got, want)
            got = a.T.matmul(b).to_dense()
            assert_same_bits_but_nan_sign(got, (csr(a).T @ csr(b)).toarray())
            defect = a.product_defect(b, eye=False)
            assert np.isnan(defect) if np.isnan(want.data).any() else \
                defect == reference_defect(a, b, eye=False)

    def test_long_rows_match_scipy(self, monkeypatch):
        """Rows of more terms than a block holds are added chunk by chunk."""
        monkeypatch.setattr(bandmatrix, "PRODUCT_TERMS", 64)
        rng = np.random.default_rng(12)
        a, b = holed_matrix(rng, 60, 9), holed_matrix(rng, 60, 40)
        want = sp.csr_matrix(csr(a).T @ csr(b))
        want.sort_indices()
        assert_same_csr_but_nan_sign(a.matmul(b, transpose=True), want)
        assert_same_bits_but_nan_sign(a.matmul(b, transpose=True).to_dense(), want.toarray())
        spec = make_haar_basis(0)
        t, t_dual = build_transform(spec, 8)
        assert verify.check_biorthogonality(spec, 8) == reference_defect(t_dual, t)

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("block", [bandmatrix.PRODUCT_TERMS, 16])
    def test_matvecs_match_scipy(self, request, monkeypatch, name, block):
        monkeypatch.setattr(bandmatrix, "PRODUCT_TERMS", block)
        rng = np.random.default_rng(13)
        spec = request.getfixturevalue(name)
        matrices = [build_transform(spec, m)[1] for m in (spec.j0, 5, 8)]
        matrices += [holed_matrix(rng, 30, 20), BandMatrix(4, 3, [], [], []),
                     BandMatrix(0, 0, [], [], []), BandMatrix(0, 5, [], [], [])]
        for a in matrices:
            for width in (None, 1, 4):
                x = special_operand(rng, a.cols, width)
                assert_same_bits_but_nan_sign(a.dot(x), csr(a) @ x)
                y = special_operand(rng, a.rows, width)
                assert_same_bits_but_nan_sign(a.dot(y, transpose=True), csr(a).T @ y)
            for x, got, want in ((x := np.full(a.cols, -0.0), a.dot(x), csr(a) @ x),
                                 (y := np.full(a.rows, -0.0), a.dot(y, transpose=True),
                                  csr(a).T @ y)):
                assert_same_bits_but_nan_sign(got, want)
                assert not np.signbit(got[~np.isnan(got)]).any()

    def test_row_sums_match_the_transpose_column_sums(self, lifted):
        """The p = inf estimate, one ``np.bincount`` over the rows, holds the
        bits of the column sums of the transpose it replaced."""
        rng = np.random.default_rng(50)
        shapes = ((5, 7), (40, 30), (1, 1), (9, 2), (30, 30))
        matrices = [holed_matrix(rng, rows, cols) for rows, cols in shapes]
        matrices += [t for m in (2, 5, 8) for t in build_transform(lifted, m)]
        matrices += [BandMatrix(0, 3, [], [], []), BandMatrix(3, 0, [], [], [])]
        for a in matrices:
            for b in (a, a.T):
                want = float(b.T.column_abs_pow_sums(1.0).max()) if b.rows else 0.0
                got = verify.operator_p_norm_estimate(b, np.inf)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_batched_trials_match_per_trial_loop(self, lifted):
        for m in (3, 6, 8):
            t, t_dual = build_transform(lifted, m)
            for a in (t, t.T, t_dual, t_dual.T):
                for p, trials, seed in ((1.5, 20, 0), (3.0, 7, 5), (0.5, 3, 2)):
                    assert verify.operator_p_norm_estimate(a, p, trials, seed) == \
                        reference_operator_p_norm_estimate(a, p, trials, seed)


def assert_same_csr_but_nan_sign(got, want):
    """A ``BandMatrix`` holds the entries of a scipy matrix, the sign of a
    NaN aside."""
    r, c, v = got.entries()
    assert got.shape == want.shape
    assert np.array_equal(np.diff(want.indptr), np.bincount(r, minlength=got.rows))
    assert np.array_equal(c, want.indices)
    assert_same_bits_but_nan_sign(v, want.data)


def reference_triples(matrix):
    r, c, v = matrix.entries()
    return zip(r.tolist(), c.tolist(), v.tolist())


def reference_save_mask_file(path, masks):
    lines = []
    for j in sorted(masks):
        for block in masks[j]:
            lines.append(f"{j} {block.rows} {block.cols}")
            for r, c, v in reference_triples(block):
                lines.append(f"{r} {c} {v:.17g}")
            lines.append("#")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_save_matrix_file(path, matrix, level=0):
    lines = [f"{level} {matrix.rows} {matrix.cols}"]
    lines.extend(f"{r} {c} {v:.17g}" for r, c, v in reference_triples(matrix))
    lines.append("#")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_parse_fields(line, kinds, what):
    try:
        return tuple(kind(x) for kind, x in zip(kinds, line.split(), strict=True))
    except (ValueError, OverflowError):
        raise DimensionMismatch(f"malformed {what}: {line!r}") from None


def reference_parse_blocks(path):
    """The (level, matrix) pairs of a mask or matrix file, line by line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    blocks = []
    i = 0
    while i < len(lines):
        level, rows, cols = reference_parse_fields(lines[i], (int, int, int), "block header")
        i += 1
        rr, cc, vv = [], [], []
        while i < len(lines) and lines[i] != "#":
            r, c, v = reference_parse_fields(lines[i], (np.int64, np.int64, float), "triple line")
            rr.append(r)
            cc.append(c)
            vv.append(v)
            i += 1
        if i == len(lines):
            raise DimensionMismatch("unterminated block (missing '#')")
        i += 1
        blocks.append((level, BandMatrix(rows, cols, rr, cc, vv)))
    return blocks


def quads_of(request, name):
    """The masks of ``masks_of`` as a dict of quadruples by level."""
    masks = masks_of(request, name)
    first = 1 if name == "lifted" else request.getfixturevalue(name).j0 + 1
    return {first + i: MaskQuad(*masks[4 * i:4 * i + 4]) for i in range(len(masks) // 4)}


def same_blocks(got, want):
    """Equal levels, shapes and entry bits of two lists of (level, matrix)."""
    assert [(level, m.shape) for level, m in got] == [(level, m.shape) for level, m in want]
    for (_, a), (_, b) in zip(got, want):
        for x, y in zip(a.entries(), b.entries()):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


SPECIAL_BLOCK = BandMatrix(3, 4, [0, 0, 1, 1, 2, 2], [0, 3, 1, 2, 0, 3],
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300])


@pytest.mark.filterwarnings("error")
class TestMaskCodecBitwise:
    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    def test_mask_files(self, request, tmp_path, name):
        quads = quads_of(request, name)
        new, ref = tmp_path / "new.masks", tmp_path / "ref.masks"
        save_mask_file(new, quads)
        reference_save_mask_file(ref, quads)
        assert new.read_bytes() == ref.read_bytes()
        got = load_mask_file(ref)
        same_blocks([(j, b) for j in got for b in got[j]], reference_parse_blocks(ref))

    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted", "special"])
    def test_matrix_files(self, request, tmp_path, name):
        blocks = [SPECIAL_BLOCK] if name == "special" else masks_of(request, name)
        for i, block in enumerate(blocks):
            new, ref = tmp_path / f"{i}.mat", tmp_path / f"{i}.ref.mat"
            save_matrix_file(new, block, level=i)
            reference_save_matrix_file(ref, block, level=i)
            assert new.read_bytes() == ref.read_bytes()
            same_blocks([load_matrix_file(ref)], reference_parse_blocks(ref))


class TestTiledSweep:
    """The full sweep of a grid cut into tiles of a few cells against the
    one-tile route, bit for bit, NaN equal to NaN."""

    @pytest.mark.parametrize("name", ["haar", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("analysis", [True, False])
    def test_matches_one_tile(self, request, monkeypatch, name, n, analysis):
        spec = request.getfixturevalue(name)
        m = spec.j0 + (3 if n == 3 else 5)
        size = spec.delta_size(m)
        grid = special_grid(np.random.default_rng(n), (3,) + (size,) * n)
        assert grid.size <= transform1d.TILE_CELLS
        want = transform1d._sweep(spec, grid.copy(), n, m, analysis)
        # One line per tile, runs of three lines (the last one short), whole planes.
        for cells in (1, 3 * size, size ** 2 + 3):
            monkeypatch.setattr(transform1d, "TILE_CELLS", cells)
            assert_same_bits_but_nan_sign(transform1d._sweep(spec, grid.copy(), n, m, analysis),
                                          want)

    def test_peak_below_two_grids(self, haar):
        """hyper_forward and hyper_inverse of an n = 3, m = 6 grid, 64 tiles,
        each allocate less than two grid sizes, the result included."""
        data = np.random.default_rng(0).standard_normal((haar.delta_size(6),) * 3)
        u = hyper_forward(haar, 3, data)
        for run in (lambda: hyper_forward(haar, 3, data), lambda: hyper_inverse(haar, u)):
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out is not None and peak < 2 * data.nbytes


def tied_vector(spec, rng, system):
    """An n = 2, m = 4 vector in shuffled entry order whose |values| repeat
    across levels and types: +-1, +-0.5, +-0.0 and NaN."""
    u = random_hyper(spec, rng, 2, 4)
    if system == ISOTROPIC:
        u = iso_from_hyper(spec, u)
    values = rng.choice([1.0, -1.0, 0.5, -0.5, 0.0, -0.0, np.nan], u.num_entries)
    rows = rng.permutation(u.num_entries)
    return CoeffVector.from_index_columns(u.system, u.n, 2.0, u.max_level, u.basis,
                                          u.index_columns()[rows], values)


@pytest.fixture
def sorts(monkeypatch):
    """The number of calls to ``np.argsort``, ``np.lexsort`` and ``np.sort``
    made during the test."""
    calls = Counter()
    for name in ("argsort", "lexsort", "sort"):
        def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return calls


class TestIndexOrder:
    """The index order of ``tables`` and the greedy order from one int64
    code per index, against the lexsort of the index columns they replace;
    the columns are given as a sequence, most significant first."""

    def test_lexsort_order_at_m10(self, haar):
        u = random_hyper(haar, np.random.default_rng(1), 2, 10)
        for cv in (u, iso_from_hyper(haar, u)):
            columns = cv.index_columns()
            rows = np.random.default_rng(2).permutation(len(columns))
            # The library's vectors list their entries in index order already.
            assert _index_order(columns.T) == slice(None)
            assert np.array_equal(np.lexsort(columns.T[::-1]), np.arange(len(columns)))
            assert np.array_equal(_index_order(columns[rows].T), np.lexsort(columns[rows].T[::-1]))
            w = 2.0 ** (0.3 * cv.level_linf()) * np.abs(cv.values)
            assert np.array_equal(_greedy_order(cv, w), np.lexsort((*columns.T[::-1], -w)))

    @pytest.mark.parametrize("system", [HYPERBOLIC, ISOTROPIC])
    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_ties_match_lexsort(self, haar, system, q):
        u = tied_vector(haar, np.random.default_rng(3), system)
        w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
        order = np.lexsort((*u.index_columns().T[::-1], -w))
        ns = [0, 1, 7, 40, u.num_entries, u.num_entries + 5]
        got = error_curve(u, q, ns)
        tail = _tail_errors(w[order])
        assert got.errors.keys() == set(ns)
        for n, e in got.errors.items():
            assert np.array_equal(e, tail[min(n, u.num_entries)], equal_nan=True)
        assert got.support == u.index_keys(order)
        assert u.canonical_order().index_columns().tobytes() == \
            u.index_columns()[np.lexsort(u.index_columns().T[::-1])].tobytes()

    def test_rows_in_order_are_not_sorted(self, sorts):
        columns = np.array([[0, 1, 5], [0, 1, 5], [0, 2, -3], [1, 0, 0], [1, 0, 0]])
        for rows in (columns, columns[:0], columns[:1]):
            assert _index_order(rows.T) == slice(None)
        assert not sorts
        with pytest.raises(DimensionMismatch, match="duplicate rows"):
            _index_order(columns.T, unique="rows")
        assert _index_order(np.unique(columns, axis=0).T, unique="rows") == slice(None)

    def test_shuffled_rows_take_the_lexsort(self):
        rng = np.random.default_rng(9)
        columns = rng.integers(-3, 4, (500, 3))
        want = np.lexsort(columns.T[::-1])
        assert np.array_equal(_index_order(columns.T), want)
        with pytest.raises(DimensionMismatch, match="duplicate rows"):
            _index_order(columns.T, unique="rows")

    def test_code_beyond_63_bits_takes_the_lexsort(self, sorts):
        big = np.iinfo(np.int64)
        columns = np.array([[0, big.max, 1], [0, big.min, 1], [0, big.min, 0], [0, 0, 2]])
        assert _row_code(columns.T) is None
        assert np.array_equal(_index_order(columns.T), np.lexsort(columns.T[::-1]))
        # Rows in order are sorted too when their code does not fit.
        in_order = columns[[2, 1, 3, 0]]
        sorts.clear()
        assert np.array_equal(_index_order(in_order.T, unique="rows"), [0, 1, 2, 3])
        assert sorts["lexsort"] == 1
        with pytest.raises(DimensionMismatch, match="duplicate rows"):
            _index_order(in_order[[0, 1, 3, 3]].T, unique="rows")
        assert _row_code(columns[:, ::2].T) is not None
        span = np.array([[0, 0], [0, big.max]])  # a radix of exactly 2^63
        assert _row_code(span.T) is None
        assert np.array_equal(_index_order(span[::-1].T), [1, 0])
        assert _row_code(np.array([[0, 0], [0, big.max - 1]]).T) is not None


class TestBandMatrixOrder:
    """``BandMatrix`` orders its triples and rejects a repeated position
    through ``tables._index_order``, the index order of the coefficient
    vectors."""

    def test_shuffled_triples_give_the_sorted_entries(self):
        rng = np.random.default_rng(31)
        for rows, cols in ((40, 30), (17, 64), (1, 9)):
            a = holed_matrix(rng, rows, cols)
            shuffle = rng.permutation(a.nnz)
            b = BandMatrix(rows, cols, *(x[shuffle] for x in a.entries()))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a.entries(), b.entries()))
            x, y = special_operand(rng, cols, 3), special_operand(rng, rows, None)
            for got, want in ((b.apply(x), a.apply(x)), (b.dot(x), a.dot(x)),
                              (b.apply_transpose(y), a.apply_transpose(y)),
                              (b.dot(y, transpose=True), a.dot(y, transpose=True))):
                assert got.tobytes() == want.tobytes()
            assert_same_bits_but_nan_sign(b.dot(x), csr(a) @ x)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_repeated_position_rejected(self, shuffled):
        r, c = np.array([0, 1, 1, 2]), np.array([3, 0, 0, 1])
        order = [2, 0, 3, 1] if shuffled else slice(None)
        with pytest.raises(DimensionMismatch, match=r"duplicate \(row, col\) positions"):
            BandMatrix(3, 4, r[order], c[order], np.arange(4.0)[order])

    def test_code_beyond_63_bits_takes_the_lexsort(self, sorts):
        big = 2 ** 40
        r, c = np.array([0, big - 1, 5, big - 1]), np.array([big - 1, 0, 7, 3])
        assert _row_code((r, c)) is None
        a = BandMatrix(big, big, r, c, [1.0, 2.0, 3.0, 4.0])
        assert sorts["lexsort"] == 1 and not sorts["argsort"]
        assert a.entries()[0].tolist() == [0, 5, big - 1, big - 1]
        assert a.entries()[1].tolist() == [big - 1, 7, 0, 3]
        assert a.entries()[2].tolist() == [1.0, 3.0, 2.0, 4.0]
        shuffled, in_order = ([*r, 5], [*c, 7]), ([0, 5, 5, big - 1, big - 1], [big - 1, 7, 7, 0, 3])
        for rows, cols in (shuffled, in_order):
            with pytest.raises(DimensionMismatch, match=r"duplicate \(row, col\) positions"):
                BandMatrix(big, big, rows, cols, np.ones(5))


@pytest.fixture
def stacks(monkeypatch, sorts):
    """``sorts``, and the number of calls to ``np.column_stack`` and to
    ``CoeffVector.index_columns``, made during the test."""
    for owner, name in ((np, "column_stack"), (CoeffVector, "index_columns")):
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            sorts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return sorts


class TestIndexColumnsUnstacked:
    """The library orders, checks and writes index columns as 1-D views:
    these paths stack no (N, k) copy of them (``np.column_stack`` or
    ``CoeffVector.index_columns``) and sort no index."""

    def test_save_of_kept_and_loaded_vectors(self, haar, tmp_path, stacks):
        u = random_hyper(haar, np.random.default_rng(40), 3, 3)
        for i, x in enumerate((u, iso_from_hyper(haar, u))):
            stacks.clear()
            save_coeffs(x, tmp_path / f"{i}.coeffs")
            assert not stacks
            loaded = load_coeffs(tmp_path / f"{i}.coeffs")
            stacks.clear()
            save_coeffs(loaded, tmp_path / f"{i}-again.coeffs")
            assert not stacks
            assert ((tmp_path / f"{i}.coeffs").read_bytes()
                    == (tmp_path / f"{i}-again.coeffs").read_bytes())

    def test_support_sorts_only_the_weights(self, haar, stacks):
        """The greedy order needs one stable argsort of the weights; the
        ties take the index order, found without a sort."""
        u = random_hyper(haar, np.random.default_rng(41), 2, 5)
        for x in (u, iso_from_hyper(haar, u)):
            curve = error_curve(x, 0.5, [1, 10, 100])
            stacks.clear()
            assert len(curve.support) == 100
            assert stacks == {"argsort": 1}

    def test_canonical_order_of_a_library_vector(self, haar, stacks):
        u = random_hyper(haar, np.random.default_rng(42), 2, 5)
        for x in (u, iso_from_hyper(haar, u)):
            stacks.clear()
            y = x.canonical_order()
            assert not stacks
            assert all(a.tobytes() == b.tobytes() for a, b in zip(x._columns(), y._columns()))

    def test_band_matrix_from_triples_in_order(self, haar, stacks):
        t, _ = build_transform(haar, 6)
        stacks.clear()
        b = BandMatrix(*t.shape, *t.entries())
        assert not stacks
        assert all(x.tobytes() == y.tobytes() for x, y in zip(t.entries(), b.entries()))


def grid_made_vectors(spec, n, rng):
    """The results of ``hyper_forward``, ``iso_from_hyper`` and
    ``hyper_from_iso``, holding +-0.0, +-inf and NaN, on special data and
    on vectors with entries at the two lowest levels only, so that every
    block above them is empty; then those of all-zero data, with no entry."""
    m = spec.j0 + 3
    size = spec.delta_size(m)
    out = []
    with np.errstate(invalid="ignore", over="ignore"):
        special = special_operand(rng, size ** n, None)
        special[[1, 3, -1]] = np.inf, -np.inf, np.nan
        for data in (special.reshape((size,) * n), np.zeros((size,) * n)):
            u = hyper_forward(spec, n, data)
            v = iso_from_hyper(spec, u)
            out += [u, v, hyper_from_iso(spec, v)]
        for x in out[:2]:
            low = x.levels.reshape(x.num_entries, -1).max(axis=1) <= spec.j0 + 1
            sparse = CoeffVector.from_index_columns(x.system, n, 2.0, m, x.basis,
                                                    x.index_columns()[low], x.values[low])
            out.append(iso_from_hyper(spec, sparse) if x.system == HYPERBOLIC
                       else hyper_from_iso(spec, sparse))
    return out


class TestOneIndexOrder:
    """Every vector the library makes from a grid lists its entries in file
    order, so writing it sorts nothing."""

    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_entries_in_file_order(self, request, name, n):
        spec = request.getfixturevalue(name)
        xs = grid_made_vectors(spec, n, np.random.default_rng(70 + n))
        assert np.isnan(xs[0]._kept[1]).any() and not any(x.num_entries for x in xs[3:6])
        for x in xs[6:]:
            blocks = [block for _, block in _blocks(spec, x._kept[1], n, x.max_level, x.system)]
            assert x.num_entries and not all(block.any() for block in blocks)
        for x in xs:
            code, _, _ = _row_code(x.index_columns().T)
            assert (code[1:] > code[:-1]).all()
            assert len(x.values) == x.num_entries
            # The entries are those of the kept grid, each once.
            grid = x._kept[1]
            assert _to_multiscale_array(spec, twin(x)).tobytes() == grid.tobytes()

    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled", "lifted"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_save_sorts_nothing(self, request, tmp_path, sorts, name, n):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(80 + n)
        for i, x in enumerate(grid_made_vectors(spec, n, rng)):
            sorts.clear()
            save_coeffs(x, tmp_path / f"{i}.coeffs")
            assert not sorts
            rows = rng.permutation(x.num_entries)
            shuffled = CoeffVector.from_index_columns(x.system, n, 2.0, x.max_level, x.basis,
                                                      x.index_columns()[rows], x.values[rows])
            save_coeffs(shuffled, tmp_path / "shuffled.coeffs")
            assert ((tmp_path / f"{i}.coeffs").read_bytes()
                    == (tmp_path / "shuffled.coeffs").read_bytes())

    def test_save_refuses_a_repeated_index(self, tmp_path):
        u = make_hyper({((2,), (1,)): 1.0}, 1, 3)
        twice = CoeffVector.from_index_columns(HYPERBOLIC, 1, 2.0, 3, "haar",
                                               np.repeat(u.index_columns(), 2, axis=0),
                                               np.array([1.0, 2.0]))
        path = tmp_path / "twice.coeffs"
        with pytest.raises(DimensionMismatch, match="duplicate coefficient indices"):
            save_coeffs(twice, path)
        assert not path.exists()


HEAD1 = "hyperwave-coeffs v1 hyperbolic n=1 p=2 basis=haar jmax=3"


class TestStreamedCoefficientRead:
    """``load_coeffs`` parses the rows from the open file; the line reader
    only names a bad row."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [HEAD1 + "\n", "\n" + HEAD1 + "\n\n  \n"])
    def test_empty_table_warns_nothing(self, tmp_path, text):
        path = tmp_path / "empty.coeffs"
        path.write_text(text)
        u = load_coeffs(path)
        assert u.num_entries == 0 and u.levels.shape == (0, 1) and u.values.dtype == np.float64

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.coeffs"
        path.write_text(f"\n  \n{HEAD1}\n\n0 0 1.5\n \t \n\n2 1 -0.0\n\n")
        u = load_coeffs(path)
        assert u.index_columns().tolist() == [[0, 0], [2, 1]]
        assert u.values.tobytes() == np.array([1.5, -0.0]).tobytes()

    def test_first_bad_row_quoted(self, tmp_path):
        path = tmp_path / "bad.coeffs"
        path.write_text(f"{HEAD1}\n0 0 1\n\n1 0 x\n1 0 y\n")
        with pytest.raises(DimensionMismatch, match=r"malformed coefficient line") as err:
            load_coeffs(path)
        assert repr("1 0 x") in str(err.value) and "'1 0 y'" not in str(err.value)

    @pytest.mark.parametrize("rows, duplicate", [
        ("2 1 1\n1 0 2\n2 1 3\n", True),
        ("2 1 1\n1 0 2\n2 0 3\n", False),
        ("0 9223372036854775807 1\n0 -9223372036854775808 2\n0 9223372036854775807 3\n", True),
        ("0 9223372036854775807 1\n0 -9223372036854775808 2\n0 0 3\n", False),
        ("0 0 1\n0 9223372036854775807 2\n0 0 3\n", True),
        ("0 0 1\n0 9223372036854775807 2\n0 5 3\n", False),
    ], ids=["shuffled-duplicate", "shuffled", "beyond-63-bits-duplicate", "beyond-63-bits",
            "span-2-63-duplicate", "span-2-63"])
    def test_duplicates_in_any_order_rejected(self, tmp_path, rows, duplicate):
        path = tmp_path / "dup.coeffs"
        path.write_text(f"{HEAD1}\n{rows}")
        if duplicate:
            with pytest.raises(DimensionMismatch, match="duplicate coefficient indices"):
                load_coeffs(path)
        else:
            assert load_coeffs(path).num_entries == 3

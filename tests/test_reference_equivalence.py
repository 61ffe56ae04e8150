"""The array-native norm and Jackson/Bernstein code against the direct
formulations they replaced: row-wise block grouping with
``np.unique(axis=0)`` and one rebuilt truncation per N.  The
dimension-generic change of basis against the bivariate one it replaced.
The table codec of coefficient and array files against the per-line
writers and readers it replaced.  The assembled transforms, now the
synthesis cascade run on a sparse identity, against the product of
padded per-level factors they replaced.  The numpy mask products of
``BandMatrix`` against the scipy CSR products they replaced.  The mask and
matrix files, now blocks of the table codec, against the per-line writers
and parser they replaced."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from hyperwave import (
    BandMatrix,
    CoeffVector,
    DimensionMismatch,
    HyperIndex,
    IsoIndex,
    MaskQuad,
    NormParams,
    besov_hybrid_norm,
    besov_iso_norm,
    build_transform,
    check_embedding_chain,
    error_curve,
    iso_from_hyper,
    jackson_bernstein_ratios,
    make_haar_basis,
    rescale,
)
from hyperwave import hyper_forward, hyper_from_iso, iso_synthesize, load_coeffs, save_coeffs
from hyperwave import load_mask_file, load_matrix_file, save_mask_file, save_matrix_file
from hyperwave.cli import load_array, save_array
from hyperwave.nterm import _tail_errors, _weights_and_order
from hyperwave.seqnorms import _block_norm, _outer_norm
from hyperwave.tensorbasis import (
    _from_multiscale_array,
    _gather_iso_blocks,
    _to_multiscale_array,
)
from hyperwave.transform1d import _analyze_array, _synthesize_array
from conftest import make_hyper, make_iso, random_hyper, random_sparse_hyper


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
    w, order = _weights_and_order(u, q)
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

    @pytest.mark.parametrize("name", ["haar", "scaled", "haar_j2"])
    def test_embedding_chain_matches_two_iso_norms(self, request, name):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        for m in range(spec.j0 + 2, spec.j0 + 6):
            u = random_hyper(spec, rng, 2, m)
            for q, s in ((0.0, 0.25), (0.3, 0.1)):
                tau = 1.0 / (s + 0.5)
                hybrid = besov_hybrid_norm(u, NormParams(q=q, s=s, p=tau, tau=tau))
                v = iso_from_hyper(spec, u)
                want = (besov_iso_norm(v, q + s, tau, tau) / hybrid,
                        hybrid / besov_iso_norm(v, q + 2 * s, tau, tau))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert check_embedding_chain(spec, u, q, s) == want


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
            m0 = spec.masks(level).m0.csr
            cur = m0 @ cur
            cur = (m0 @ cur.T).T
        return cur

    for (m, e), block in reference_gather_iso_blocks(spec, v).items():
        if e == (0, 0):
            out += prolong(block, spec.j0)
            continue
        quad = spec.masks(m)
        f1 = quad.m1.csr if e[0] else quad.m0.csr
        f2 = quad.m1.csr if e[1] else quad.m0.csr
        out += prolong((f2 @ (f1 @ block).T).T, m)
    return out


def same_bits(a, b):
    fields = ("system", "n", "p_norm", "max_level", "basis")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    for name in ("levels", "positions", "values", "etypes"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None)
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


class TestChangeOfBasisBitwise:
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
            synth = iso_synthesize(spec, v)
            assert synth.tobytes() == reference_iso_synthesize(spec, v).tobytes()

    def test_sparse_vector_matches(self, haar):
        u = make_hyper({((0, 3), (0, 2)): 1.5, ((2, 1), (1, 0)): -0.25,
                        ((3, 3), (1, 2)): 2.0}, 2, 3)
        v = iso_from_hyper(haar, u)
        same_bits(v, reference_iso_from_hyper(haar, u))
        same_bits(hyper_from_iso(haar, v), reference_hyper_from_iso(haar, v))
        assert iso_synthesize(haar, v).tobytes() == reference_iso_synthesize(haar, v).tobytes()


class TestIsoBlockGrouping:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_match_mask_per_block(self, haar, haar_j2, n):
        rng = np.random.default_rng(20 + n)
        for spec in (haar, haar_j2):
            u = random_hyper(spec, rng, n, spec.j0 + 3)
            v = iso_from_hyper(spec, u)
            # Shuffled entries: the blocks must not depend on the input order.
            perm = rng.permutation(v.num_entries)
            v = replace(v, levels=v.levels[perm], etypes=v.etypes[perm],
                        positions=v.positions[perm], values=v.values[perm])
            got, want = _gather_iso_blocks(spec, v), reference_gather_iso_blocks(spec, v)
            assert list(got) == list(want)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes()

    def test_first_bad_block_in_code_order_is_reported(self, haar):
        # The level-3 entry comes first in the input, the level-1 block
        # first in block order; both positions are out of range.
        v = make_iso({(3, (0, 1), (9, 0)): 1.0, (1, (1, 1), (5, 0)): 2.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=r"^position \(5, 0\) out of range "
                           r"for level 1 type \(1, 1\) block of shape \(1, 1\)$"):
            _gather_iso_blocks(haar, v)
        v = make_iso({(3, (0, 1), (0, 0)): 1.0, (2, (0, 0), (0, 0)): 2.0}, 2, 3)
        with pytest.raises(DimensionMismatch, match=r"^no level-2 block of type \(0, 0\)"):
            _gather_iso_blocks(haar, v)


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
        g = sp.hstack([quad.m0.csr, quad.m1.csr], format="csr")
        g_dual = sp.hstack([quad.mt0.csr, quad.mt1.csr], format="csr")
        if pad:
            eye = sp.identity(pad, format="csr")
            g = sp.block_diag([g, eye], format="csr")
            g_dual = sp.block_diag([g_dual, eye], format="csr")
        t = g @ t
        t_dual = g_dual @ t_dual
    return BandMatrix.from_csr(t), BandMatrix.from_csr(t_dual)


class TestBuildTransformBitwise:
    @pytest.mark.parametrize("name", ["haar", "haar_j2", "scaled"])
    def test_transforms_match(self, request, name):
        spec = request.getfixturevalue(name)
        for m in range(spec.j0, 11):
            for got, want in zip(build_transform(spec, m), reference_build_transform(spec, m)):
                got, want = got.csr, want.csr
                got.sort_indices()
                want.sort_indices()
                assert got.shape == want.shape
                for field in ("indptr", "indices", "data"):
                    x, y = getattr(got, field), getattr(want, field)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


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


def masks_of(request, name):
    if name == "lifted":
        rng = np.random.default_rng(7)
        return [b for j in range(1, 9) for b in lifted_haar_quad(rng, j)]
    spec = request.getfixturevalue(name)
    return [b for j in range(spec.j0 + 1, 11) for b in spec.masks(j)]


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
                    (x := special_operand(rng, mask.cols, width), mask.apply(x), mask.csr @ x),
                    (x := special_operand(rng, mask.rows, width), mask.apply_transpose(x),
                     mask.csr.T @ x),
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
                     holed.csr @ x),
                    (x := special_operand(rng, holed.rows, width), holed.apply_transpose(x),
                     holed.csr.T @ x),
                ):
                    assert_same_bits_but_nan_sign(got, want)
                assert holed.apply(np.full(holed.cols, np.nan))[5] == 0.0
                assert holed.apply_transpose(np.full(holed.rows, np.nan))[2] == 0.0

    def test_negative_zero_operands(self, request):
        """0.0 + (-0.0) is +0.0: an all -0.0 operand gives +0.0 entries."""
        for mask in masks_of(request, "lifted"):
            for x, got, want in (
                (x := np.full(mask.cols, -0.0), mask.apply(x), mask.csr @ x),
                (x := np.full((mask.rows, 3), -0.0), mask.apply_transpose(x), mask.csr.T @ x),
            ):
                assert got.tobytes() == want.tobytes()
                assert not np.signbit(got).any()

    def test_sparse_operand_goes_to_csr(self, haar):
        mask = haar.masks(4).m1
        eye = sp.identity(mask.cols, format="csr")
        got = mask.apply(eye)
        assert sp.issparse(got)
        assert (got != mask.csr).nnz == 0


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

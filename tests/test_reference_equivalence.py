"""The array-native norm and Jackson/Bernstein code against the direct
formulations they replaced: row-wise block grouping with
``np.unique(axis=0)`` and one rebuilt truncation per N.  The
dimension-generic change of basis against the bivariate one it replaced.
The table codec of coefficient and array files against the per-line
writers and readers it replaced.  The assembled transforms, now the
synthesis cascade run on a sparse identity, against the product of
padded per-level factors they replaced."""

import numpy as np
import pytest
import scipy.sparse as sp

from hyperwave import (
    BandMatrix,
    CoeffVector,
    DimensionMismatch,
    HyperIndex,
    IsoIndex,
    NormParams,
    besov_hybrid_norm,
    build_transform,
    error_curve,
    iso_from_hyper,
    jackson_bernstein_ratios,
    rescale,
)
from hyperwave import hyper_forward, hyper_from_iso, iso_synthesize, load_coeffs, save_coeffs
from hyperwave.cli import load_array, save_array
from hyperwave.nterm import _tail_errors, _weights_and_order
from hyperwave.seqnorms import _block_norm, _outer_norm
from hyperwave.tensorbasis import _from_multiscale_array, _to_multiscale_array
from hyperwave.transform1d import _analyze_array, _synthesize_array
from conftest import make_hyper, random_hyper, random_sparse_hyper


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
    blocks = {}
    code = v.levels * 4 + v.etypes[:, 0] * 2 + v.etypes[:, 1]
    for c in np.unique(code):
        sel = code == c
        m = int(c) // 4
        e = ((int(c) // 2) % 2, int(c) % 2)
        if e == (0, 0):
            shape = (spec.delta_size(spec.j0),) * 2
        else:
            shape = tuple(spec.nabla_size(m) if ei else spec.delta_size(m - 1) for ei in e)
        k = v.positions[sel]
        block = np.zeros(shape)
        block[k[:, 0], k[:, 1]] = v.values[sel]
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

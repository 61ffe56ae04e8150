from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hyperwave import (
    BandMatrix,
    CoeffVector,
    DimensionMismatch,
    HyperIndex,
    InvalidExponent,
    IsoIndex,
    SizeTooLarge,
    UnsupportedDimension,
    WrongSystem,
    build_transform,
    check_embedding_chain,
    forward,
    hyper_forward,
    hyper_from_iso,
    hyper_inverse,
    iso_from_hyper,
    iso_synthesize,
    load_coeffs,
    rescale,
    save_coeffs,
    tensorbasis,
)
from hyperwave.tensorbasis import ISOTROPIC, _blocks, _to_multiscale_array
from hyperwave.transform1d import _sweep
from conftest import from_index_arrays, make_hyper, make_iso, random_hyper


def coeff_dicts_close(a, b, tol=1e-12):
    da, db = a.as_dict(), b.as_dict()
    keys = set(da) | set(db)
    return all(abs(da.get(k, 0.0) - db.get(k, 0.0)) <= tol for k in keys)


class TestHyperForwardInverse:
    def test_constant_data_single_coefficient(self, haar):
        u = hyper_forward(haar, 2, np.full((8, 8), 1.5))
        d = u.as_dict()
        assert list(d) == [HyperIndex((0, 0), (0, 0))]
        np.testing.assert_allclose(d[HyperIndex((0, 0), (0, 0))], 1.5 * 8)

    def test_n1_reduces_to_univariate_forward(self, haar):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(32)
        u = hyper_forward(haar, 1, c)
        ms = forward(haar, c)
        np.testing.assert_allclose(_to_multiscale_array(haar, u), ms.concat(), atol=1e-14)

    @pytest.mark.parametrize("n,m", [(1, 6), (2, 3), (2, 5), (3, 3)])
    def test_round_trip(self, haar, n, m):
        rng = np.random.default_rng(n * 10 + m)
        size = haar.delta_size(m)
        for _ in range(5):
            a = rng.standard_normal((size,) * n)
            back = hyper_inverse(haar, hyper_forward(haar, n, a))
            assert np.abs(back - a).max() <= 1e-12 * np.abs(a).max()

    def test_round_trip_non_orthonormal(self, scaled):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 16))
        back = hyper_inverse(scaled, hyper_forward(scaled, 2, a))
        assert np.abs(back - a).max() <= 1e-12 * np.abs(a).max()

    def test_kronecker_oracle_2d(self, haar, scaled):
        rng = np.random.default_rng(1)
        for spec in (haar, scaled):
            m = 3
            size = spec.delta_size(m)
            _, td = build_transform(spec, m)
            k = np.kron(td.to_dense().T, td.to_dense().T)
            a = rng.standard_normal((size, size))
            expected = (k @ a.reshape(-1)).reshape(size, size)
            got = _to_multiscale_array(spec, from_index_arrays(hyper_forward(spec, 2, a)))
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_kronecker_oracle_3d(self, haar):
        rng = np.random.default_rng(2)
        m = 2
        _, td = build_transform(haar, m)
        tdt = td.to_dense().T
        k = np.kron(np.kron(tdt, tdt), tdt)
        a = rng.standard_normal((4, 4, 4))
        expected = (k @ a.reshape(-1)).reshape(4, 4, 4)
        got = _to_multiscale_array(haar, from_index_arrays(hyper_forward(haar, 3, a)))
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_axis_order_independence(self, haar):
        from hyperwave.transform1d import _analyze_array

        rng = np.random.default_rng(4)
        a = rng.standard_normal((16, 16))
        ax0_first = _analyze_array(haar, _analyze_array(haar, a, 4).T, 4).T
        ax1_first = _analyze_array(haar, _analyze_array(haar, a.T, 4).T, 4)
        assert np.abs(ax0_first - ax1_first).max() < 1e-13

    def test_single_unit_coefficient_synthesizes_constant(self, haar):
        u = make_hyper({((0, 0), (0, 0)): 1.0}, 2, 3)
        arr = hyper_inverse(haar, u)
        np.testing.assert_allclose(arr, np.full((8, 8), 1.0 / 8.0), atol=1e-14)

    def test_zero_coefficients_synthesize_to_zero(self, haar):
        u = make_hyper({}, 2, 3)
        np.testing.assert_array_equal(hyper_inverse(haar, u), np.zeros((8, 8)))

    def test_non_cubic_rejected(self, haar):
        with pytest.raises(DimensionMismatch):
            hyper_forward(haar, 2, np.zeros((8, 4)))

    def test_wrong_system_rejected(self, haar):
        u = hyper_forward(haar, 2, np.ones((4, 4)))
        v = iso_from_hyper(haar, u)
        with pytest.raises(WrongSystem):
            hyper_inverse(haar, v)

    def test_index_set_cardinality_audit(self, haar):
        # Every multiscale level block partitions |Delta_m|^n exactly.
        for n in (1, 2, 3):
            for m in (2, 3):
                total = 0
                for jvec in np.ndindex(*((m + 1,) * n)):
                    total += int(np.prod([haar.nabla_size(j) for j in jvec]))
                assert total == haar.delta_size(m) ** n


class TestChangeOfBasis:
    def test_diagonal_blocks_map_identically(self, haar):
        u = make_hyper({((2, 2), (1, 0)): 0.7, ((3, 3), (2, 3)): -1.1}, 2, 4)
        v = iso_from_hyper(haar, u)
        d = v.as_dict()
        assert d == {
            IsoIndex(2, (1, 1), (1, 0)): pytest.approx(0.7),
            IsoIndex(3, (1, 1), (2, 3)): pytest.approx(-1.1),
        }

    def test_coarsest_transform_is_identity(self, haar):
        u = make_hyper({((0, 1), (0, 0)): 1.0}, 2, 4)
        v = iso_from_hyper(haar, u)
        assert v.as_dict() == {IsoIndex(1, (0, 1), (0, 0)): pytest.approx(1.0)}

    @pytest.mark.parametrize("m", [2, 4])
    def test_round_trip_many_vectors(self, haar, m):
        rng = np.random.default_rng(m)
        for _ in range(25):
            u = random_hyper(haar, rng, 2, m)
            u2 = hyper_from_iso(haar, iso_from_hyper(haar, u))
            assert coeff_dicts_close(u, u2, tol=1e-12)

    def test_round_trip_non_orthonormal(self, scaled):
        rng = np.random.default_rng(8)
        u = random_hyper(scaled, rng, 2, 4)
        u2 = hyper_from_iso(scaled, iso_from_hyper(scaled, u))
        assert coeff_dicts_close(u, u2, tol=1e-12)

    def test_function_value_oracle(self, haar, scaled):
        # Both coefficient systems must synthesize to the same function; the
        # isotropic synthesis goes through the refinement masks only.
        rng = np.random.default_rng(6)
        for spec in (haar, scaled):
            u = random_hyper(spec, rng, 2, 4)
            v = iso_from_hyper(spec, u)
            lhs = iso_synthesize(spec, v)
            rhs = hyper_inverse(spec, u)
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_zero_maps_to_zero(self, haar):
        u = make_hyper({}, 2, 3)
        assert iso_from_hyper(haar, u).num_entries == 0

    @pytest.mark.parametrize("n, m", [(1, 6), (3, 3)])
    def test_dimension_one_and_three_round_trip(self, haar, scaled, haar_j2, n, m):
        rng = np.random.default_rng(10 * n + m)
        for spec in (haar, scaled, haar_j2):
            size = spec.delta_size(max(m, spec.j0 + 2))
            a = rng.standard_normal((size,) * n)
            u = hyper_forward(spec, n, a)
            v = iso_from_hyper(spec, u)
            assert v.etypes.shape == (v.num_entries, n)
            assert np.abs(hyper_inverse(spec, hyper_from_iso(spec, v)) - a).max() <= 1e-12
            assert np.abs(iso_synthesize(spec, v) - hyper_inverse(spec, u)).max() <= 1e-12

    def test_dimension_three_types(self, haar):
        # The 2^3 - 1 nonzero types of a level m > j0 block, in product
        # order, each with |Nabla_m| positions on its wavelet axes and
        # |Delta_{m-1}| on its scaling axes.
        v = iso_from_hyper(haar, random_hyper(haar, np.random.default_rng(3), 3, 2))
        level2 = v.etypes[v.levels == 2]
        types, first = np.unique(level2, axis=0, return_index=True)
        assert [tuple(t) for t in types[np.argsort(first)]] == [
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        assert len(level2) == 4 ** 3 - 2 ** 3

    def test_shifted_coarsest_level(self, haar_j2):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((16, 16))
        u = hyper_forward(haar_j2, 2, a)
        assert int(u.levels.min()) == 2
        v = iso_from_hyper(haar_j2, u)
        u2 = hyper_from_iso(haar_j2, v)
        assert np.abs(hyper_inverse(haar_j2, u2) - a).max() <= 1e-12
        assert np.abs(iso_synthesize(haar_j2, v) - hyper_inverse(haar_j2, u)).max() <= 1e-10

    @pytest.mark.parametrize("entry", [
        (2, (1, 1), (-1, 0)),   # numpy would wrap it onto (1, 0)
        (2, (1, 1), (2, 0)),    # level-2 wavelet blocks are 2 x 2
        (2, (0, 1), (2, 0)),    # the scaling axis has |Delta_1| = 2 rows
        (2, (0, 2), (0, 0)),    # type entries lie in {0, 1}
        (2, (0, 0), (0, 0)),    # type (0, 0) lives at the coarsest level only
        (0, (1, 1), (0, 0)),    # wavelet types start above the coarsest level
    ])
    def test_out_of_range_isotropic_index_rejected(self, haar, entry):
        # Built inside pytest.raises: a type outside {0,1}^n is rejected
        # when the vector is constructed.
        with pytest.raises(DimensionMismatch):
            hyper_from_iso(haar, make_iso({entry: 1.0}, 2, 3))
        with pytest.raises(DimensionMismatch):
            iso_synthesize(haar, make_iso({entry: 1.0}, 2, 3))

    def test_isotropic_l2_isometry_for_orthonormal_basis(self, haar):
        # The per-block factors are orthogonal for Haar, so the change of
        # basis preserves the l2 norm exactly.
        rng = np.random.default_rng(7)
        u = random_hyper(haar, rng, 2, 5)
        v = iso_from_hyper(haar, u)
        assert abs(np.linalg.norm(v.values) - np.linalg.norm(u.values)) < 1e-10


def swept(spec, grid, n, m):
    """``grid`` after the synthesis sweep, which runs in place."""
    _sweep(spec, grid, n, m, analysis=False, full=False)
    return grid


class TestScalingSweep:
    """The change of basis as one in-place cascade sweep per axis of the
    multiscale grid."""

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 4)])
    def test_batch_matches_single_grids(self, haar, scaled, n, m):
        rng = np.random.default_rng(n)
        for spec in (haar, scaled):
            grids = rng.standard_normal((3,) + (spec.delta_size(m),) * n)
            batch = _blocks(spec, swept(spec, grids.copy(), n, m), n, m, ISOTROPIC)
            for i, grid in enumerate(grids):
                single = _blocks(spec, swept(spec, grid.copy(), n, m), n, m, ISOTROPIC)
                assert [key for key, _ in batch] == [key for key, _ in single]
                for (_, got), (_, want) in zip(batch, single):
                    assert got[i].tobytes() == want.tobytes()

    def test_inputs_left_unchanged(self, haar):
        u = hyper_forward(haar, 2, np.random.default_rng(5).standard_normal((32, 32)))
        before = u.values.tobytes()
        v = iso_from_hyper(haar, u)
        assert u.values.tobytes() == before
        ratios = check_embedding_chain(haar, u, 0.0, 0.25)
        assert check_embedding_chain(haar, u, 0.0, 0.25) == ratios
        before = v.values.tobytes()
        hyper_from_iso(haar, v)
        assert v.values.tobytes() == before

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 6)])
    def test_mask_products_linear_in_levels(self, haar, monkeypatch, n, m):
        """At most 2 n (n - 1) (m - j0 - 1) mask products each way: one
        cascade step per level, axis and box, not one per type block."""
        counts = Counter()
        for name in ("apply", "apply_transpose"):
            def counted(self, x, axis=None, _name=name, _original=getattr(BandMatrix, name)):
                counts[_name] += 1
                return _original(self, x, axis)

            monkeypatch.setattr(BandMatrix, name, counted)
        u = hyper_forward(haar, n, np.random.default_rng(m).standard_normal((2 ** m,) * n))
        bound = 2 * n * (n - 1) * (m - haar.j0 - 1)
        counts.clear()
        v = iso_from_hyper(haar, u)
        assert 0 < counts["apply"] <= bound and counts["apply_transpose"] == 0
        counts.clear()
        hyper_from_iso(haar, v)
        assert 0 < counts["apply_transpose"] <= bound and counts["apply"] == 0


class TestIsoSynthesize:
    """The isotropic synthesis, level by level on the multiscale grid."""

    def test_kept_vector_builds_no_index_arrays(self, haar, monkeypatch):
        v = iso_from_hyper(haar, random_hyper(haar, np.random.default_rng(4), 2, 4))
        calls = Counter()

        def counted(*args, _original=tensorbasis._nonzero_cells):
            calls["cells"] += 1
            return _original(*args)

        monkeypatch.setattr(tensorbasis, "_nonzero_cells", counted)
        out = iso_synthesize(haar, v)
        assert calls["cells"] == 0 and "levels" not in vars(v)
        assert out.tobytes() == iso_synthesize(haar, from_index_arrays(v)).tobytes()

    @pytest.mark.parametrize("name", ["haar", "haar_j2"])
    def test_negative_zero_at_coarsest_level_gives_positive_zero(self, request, name):
        # No level runs above j0, so the grid is returned as scattered but for the sign.
        spec = request.getfixturevalue(name)
        size = spec.delta_size(spec.j0)
        v = make_iso({(spec.j0, (0, 0), k): -0.0 for k in np.ndindex(size, size)}, 2, spec.j0)
        assert iso_synthesize(spec, v).tobytes() == np.zeros((size, size)).tobytes()


class TestRescale:
    def test_identity_when_p_unchanged(self, haar):
        u = make_hyper({((1, 2), (0, 1)): 0.3}, 2, 3)
        assert rescale(u, 2.0) is u

    def test_formula_p2_to_p1(self):
        u = make_hyper({((1, 2), (0, 0)): 1.0}, 2, 4)
        r = rescale(u, 1.0)
        np.testing.assert_allclose(r.values, [2.0 ** (3 * (0.5 - 1.0))])
        assert r.p_norm == 1.0

    def test_isotropic_uses_n_times_level(self):
        from conftest import make_iso

        v = make_iso({(2, (1, 1), (0, 0)): 1.0}, 2, 4)
        r = rescale(v, 1.0)
        np.testing.assert_allclose(r.values, [2.0 ** (2 * 2 * (0.5 - 1.0))])

    def test_group_property(self, haar):
        rng = np.random.default_rng(11)
        u = random_hyper(haar, rng, 2, 3)
        back = rescale(rescale(u, 1.0), 2.0)
        assert np.abs(back.values - u.values).max() <= 1e-14 * np.abs(u.values).max()

    def test_infinite_exponent(self):
        u = make_hyper({((2, 1), (0, 0)): 1.0}, 2, 3)
        r = rescale(u, np.inf)
        np.testing.assert_allclose(r.values, [2.0 ** (3 * 0.5)])

    def test_invalid_exponent_rejected(self):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2)
        with pytest.raises(InvalidExponent):
            rescale(u, 0.0)


class TestCoeffFiles:
    def test_hyper_round_trip_and_byte_stability(self, haar, tmp_path):
        rng = np.random.default_rng(12)
        u = random_hyper(haar, rng, 2, 3)
        p1, p2 = tmp_path / "a.coeffs", tmp_path / "b.coeffs"
        save_coeffs(u, p1)
        loaded = load_coeffs(p1)
        assert loaded.as_dict() == u.as_dict()
        assert (loaded.system, loaded.n, loaded.p_norm, loaded.max_level,
                loaded.basis) == ("hyperbolic", 2, 2.0, 3, "haar")
        save_coeffs(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_iso_round_trip(self, haar, tmp_path):
        rng = np.random.default_rng(13)
        v = iso_from_hyper(haar, random_hyper(haar, rng, 2, 3))
        path = tmp_path / "v.coeffs"
        save_coeffs(v, path)
        assert load_coeffs(path).as_dict() == v.as_dict()

    def test_seventeen_digit_values_survive(self, tmp_path):
        u = make_hyper({((3, 2), (1, 0)): 1.0 / 3.0, ((0, 0), (0, 0)): np.pi}, 2, 4)
        path = tmp_path / "c.coeffs"
        save_coeffs(u, path)
        assert load_coeffs(path).as_dict() == u.as_dict()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.coeffs"
        path.write_text("something else\n")
        with pytest.raises(DimensionMismatch):
            load_coeffs(path)

    @pytest.mark.parametrize("text", [
        "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar\n1 1 0 0 1\n",
        "hyperwave-coeffs v1 hyperbolic n=two p=2 basis=haar jmax=3\n",
        "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax 3\n",
        "hyperwave-coeffs v1  \n",
        "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 x 1\n",
        "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 0 one\n",
        "hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n1 1.5 1 0 0 1\n",
        "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 99999999999999999999 1.0\n",
        "hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n2 300 1 0 0 1\n",
        "hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n2 257 1 0 0 1\n",
        "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 0 1 # note\n",
    ], ids=["no-jmax", "n-not-int", "field-without-equals", "no-system",
            "position-not-int", "value-not-float", "type-not-int", "index-beyond-int64",
            "type-300", "type-257-not-read-as-1", "comment-not-allowed"])
    def test_unparsable_fields_rejected(self, tmp_path, text):
        path = tmp_path / "bad.coeffs"
        path.write_text(text)
        with pytest.raises(DimensionMismatch, match="malformed coefficient"):
            load_coeffs(path)

    def test_duplicate_isotropic_indices_rejected(self, tmp_path):
        path = tmp_path / "dup.coeffs"
        head = "hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n"
        path.write_text(head + "2 0 1 1 0 1\n2 1 0 1 0 2\n")
        assert load_coeffs(path).num_entries == 2
        path.write_text(head + "2 0 1 1 0 1\n2 1 0 1 0 2\n2 0 1 1 0 3\n")
        with pytest.raises(DimensionMismatch, match="duplicate"):
            load_coeffs(path)

    def test_duplicate_indices_rejected(self, tmp_path):
        path = tmp_path / "dup.coeffs"
        path.write_text(
            "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n"
            "1 1 0 0 1\n1 1 0 0 2\n"
        )
        with pytest.raises(DimensionMismatch):
            load_coeffs(path)

    @pytest.mark.parametrize("text", [
        "hyperwave-coeffs v1 hyperbolic n=0 p=2 basis=haar jmax=3\n",
        "hyperwave-coeffs v1 isotropic n=0 p=2 basis=haar jmax=3\n1 1\n",
        "hyperwave-coeffs v1 hyperbolic n=-1 p=2 basis=haar jmax=3\n",
        "hyperwave-coeffs v1 hyperbolic n=4 p=2 basis=haar jmax=3\n1 1 1 1 0 0 0 0 1\n",
    ], ids=["zero", "zero-isotropic", "negative", "four"])
    def test_dimension_out_of_range_rejected(self, tmp_path, text):
        path = tmp_path / "bad.coeffs"
        path.write_text(text)
        with pytest.raises(UnsupportedDimension, match="n="):
            load_coeffs(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.coeffs"
        path.write_text("hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n\n"
                        "1 1 0 0 1.5\n   \n0 0 0 0 -2\n\n")
        assert load_coeffs(path).as_dict() == {
            HyperIndex((1, 1), (0, 0)): 1.5, HyperIndex((0, 0), (0, 0)): -2.0}


class TestRepeatedIndices:
    """A repeated index would be summed by the norms but kept only once by
    the scatters into dense grids; the scatters reject it, after their
    range check, through ``tables._index_order``."""

    def test_hyperbolic_scatter_rejects_repeats(self, haar):
        u = CoeffVector("hyperbolic", 2, 2.0, 2, "haar", np.array([[1, 1], [0, 2], [1, 1]]),
                        np.array([[0, 0], [0, 1], [0, 0]]), np.array([1.0, 3.0, 2.0]))
        for fn in (hyper_inverse, iso_from_hyper):
            with pytest.raises(DimensionMismatch, match="duplicate"):
                fn(haar, u)
        distinct = replace(u, levels=np.array([[1, 1], [0, 2], [2, 1]]))
        assert np.linalg.norm(hyper_inverse(haar, distinct)) == pytest.approx(np.sqrt(14.0))

    def test_isotropic_scatter_rejects_repeats(self, haar):
        v = CoeffVector("isotropic", 2, 2.0, 2, "haar", np.array([1, 2, 1]),
                        np.array([[0, 0], [1, 0], [0, 0]]), np.array([1.0, 3.0, 2.0]),
                        etypes=np.array([[1, 1], [0, 1], [1, 1]], dtype=np.int8))
        for fn in (hyper_from_iso, iso_synthesize):
            with pytest.raises(DimensionMismatch, match="duplicate"):
                fn(haar, v)
        distinct = replace(v, levels=np.array([1, 2, 2]))
        assert hyper_from_iso(haar, distinct).num_entries > 0


class TestCoeffVectorValidation:
    def test_unknown_system(self):
        with pytest.raises(WrongSystem):
            CoeffVector("spherical", 2, 2.0, 3, "haar",
                        np.zeros((0, 2), int), np.zeros((0, 2), int), np.zeros(0))

    def test_level_beyond_truncation(self):
        with pytest.raises(DimensionMismatch):
            make_hyper({((4, 0), (0, 0)): 1.0}, 2, 3)

    def test_dimension_out_of_range(self):
        with pytest.raises(UnsupportedDimension):
            CoeffVector("hyperbolic", 4, 2.0, 3, "haar",
                        np.zeros((0, 4), int), np.zeros((0, 4), int), np.zeros(0))


class TestConstructionBoundary:
    """Shapes, the type range and read-only arrays are checked once, when a
    CoeffVector is built, for both systems."""

    def test_three_level_columns_at_n2_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"levels of shape \(1, 3\), expected \(1, 2\)"):
            CoeffVector("hyperbolic", 2, 2.0, 3, "haar", np.array([[1, 1, 1]]),
                        np.array([[0, 0]]), np.array([1.0]))

    @pytest.mark.parametrize("levels, positions, etypes", [
        (np.array([[2, 2]]), np.array([[0, 0]]), np.array([[1, 1]])),  # (N, n) levels
        (np.array([2]), np.array([[0, 0, 0]]), np.array([[1, 1]])),     # positions too wide
        (np.array([2]), np.array([[0, 0]]), np.array([1, 1])),           # (n,) types
    ])
    def test_isotropic_shapes_rejected(self, levels, positions, etypes):
        with pytest.raises(DimensionMismatch, match="of shape"):
            CoeffVector("isotropic", 2, 2.0, 3, "haar", levels, positions, np.array([1.0]),
                        etypes=etypes)

    def test_types_on_hyperbolic_vector_rejected(self):
        with pytest.raises(WrongSystem, match="hyperbolic vectors carry no type vectors"):
            CoeffVector("hyperbolic", 2, 2.0, 3, "haar", np.array([[1, 1]]),
                        np.array([[0, 0]]), np.array([1.0]), etypes=np.array([[1, 1]]))

    @pytest.mark.parametrize("e", [(0, 2), (300, 1), (257, 1), (1, -1)])
    def test_type_outside_binary_rejected_at_construction(self, e):
        # 257 would read as 1 after an int8 cast: the check sees the given integers.
        message = rf"^type \({e[0]}, {e[1]}\) not in \{{0,1\}}\^2$"
        with pytest.raises(DimensionMismatch, match=message):
            CoeffVector("isotropic", 2, 2.0, 3, "haar", np.array([2]), np.array([[0, 0]]),
                        np.array([1.0]), etypes=np.array([e]))

    def test_fractional_type_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^type \(0\.5, 1\.0\) not in"):
            CoeffVector("isotropic", 2, 2.0, 3, "haar", np.array([2]), np.array([[0, 0]]),
                        np.array([1.0]), etypes=np.array([[0.5, 1.0]]))

    def test_arrays_are_read_only_views(self):
        levels, etypes = np.array([2, 1]), np.array([[0, 1], [1, 1]])
        positions, values = np.array([[1, 0], [0, 0]]), np.array([1.5, -2.0])
        v = CoeffVector("isotropic", 2, 2.0, 3, "haar", levels, positions, values,
                        etypes=etypes)
        for name in ("levels", "etypes", "positions", "values"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(v, name)[0] = 0
        assert v.etypes.dtype == np.int8
        # The caller's arrays stay writable, and the vector views them.
        values[0] = 4.0
        assert levels.flags.writeable and v.values[0] == 4.0

    @pytest.mark.parametrize("name, a", [
        ("positions", np.array([[0.5, 0]])),  # hyper_inverse would truncate it to 0
        ("levels", np.array([[1.0, 1.0]])),
        ("positions", np.array([[2 ** 63, 0]], dtype=object)),
        ("positions", np.array([[2 ** 63, 0]], dtype=np.uint64)),  # int64 would wrap it
    ], ids=["fractional-position", "float-levels", "object-2-63", "uint64-2-63"])
    def test_index_array_not_int64_rejected(self, haar, name, a):
        fields = {"levels": np.array([[1, 1]]), "positions": np.array([[0, 0]]), name: a}
        with pytest.raises(DimensionMismatch, match=rf"^{name} of dtype {a.dtype}, expected "
                           r"int64 values$"):
            CoeffVector("hyperbolic", 2, 2.0, 3, "haar", fields["levels"],
                        fields["positions"], np.array([1.0]))

    def test_index_arrays_stored_as_int64(self):
        levels, positions = np.array([2, 1]), np.array([[1, 0], [0, 0]], dtype=np.uint8)
        v = CoeffVector("isotropic", 2, 2.0, 3, "haar", levels, positions, np.ones(2),
                        etypes=np.array([[0, 1], [1, 1]]))
        assert v.levels.dtype == v.positions.dtype == np.int64
        assert np.shares_memory(v.levels, levels)  # no copy of int64 input
        assert v.positions.tolist() == positions.tolist()

    def test_derived_vectors_are_read_only(self, haar, tmp_path):
        u = random_hyper(haar, np.random.default_rng(2), 2, 3)
        save_coeffs(iso_from_hyper(haar, u), tmp_path / "v.coeffs")
        derived = [u, iso_from_hyper(haar, u), rescale(u, 1.0), u.canonical_order(),
                   u.with_values(np.ones(u.num_entries)), load_coeffs(tmp_path / "v.coeffs")]
        for cv in derived:
            for a in (cv.levels, cv.positions, cv.values):
                assert not a.flags.writeable


class TestGridTooLarge:
    """A level-32 grid at n = 2 has 2^64 cells, which numpy rejects before
    allocating anything; every map to the grid reports it as one error."""

    @pytest.mark.parametrize("op", [hyper_inverse, hyper_from_iso, iso_synthesize])
    def test_level_32_grid_rejected(self, haar, op):
        if op is hyper_inverse:
            u = make_hyper({((1, 1), (0, 0)): 1.5}, 2, 32)
        else:
            u = make_iso({(1, (1, 1), (0, 0)): 1.5}, 2, 32)
        with pytest.raises(SizeTooLarge, match="too large to allocate"):
            op(haar, u)

import math

import numpy as np
import pytest

from hyperwave import (
    BandMatrix,
    DimensionMismatch,
    LevelIndex,
    LevelTooCoarse,
    MaskInconsistent,
    MaskQuad,
    evaluate_on_dyadic_grid,
    load_mask_file,
    load_matrix_file,
    make_haar_basis,
    make_mask_basis,
    save_mask_file,
)
from conftest import pair_mask, scaled_haar_masks

SQ2 = math.sqrt(2.0)


def haar_quads(j0, max_level):
    spec = make_haar_basis(j0)
    return {j: spec.masks(j) for j in range(j0 + 1, max_level + 1)}


class TestBandMatrix:
    def test_triples_sorted_and_read_only(self):
        a = BandMatrix(3, 2, [2, 0, 1, 0], [0, 1, 1, 0], [4.0, 2.0, 3.0, 1.0])
        r, c, v = a.entries()
        assert list(zip(r.tolist(), c.tolist(), v.tolist())) == \
            [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (2, 0, 4.0)]
        for arr in a.entries():
            assert not arr.flags.writeable
        np.testing.assert_array_equal(a.T.to_dense(), a.to_dense().T)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(DimensionMismatch):
            BandMatrix(2, 2, [1, 0, 1], [0, 0, 0], [1.0, 2.0, 3.0])

    def test_operand_shape_checked(self):
        a = BandMatrix.identity(3)
        for bad in (np.ones(2), np.ones((3, 2, 2))):
            with pytest.raises(DimensionMismatch):
                a.apply(bad)


class TestHaarBasis:
    def test_two_scale_masks_level1(self, haar):
        quad = haar.masks(1)
        np.testing.assert_allclose(quad.m0.to_dense(), [[1 / SQ2], [1 / SQ2]])
        np.testing.assert_allclose(quad.m1.to_dense(), [[1 / SQ2], [-1 / SQ2]])
        np.testing.assert_array_equal(quad.m0.to_dense(), quad.mt0.to_dense())
        np.testing.assert_array_equal(quad.m1.to_dense(), quad.mt1.to_dense())

    def test_dyadic_dimension_counting(self, haar):
        for j in range(0, 9):
            assert haar.delta_size(j) == 2 ** j
        for j in range(1, 9):
            assert haar.nabla_size(j) == 2 ** (j - 1)

    def test_coarsest_level_aliases_scaling(self, haar_j2):
        assert haar_j2.nabla_size(2) == haar_j2.delta_size(2) == 4

    def test_dimension_bookkeeping_direct_sum(self, haar, haar_j2):
        for spec in (haar, haar_j2):
            for j in range(spec.j0 + 1, 9):
                assert spec.delta_size(j) == spec.delta_size(j - 1) + spec.nabla_size(j)

    @pytest.mark.parametrize("j", [1, 2, 3, 5])
    def test_mask_biorthogonality_blocks(self, haar, j):
        quad = haar.masks(j)
        g = np.hstack([quad.m0.to_dense(), quad.m1.to_dense()])
        gt = np.hstack([quad.mt0.to_dense(), quad.mt1.to_dense()])
        np.testing.assert_allclose(gt.T @ g, np.eye(g.shape[1]), atol=1e-15)

    def test_metadata(self, haar):
        assert haar.d == haar.d_tilde == 1
        assert haar.gamma == haar.gamma_tilde == 0.5
        assert haar.alpha > 1
        assert haar.bandwidth == 1


class TestLevelRange:
    def test_delta_size_above_max_level_rejected(self, haar):
        assert haar.delta_size(haar.max_level) == 2 ** 32
        for j in (33, 40):
            with pytest.raises(DimensionMismatch, match=f"level {j} beyond max_level 32"):
                haar.delta_size(j)


class TestMakeMaskBasis:
    def test_haar_masks_reproduce_builtin(self, haar):
        spec = make_mask_basis(
            haar_quads(0, 6), d=1, d_tilde=1, gamma=0.5, gamma_tilde=0.5,
            alpha=64.0, j0=0, name="haar",
        )
        for j in range(1, 7):
            for a, b in zip(spec.masks(j), haar.masks(j)):
                np.testing.assert_array_equal(a.to_dense(), b.to_dense())
            assert spec.delta_size(j) == haar.delta_size(j)
            assert spec.nabla_size(j) == haar.nabla_size(j)

    def test_scaled_haar_accepted(self, scaled):
        assert scaled.max_level == 10
        assert scaled.delta_size(3) == 8

    def test_broken_identity_rejected(self):
        quads = haar_quads(0, 3)
        bad = pair_mask(2, 1 / SQ2 + 1e-3, 1 / SQ2)
        quads[2] = MaskQuad(bad, quads[2].m1, quads[2].mt0, quads[2].mt1)
        with pytest.raises(MaskInconsistent):
            make_mask_basis(quads, 1, 1, 0.5, 0.5, 64.0, 0)

    def test_size_conflict_rejected(self):
        quads = haar_quads(0, 3)
        quads[3] = MaskQuad(pair_mask(8, 1 / SQ2, 1 / SQ2), pair_mask(8, 1 / SQ2, -1 / SQ2),
                            pair_mask(8, 1 / SQ2, 1 / SQ2), pair_mask(8, 1 / SQ2, -1 / SQ2))
        with pytest.raises(DimensionMismatch):
            make_mask_basis(quads, 1, 1, 0.5, 0.5, 64.0, 0)

    def test_missing_level_rejected(self):
        quads = haar_quads(0, 4)
        del quads[3]
        with pytest.raises(DimensionMismatch):
            make_mask_basis(quads, 1, 1, 0.5, 0.5, 64.0, 0)

    def test_bandwidth_enforced_when_declared(self):
        quads = haar_quads(0, 4)
        with pytest.raises(MaskInconsistent):
            make_mask_basis(quads, 1, 1, 0.5, 0.5, 64.0, 0, max_bandwidth=0)
        spec = make_mask_basis(quads, 1, 1, 0.5, 0.5, 64.0, 0, max_bandwidth=1)
        assert spec.bandwidth == 1


class TestMaskFile:
    def test_round_trip(self, tmp_path):
        quads = scaled_haar_masks(0, 4)
        path = tmp_path / "masks.txt"
        save_mask_file(path, quads)
        loaded = load_mask_file(path)
        assert sorted(loaded) == sorted(quads)
        for j in quads:
            for a, b in zip(loaded[j], quads[j]):
                np.testing.assert_array_equal(a.to_dense(), b.to_dense())
        spec = make_mask_basis(loaded, 1, 1, 0.5, 0.5, 64.0, 0)
        assert spec.delta_size(4) == 16

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 1\n0 0 0.5\n")  # missing terminator
        with pytest.raises(DimensionMismatch):
            load_mask_file(path)

    @pytest.mark.parametrize("head", ["1_0 2 1", "1 2.0 1", "1 2 0x1", "1 2", "1 2 1 1"])
    def test_matrix_block_header_read_as_row_ints(self, tmp_path, head):
        path = tmp_path / "bad.txt"
        path.write_text(f"{head}\n0 0 1\n#\n")
        with pytest.raises(DimensionMismatch, match="malformed block header") as err:
            load_matrix_file(path)
        assert str(path) in str(err.value) and repr(head) in str(err.value)

    @pytest.mark.parametrize("load, kind", [(load_mask_file, "mask"), (load_matrix_file, "matrix")])
    def test_bad_byte_names_the_file_kind(self, tmp_path, load, kind):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2 1\n0 0 1\xff\n#\n")
        with pytest.raises(DimensionMismatch, match=f"^malformed {kind} file "):
            load(path)

    def test_single_matrix_export(self, tmp_path):
        from hyperwave import build_transform, load_matrix_file, save_matrix_file

        spec = make_haar_basis(0)
        t, _ = build_transform(spec, 3)
        path = tmp_path / "t3.txt"
        save_matrix_file(path, t, level=3)
        level, loaded = load_matrix_file(path)
        assert level == 3
        np.testing.assert_array_equal(loaded.to_dense(), t.to_dense())


class TestEvaluateOnDyadicGrid:
    def test_constant_scaling_function(self, haar):
        vals = evaluate_on_dyadic_grid(haar, LevelIndex(0, 0, "scaling"), 3)
        np.testing.assert_allclose(vals, np.ones(8))

    def test_haar_mother_wavelet_values(self, haar):
        vals = evaluate_on_dyadic_grid(haar, LevelIndex(1, 0), 2)
        np.testing.assert_allclose(vals, [1.0, 1.0, -1.0, -1.0])

    def test_l2_normalization_by_quadrature(self, haar):
        rng = np.random.default_rng(0)
        for _ in range(10):
            j = int(rng.integers(0, 5))
            kind = "scaling" if rng.random() < 0.5 else "wavelet"
            kmax = haar.delta_size(j) if kind == "scaling" else haar.nabla_size(j)
            idx = LevelIndex(j, int(rng.integers(0, kmax)), kind)
            m = j + int(rng.integers(1, 4))
            vals = evaluate_on_dyadic_grid(haar, idx, m)
            assert abs(np.sum(vals ** 2) * 2.0 ** (-m) - 1.0) < 1e-12

    def test_wavelets_have_vanishing_moment(self, haar):
        for j in range(1, 6):
            for k in range(haar.nabla_size(j)):
                vals = evaluate_on_dyadic_grid(haar, LevelIndex(j, k), j + 2)
                assert abs(np.sum(vals) * 2.0 ** (-(j + 2))) < 1e-12

    def test_grid_not_finer_than_level(self, haar):
        with pytest.raises(LevelTooCoarse):
            evaluate_on_dyadic_grid(haar, LevelIndex(3, 0), 3)

    def test_position_out_of_range(self, haar):
        with pytest.raises(DimensionMismatch):
            evaluate_on_dyadic_grid(haar, LevelIndex(2, 9), 4)

import math

import numpy as np
import pytest

from hyperwave import (
    DimensionMismatch,
    LevelBelowCoarsest,
    MultiscaleVector,
    build_transform,
    cascade_cost,
    check_entry_decay,
    forward,
    inverse,
    make_haar_basis,
)
from conftest import csr

SQ2 = math.sqrt(2.0)


def column_oracle(spec, m):
    """Independent assembly of T_m: each column is the basis function's
    single-scale expansion obtained by direct mask prolongation."""
    size = spec.delta_size(m)
    cols = []
    # Coarse scaling block: prolong unit vectors from j0 to m via M_{l,0}.
    for k in range(spec.delta_size(spec.j0)):
        c = np.zeros(spec.delta_size(spec.j0))
        c[k] = 1.0
        for level in range(spec.j0 + 1, m + 1):
            c = spec.masks(level).m0.apply(c)
        cols.append(c)
    # Wavelet blocks: one M_{j,1} column, then prolong.
    for j in range(spec.j0 + 1, m + 1):
        for k in range(spec.nabla_size(j)):
            d = np.zeros(spec.nabla_size(j))
            d[k] = 1.0
            c = spec.masks(j).m1.apply(d)
            for level in range(j + 1, m + 1):
                c = spec.masks(level).m0.apply(c)
            cols.append(c)
    assert len(cols) == size
    return np.stack(cols, axis=1)


class TestBuildTransform:
    def test_identity_at_coarsest(self, haar, haar_j2):
        for spec in (haar, haar_j2):
            t, td = build_transform(spec, spec.j0)
            n = spec.delta_size(spec.j0)
            np.testing.assert_array_equal(t.to_dense(), np.eye(n))
            np.testing.assert_array_equal(td.to_dense(), np.eye(n))

    def test_single_haar_step(self, haar):
        t, td = build_transform(haar, 1)
        expected = np.array([[1, 1], [1, -1]]) / SQ2
        np.testing.assert_allclose(t.to_dense(), expected, atol=1e-15)
        np.testing.assert_allclose(td.to_dense(), expected, atol=1e-15)

    def test_biorthogonality_m3_direct_multiplication(self, haar):
        t, td = build_transform(haar, 3)
        product = td.to_dense().T @ t.to_dense()
        assert np.abs(product - np.eye(8)).max() < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_columns_match_prolongation_oracle(self, haar, scaled, m):
        for spec in (haar, scaled):
            t, _ = build_transform(spec, m)
            np.testing.assert_allclose(t.to_dense(), column_oracle(spec, m), atol=1e-13)

    def test_dual_columns_match_dual_prolongation(self, scaled):
        # The dual transform is the primal construction over the dual masks.
        m = 4
        _, td = build_transform(scaled, m)
        t_of_dual = column_oracle_dual(scaled, m)
        np.testing.assert_allclose(td.to_dense(), t_of_dual, atol=1e-13)

    def test_below_coarsest_rejected(self, haar_j2):
        with pytest.raises(LevelBelowCoarsest):
            build_transform(haar_j2, 1)

    def test_built_once_per_spec(self):
        spec = make_haar_basis(0)
        pair = build_transform(spec, 5)
        assert build_transform(spec, 5) is pair
        assert build_transform(make_haar_basis(0), 5) is not pair


def column_oracle_dual(spec, m):
    cols = []
    for k in range(spec.delta_size(spec.j0)):
        c = np.zeros(spec.delta_size(spec.j0))
        c[k] = 1.0
        for level in range(spec.j0 + 1, m + 1):
            c = spec.masks(level).mt0.apply(c)
        cols.append(c)
    for j in range(spec.j0 + 1, m + 1):
        for k in range(spec.nabla_size(j)):
            d = np.zeros(spec.nabla_size(j))
            d[k] = 1.0
            c = spec.masks(j).mt1.apply(d)
            for level in range(j + 1, m + 1):
                c = spec.masks(level).mt0.apply(c)
            cols.append(c)
    return np.stack(cols, axis=1)


class TestForwardInverse:
    def test_single_haar_analysis_step(self, haar):
        a, b = 3.7, -1.2
        ms = forward(haar, np.array([a, b]))
        np.testing.assert_allclose(ms.blocks[0], [(a + b) / SQ2])
        np.testing.assert_allclose(ms.blocks[1], [(a - b) / SQ2])

    def test_single_haar_synthesis_step(self, haar):
        a, b = 0.9, 2.5
        ms = MultiscaleVector(
            j0=0, m=1,
            blocks=(np.array([(a + b) / SQ2]), np.array([(a - b) / SQ2])),
        )
        np.testing.assert_allclose(inverse(haar, ms), [a, b])

    def test_constant_input_has_zero_details(self, haar):
        ms = forward(haar, np.full(64, 2.5))
        for block in ms.blocks[1:]:
            assert np.abs(block).max() < 1e-14

    def test_zero_multiscale_vector_synthesizes_to_zero(self, haar):
        ms = MultiscaleVector(0, 3, tuple(np.zeros(n) for n in (1, 1, 2, 4)))
        np.testing.assert_array_equal(inverse(haar, ms), np.zeros(8))

    @pytest.mark.parametrize("m", list(range(0, 13, 3)))
    def test_round_trip_random_vectors(self, haar, m):
        rng = np.random.default_rng(m)
        for _ in range(10):
            c = rng.standard_normal(2 ** m)
            back = inverse(haar, forward(haar, c))
            assert np.abs(back - c).max() <= 1e-12 * max(1.0, np.abs(c).max())

    def test_round_trip_non_orthonormal_basis(self, scaled):
        rng = np.random.default_rng(5)
        for m in (1, 4, 8):
            c = rng.standard_normal(scaled.delta_size(m))
            back = inverse(scaled, forward(scaled, c))
            assert np.abs(back - c).max() <= 1e-12 * np.abs(c).max()

    def test_round_trip_shifted_coarsest_level(self, haar_j2):
        rng = np.random.default_rng(6)
        c = rng.standard_normal(haar_j2.delta_size(6))
        ms = forward(haar_j2, c)
        assert [len(b) for b in ms.blocks] == [4, 4, 8, 16, 32]
        assert np.abs(inverse(haar_j2, ms) - c).max() <= 1e-12 * np.abs(c).max()
        t, td = build_transform(haar_j2, 6)
        defect = (csr(td).T @ csr(t)).toarray() - np.eye(haar_j2.delta_size(6))
        assert np.abs(defect).max() <= 1e-12

    def test_matrix_free_agrees_with_explicit(self, haar, scaled):
        rng = np.random.default_rng(9)
        for spec in (haar, scaled):
            for m in (2, 5, 8):
                c = rng.standard_normal(spec.delta_size(m))
                t, td = build_transform(spec, m)
                ms = forward(spec, c)
                assert np.abs(csr(td).T @ c - ms.concat()).max() < 1e-12
                assert np.abs(csr(t) @ ms.concat() - inverse(spec, ms)).max() < 1e-12

    def test_length_mismatch_rejected(self, haar):
        with pytest.raises(DimensionMismatch):
            forward(haar, np.zeros(5))
        bad = MultiscaleVector(0, 2, (np.zeros(1), np.zeros(3), np.zeros(2)))
        with pytest.raises(DimensionMismatch):
            inverse(haar, bad)


class TestBiorthogonalityInvariant:
    @pytest.mark.parametrize("m", list(range(0, 11)))
    def test_haar_defect(self, haar, m):
        t, td = build_transform(haar, m)
        defect = (csr(td).T @ csr(t)).toarray() - np.eye(haar.delta_size(m))
        assert np.abs(defect).max() <= 1e-12

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_mask_basis_defect(self, scaled, m):
        t, td = build_transform(scaled, m)
        defect = (csr(td).T @ csr(t)).toarray() - np.eye(scaled.delta_size(m))
        assert np.abs(defect).max() <= 1e-10


class TestEntryDecay:
    def test_haar_m1_alpha2_ratio_is_one(self, haar):
        assert abs(check_entry_decay(haar, 1, 2.0) - 1.0) < 1e-12

    def test_haar_sweep_alpha4_bounded_by_two(self, haar):
        ratios = [check_entry_decay(haar, m, 4.0) for m in range(2, 9)]
        assert max(ratios) <= 2.0
        running = np.maximum.accumulate(ratios)
        assert running[-1] <= running[0] + 1e-12  # nonincreasing-bounded

    def test_scaled_basis_bounded(self, scaled):
        ratios = [check_entry_decay(scaled, m, 4.0) for m in range(2, 9)]
        assert max(ratios) <= 2.0

    def test_below_coarsest_rejected(self, haar):
        with pytest.raises(LevelBelowCoarsest):
            check_entry_decay(haar, 0, 2.0)


class TestCost:
    def test_cascade_cost_doubles_per_level(self, haar):
        ratios = [cascade_cost(haar, m + 1) / cascade_cost(haar, m) for m in (6, 8, 10)]
        for r in ratios:
            assert abs(r - 2.0) < 0.02

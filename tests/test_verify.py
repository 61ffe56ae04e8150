import dataclasses
import warnings

import numpy as np
import pytest

from hyperwave import (
    BandMatrix,
    ExponentOutOfRange,
    HyperwaveError,
    InvalidExponent,
    SizeTooLarge,
    check_biorthogonality,
    check_embedding_chain,
    check_kron_identity,
    check_riesz,
    check_transform_norms,
    hyper_forward,
    make_haar_basis,
    matrix_p_norm_bound,
    operator_p_norm_estimate,
    running_max_stabilizes,
)
from conftest import csr, make_hyper, random_hyper


def random_sparse_matrix(rng, max_size=8):
    size = int(rng.integers(2, max_size + 1))
    dense = np.zeros((size, size))
    nnz = int(rng.integers(1, size * size + 1))
    dense[rng.integers(0, size, nnz), rng.integers(0, size, nnz)] = rng.standard_normal(nnz)
    return BandMatrix.from_dense(dense)


class TestMatrixPNormBound:
    def test_identity_p_half(self):
        assert matrix_p_norm_bound(BandMatrix.identity(2), 0.5) == pytest.approx(1.0)

    def test_all_ones_p1_tight(self):
        a = BandMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
        bound = matrix_p_norm_bound(a, 1.0)
        assert bound == pytest.approx(2.0)
        # The exact l1 operator norm is the max column sum: the bound is tight.
        assert operator_p_norm_estimate(a, 1.0) == pytest.approx(2.0)

    def test_diagonal(self):
        a = BandMatrix.from_dense([[2.0, 0.0], [0.0, 3.0]])
        assert matrix_p_norm_bound(a, 1.0) == pytest.approx(3.0)

    def test_exponent_validation(self):
        with pytest.raises(InvalidExponent):
            matrix_p_norm_bound(BandMatrix.identity(2), 1.5)

    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_dominates_estimate_on_random_matrices(self, p):
        rng = np.random.default_rng(int(p * 100))
        for _ in range(50):
            a = random_sparse_matrix(rng)
            bound = matrix_p_norm_bound(a, p)
            est = operator_p_norm_estimate(a, p, trials=10,
                                           seed=int(rng.integers(1 << 30)))
            assert est <= bound


class TestOperatorPNormEstimate:
    def test_exact_column_sums_p1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dense = rng.standard_normal((6, 5))
            a = BandMatrix.from_dense(dense)
            assert operator_p_norm_estimate(a, 1.0) == pytest.approx(
                np.linalg.norm(dense, 1), rel=1e-14
            )

    def test_exact_row_sums_p_inf(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((4, 7))
        a = BandMatrix.from_dense(dense)
        assert operator_p_norm_estimate(a, np.inf) == pytest.approx(
            np.linalg.norm(dense, np.inf), rel=1e-14
        )

    def test_exact_spectral_norm_p2(self):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((9, 9))
        a = BandMatrix.from_dense(dense)
        assert operator_p_norm_estimate(a, 2.0) == pytest.approx(
            np.linalg.norm(dense, 2), rel=1e-10
        )
        d = BandMatrix.from_dense([[2.0, 0.0], [0.0, 3.0]])
        assert operator_p_norm_estimate(d, 2.0) == pytest.approx(3.0)

    def test_power_iteration_large_matrix(self, haar):
        from hyperwave import build_transform

        t, _ = build_transform(haar, 10)  # 1024 > dense-SVD cutoff
        assert operator_p_norm_estimate(t, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_lower_bound_for_intermediate_p(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((6, 6))
        a = BandMatrix.from_dense(dense)
        est = operator_p_norm_estimate(a, 1.5, trials=50, seed=0)
        # Interpolation bound: ||A||_1.5 <= ||A||_1^(2/3) ||A||_2^(1/3)... the
        # estimate must at least reach the column p-norms and stay below the
        # Riesz-Thorin interpolation bound.
        cols = (np.sum(np.abs(dense) ** 1.5, axis=0) ** (1 / 1.5)).max()
        upper = np.linalg.norm(dense, 1) ** (1 / 3) * np.linalg.norm(dense, 2) ** (2 / 3)
        assert cols <= est <= upper * (1 + 1e-12)


class TestKronIdentity:
    def test_scalars(self):
        a = BandMatrix.from_dense([[2.0]])
        b = BandMatrix.from_dense([[3.0]])
        for p in (1.0, 2.0, np.inf):
            assert check_kron_identity(a, b, p) == (6.0, 6.0)

    def test_identity_factor(self):
        rng = np.random.default_rng(4)
        b = BandMatrix.from_dense(rng.standard_normal((4, 4)))
        for p in (1.0, np.inf):
            lhs, rhs = check_kron_identity(BandMatrix.identity(3), b, p)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert rhs == pytest.approx(operator_p_norm_estimate(b, p))

    def test_random_pairs_all_exponents(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = BandMatrix.from_dense(rng.standard_normal((4, 4)))
            b = BandMatrix.from_dense(rng.standard_normal((4, 4)))
            for p, tol in ((1.0, 1e-12), (np.inf, 1e-12), (2.0, 1e-9)):
                lhs, rhs = check_kron_identity(a, b, p)
                assert abs(lhs - rhs) <= tol * max(1.0, rhs)

    def test_size_cap(self):
        big = BandMatrix.identity(65)
        with pytest.raises(SizeTooLarge):
            check_kron_identity(big, BandMatrix.identity(2), 1.0)

    def test_unsupported_exponent(self):
        with pytest.raises(InvalidExponent):
            check_kron_identity(BandMatrix.identity(2), BandMatrix.identity(2), 1.5)


class TestTransformNorms:
    def test_haar_p2_all_ones(self, haar):
        report = check_transform_norms(haar, 2.0, 8)
        for row in report.rows:
            for name in ("t_norm", "t_dual_norm", "t_trans_norm", "t_dual_trans_norm"):
                assert getattr(row, name) == pytest.approx(1.0, abs=1e-10)
        assert all(report.bounded.values())

    def test_haar_p1_growth_matches_coarse_column(self, haar):
        report = check_transform_norms(haar, 1.0, 8)
        for row in report.rows:
            # Coarse column has 2^m entries 2^{-m/2}: ||T_m||_1 >= 2^{m/2}.
            assert row.t_norm >= 2.0 ** (row.m / 2.0) - 1e-12
            assert row.t_norm_scaled >= 1.0 - 1e-12
        assert report.bounded["t_norm_scaled"]

    def test_haar_p07_transpose_stabilizes(self, haar):
        report = check_transform_norms(haar, 0.7, 10)
        assert report.bounded["t_trans_norm"]
        assert report.bounded["t_dual_trans_norm"]

    def test_scaled_basis_bounded(self, scaled):
        report = check_transform_norms(scaled, 1.0, 9)
        assert all(report.bounded.values())

    def test_shared_dual_estimated_once(self, tmp_path, monkeypatch):
        """Haar's dual transforms are its transforms, so lemma4 with default
        flags estimates each spectral norm once, not once per dual: 26
        calls, where estimating all four operators makes 52."""
        from hyperwave import cli, verify

        calls = []
        spectral = verify._spectral_norm
        monkeypatch.setattr(verify, "_spectral_norm",
                            lambda *a, **k: calls.append(a[0]) or spectral(*a, **k))
        assert cli.main(["verify", "--suite", "lemma4", "--out", str(tmp_path / "l4.csv")]) == 0
        assert len(calls) == 26

    def test_exponent_window_enforced(self, haar):
        with pytest.raises(ExponentOutOfRange):
            check_transform_norms(haar, 2.5, 4)
        with pytest.raises(ExponentOutOfRange):
            check_transform_norms(haar, 1.0 / 100.0, 4)


class TestBiorthogonalityCheck:
    def test_haar_small(self, haar):
        assert check_biorthogonality(haar, 1) <= 1e-15

    def test_haar_m8(self, haar):
        assert check_biorthogonality(haar, 8) <= 1e-13

    def test_detector_sensitivity_to_perturbation(self, haar):
        # Perturb one mask entry by 1e-3; the defect must be visible.
        quad = haar.masks(2)
        m1 = quad.m1.to_dense().copy()
        m1[0, 0] += 1e-3
        masks = {j: haar.masks(j) for j in range(1, 5)}
        masks[2] = quad._replace(m1=BandMatrix.from_dense(m1))
        spec = dataclasses.replace(haar, _masks=lambda j: masks[j], max_level=4)
        assert check_biorthogonality(spec, 4) >= 1e-4


class TestRieszCheck:
    def test_haar_condition_exactly_one(self, haar):
        for m in (0, 3, 6):
            assert check_riesz(haar, m) == pytest.approx(1.0, abs=1e-10)

    def test_haar_gram_diagonal_is_one(self, haar):
        from hyperwave import build_transform

        t, _ = build_transform(haar, 6)
        gram = (csr(t).T @ csr(t)).toarray()
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-12

    def test_scaled_basis_condition_stabilizes(self, scaled):
        conds = [check_riesz(scaled, m) for m in range(1, 8)]
        ratios = [b / a for a, b in zip(conds, conds[1:])]
        assert abs(ratios[-1] - 1.0) < 0.05
        # The scaled-Haar condition number is the wavelet scaling factor
        # (0.6 * sqrt(2))^2 away from 1, independent of m.
        expected = 1.0 / (0.6 * np.sqrt(2.0)) ** 2
        assert conds[-1] == pytest.approx(expected, rel=1e-10)


class TestEmbeddingChain:
    def test_diagonal_support_closed_form(self, haar):
        # Diagonal-level support: the change of basis is the identity and
        # the lower ratio is a pure weight comparison, <= 1 for s >= 0.
        u = make_hyper({((1, 1), (0, 0)): 1.0, ((3, 3), (2, 3)): -0.5}, 2, 4)
        lower, upper = check_embedding_chain(haar, u, 0.0, 0.25)
        tau = 1.0 / 0.75
        w_hyb = [2.0 ** (tau * (0.0 * m + 0.25 * 2 * m)) for m in (1, 3)]
        vals = [1.0 * 2.0 ** (2 * 1 * (0.5 - 1 / tau)),
                0.5 * 2.0 ** (2 * 3 * (0.5 - 1 / tau))]
        hyb = sum(w * abs(v) ** tau for w, v in zip(w_hyb, vals)) ** (1 / tau)
        w_iso = [2.0 ** (tau * 0.25 * m) for m in (1, 3)]
        iso = sum(w * abs(v) ** tau for w, v in zip(w_iso, vals)) ** (1 / tau)
        assert lower == pytest.approx(iso / hyb, rel=1e-12)
        assert lower <= 1.0
        assert upper == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector_raises(self, haar):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2).with_values(np.array([0.0]))
        with pytest.raises(ZeroDivisionError):
            check_embedding_chain(haar, u, 0.0, 0.25)

    @pytest.mark.parametrize("s", [-0.5, -1.0])
    def test_no_fine_index_raises(self, haar, s):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2)
        with pytest.raises(InvalidExponent, match="1/tau = s \\+ 1/2 > 0"):
            check_embedding_chain(haar, u, 0.0, s)

    @pytest.mark.parametrize("q, s", [(400.0, 0.25), (0.0, 200.0)])
    def test_overflowing_norms_raise(self, haar, q, s):
        u = random_hyper(haar, np.random.default_rng(3), 2, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # (0, 200) is outside the window
            with pytest.raises(HyperwaveError, match="^embedding norms not finite"):
                check_embedding_chain(haar, u, q, s)

    def test_warns_outside_theorem_window(self, haar):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2)
        with pytest.warns(UserWarning, match="embedding window"):
            check_embedding_chain(haar, u, -0.5, 0.25)

    def test_ratios_stable_across_truncation(self, haar):
        rng = np.random.default_rng(12)
        lows, ups = [], []
        for m in (4, 5, 6):
            lo_m = up_m = 0.0
            for _ in range(20):
                u = random_hyper(haar, rng, 2, m)
                lo, up = check_embedding_chain(haar, u, 0.0, 0.25)
                lo_m, up_m = max(lo_m, lo), max(up_m, up)
            lows.append(lo_m)
            ups.append(up_m)
        for series in (lows, ups):
            running = np.maximum.accumulate(series)
            assert running[-1] <= running[0] * 1.25

    def test_epsilon_sandwich_observation(self, haar):
        # Observation report, not a hard assertion: with a 0.1 regularity
        # margin on the isotropic side, both sandwich ratios stay finite and
        # their empirical constants are recorded in the test output.
        from hyperwave import besov_hybrid_norm, besov_iso_norm, iso_from_hyper
        from hyperwave import NormParams

        rng = np.random.default_rng(13)
        q, s, eps = 0.0, 0.25, 0.1
        tau = 1.0 / (s + 0.5)
        lower_c = upper_c = 0.0
        for m in (4, 5, 6):
            for _ in range(20):
                u = random_hyper(haar, rng, 2, m)
                v = iso_from_hyper(haar, u)
                hybrid = besov_hybrid_norm(u, NormParams(q, s, tau, tau))
                lower_c = max(lower_c,
                              besov_iso_norm(v, q + s - eps, tau, tau) / hybrid)
                upper_c = max(upper_c,
                              hybrid / besov_iso_norm(v, q + 2 * s + eps, tau, tau))
        print(f"[observation] sandwich constants (eps={eps}): "
              f"lower {lower_c:.4f}, upper {upper_c:.4f}")
        assert np.isfinite(lower_c) and np.isfinite(upper_c)


class TestRunningMax:
    def test_stable_series(self):
        assert running_max_stabilizes([1.0, 2.0, 2.05, 2.1, 2.1])

    def test_growing_series(self):
        assert not running_max_stabilizes([1.0, 2.0, 4.0, 8.0, 16.0])

    def test_short_series(self):
        assert not running_max_stabilizes([1.0, 1.0])

    def test_zero_series(self):
        assert running_max_stabilizes([0.0, 0.0, 0.0])

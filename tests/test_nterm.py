import dataclasses
import itertools

import numpy as np
import pytest

from hyperwave import (
    CoeffVector,
    HyperwaveError,
    InsufficientPoints,
    InvalidExponent,
    NTermResult,
    NormParams,
    WrongSystem,
    besov_hybrid_norm,
    best_nterm,
    error_curve,
    fit_rate,
    hyper_forward,
    iso_from_hyper,
    jackson_bernstein_ratios,
    rescale,
    sobolev_norm_hyper,
    weak_ltau,
)
from conftest import make_hyper, random_sparse_hyper


def brute_force_error(u, q, n):
    """Minimum weighted-l2 tail over all supports of size n (small inputs)."""
    w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
    total = np.sum(w ** 2)
    best = total
    for keep in itertools.combinations(range(len(w)), min(n, len(w))):
        kept = np.sum(w[list(keep)] ** 2)
        best = min(best, total - kept)
    return np.sqrt(max(best, 0.0))


class TestBestNTerm:
    def test_sort_and_sum_tails(self):
        u = make_hyper({((0, 0), (0, 0)): 3.0, ((1, 1), (0, 0)): -2.0,
                        ((2, 2), (0, 0)): 1.0}, 2, 3)
        res = error_curve(u, 0.0, [0, 1, 2, 3])
        assert res.errors[0] == pytest.approx(np.sqrt(14.0))
        assert res.errors[1] == pytest.approx(np.sqrt(5.0))
        assert res.errors[2] == pytest.approx(1.0)
        assert res.errors[3] == pytest.approx(0.0, abs=0)

    def test_weighting_prefers_fine_level_at_positive_q(self):
        u = make_hyper({((0, 0), (0, 0)): 1.0, ((2, 1), (0, 0)): 1.0}, 2, 3)
        res = best_nterm(u, 1.0, 1)
        (key,) = res.support
        assert key.levels == (2, 1)
        assert res.errors[1] == pytest.approx(1.0)

    def test_error_zero_once_support_exhausted(self, haar):
        rng = np.random.default_rng(0)
        u = random_sparse_hyper(haar, rng, 2, 4, 12)
        assert best_nterm(u, 0.3, 12).errors[12] == 0.0
        assert best_nterm(u, 0.3, 40).errors[40] == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.7, -0.4])
    def test_greedy_matches_brute_force(self, haar, q):
        rng = np.random.default_rng(42)
        for _ in range(5):
            u = random_sparse_hyper(haar, rng, 2, 3, 7)
            for n in range(4):
                got = best_nterm(u, q, n).errors[n]
                assert got == pytest.approx(brute_force_error(u, q, n), rel=1e-12)

    def test_pythagoras(self, haar):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = random_sparse_hyper(haar, rng, 2, 5, 30)
            q = float(rng.uniform(-0.5, 0.5))
            w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
            res = error_curve(u, q, list(range(0, 31, 5)))
            e0sq = res.errors[0] ** 2
            for n, e in res.errors.items():
                kept = np.sum(np.sort(w ** 2)[::-1][:n])
                assert abs(e ** 2 + kept - e0sq) <= 1e-12 * max(e0sq, 1.0)

    def test_selection_invariant_under_scaling(self, haar):
        rng = np.random.default_rng(2)
        u = random_sparse_hyper(haar, rng, 2, 4, 15)
        base = set(best_nterm(u, 0.25, 6).support)
        for c in (3.0, -0.001):
            scaled_support = set(best_nterm(u.with_values(c * u.values), 0.25, 6).support)
            assert scaled_support == base

    def test_deterministic_tie_breaking(self):
        u = make_hyper({((1, 1), (0, 0)): 1.0, ((1, 1), (0, 1)): 1.0,
                        ((0, 1), (0, 0)): 1.0}, 2, 2)
        (key,) = best_nterm(u, 0.0, 1).support
        assert key.levels == (0, 1)  # lexicographically smallest level vector


class TestErrorCurve:
    def test_matches_pointwise_best_nterm(self, haar):
        rng = np.random.default_rng(3)
        u = random_sparse_hyper(haar, rng, 2, 5, 40)
        grid = [0, 1, 2, 5, 17, 40]
        curve = error_curve(u, 0.45, grid)
        for n in grid:
            assert curve.errors[n] == best_nterm(u, 0.45, n).errors[n]

    def test_strictly_decreasing_until_exhausted(self, haar):
        rng = np.random.default_rng(4)
        u = random_sparse_hyper(haar, rng, 2, 4, 32)
        curve = error_curve(u, 0.0, [1, 2, 4, 8, 16, 32])
        errs = [curve.errors[n] for n in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_n0_is_full_weighted_norm(self, haar):
        rng = np.random.default_rng(5)
        u = random_sparse_hyper(haar, rng, 2, 4, 10)
        curve = error_curve(u, 0.8, [0])
        assert curve.errors[0] == pytest.approx(sobolev_norm_hyper(u, 0.8), rel=1e-12)

    def test_descending_grid_rejected(self, haar):
        rng = np.random.default_rng(6)
        u = random_sparse_hyper(haar, rng, 2, 3, 5)
        with pytest.raises(InsufficientPoints):
            error_curve(u, 0.0, [4, 2])


def dense_vectors(spec):
    """A hyperbolic vector and its isotropic image for each n = 1..3, with
    repeated moduli so that the index tie-break decides part of the order."""
    rng = np.random.default_rng(12)
    for n, m in ((1, 5), (2, 3), (3, 2)):
        size = spec.delta_size(m)
        u = hyper_forward(spec, n, rng.integers(-2, 3, (size,) * n).astype(float))
        yield u
        yield iso_from_hyper(spec, u)


def eager_support(u, q, n):
    """The keys of the n largest H^q moduli, ties by index order, built at once."""
    w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
    order = np.lexsort((*u.index_columns().T[::-1], -w))
    return u.index_keys(order[:n])


class TestLazySupport:
    def test_error_curve_builds_no_keys(self, haar, monkeypatch):
        def refuse(self, rows=slice(None)):
            raise AssertionError("index_keys called")

        vectors = list(dense_vectors(haar))
        expected = [error_curve(u, 0.3, [0, 2, 5, 10 ** 6]).errors for u in vectors]
        monkeypatch.setattr(CoeffVector, "index_keys", refuse)
        for u, errors in zip(vectors, expected):
            res = error_curve(u, 0.3, [0, 2, 5, 10 ** 6])
            assert res.errors == errors and res.q == 0.3
            with pytest.raises(AssertionError, match="index_keys called"):
                res.support

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, "nnz+5"])
    def test_first_read_equals_eager_keys(self, haar, n_max):
        for u in dense_vectors(haar):
            top = u.num_entries + 5 if n_max == "nnz+5" else n_max
            support = error_curve(u, 0.25, [0, top]).support
            assert support == eager_support(u, 0.25, top)
            assert type(support) is tuple
            assert len(support) == min(top, u.num_entries)

    def test_second_read_returns_same_object(self, haar):
        for u in dense_vectors(haar):
            res = error_curve(u, 0.0, [3])
            assert res.support is res.support

    def test_equality_and_positional_construction(self, haar):
        u = next(dense_vectors(haar))
        lazy = error_curve(u, 0.5, [1, 4])
        built = NTermResult(eager_support(u, 0.5, 4), dict(lazy.errors), 0.5)
        assert built == error_curve(u, 0.5, [1, 4])
        assert lazy == built and built == lazy
        assert lazy != NTermResult(eager_support(u, 0.5, 3), dict(lazy.errors), 0.5)
        assert lazy != NTermResult(built.support, {**lazy.errors, 4: 1.0}, 0.5)
        assert lazy != NTermResult(built.support, dict(lazy.errors), 0.0)
        assert NTermResult(support=built.support, errors=lazy.errors, q=0.5) == built
        assert NTermResult((), {4: 1.0}, 0.0) == NTermResult((), {4: 1.0}, 0.0)

    def test_frozen(self, haar):
        res = error_curve(next(dense_vectors(haar)), 0.0, [2])
        for name, value in (("support", ()), ("errors", {}), ("q", 1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, name, value)
        assert len(res.support) == 2


class TestNormalization:
    """N-term quantities read the L^2-normalized values, whatever
    normalization the vector carries."""

    @pytest.mark.parametrize("p", [1.0, 0.7, np.inf])
    def test_rescaled_vector_gives_same_results(self, haar, p):
        rng = np.random.default_rng(12)
        vectors = (hyper_forward(haar, 2, rng.standard_normal((16, 16))),
                   random_sparse_hyper(haar, rng, 3, 4, 60))
        for u in vectors:
            x, grid = rescale(u, p), list(range(u.num_entries + 1))
            for q in (0.0, 0.25):
                want, got = error_curve(u, q, grid), error_curve(x, q, grid)
                np.testing.assert_allclose(list(got.errors.values()),
                                           list(want.errors.values()), rtol=1e-12, atol=0)
                assert got.errors[0] == pytest.approx(sobolev_norm_hyper(u, q), rel=1e-12)
                assert got.support == want.support  # the data hold no ties
                for r in (0.5, 1.0):
                    np.testing.assert_allclose(jackson_bernstein_ratios(x, q, r),
                                               jackson_bernstein_ratios(u, q, r), rtol=1e-12)


class TestFitRate:
    def test_exact_power_law(self):
        curve = NTermResult((), {n: float(n) ** -1.0 for n in (4, 8, 16, 32, 64)}, 0.0)
        assert fit_rate(curve, 4, 64) == pytest.approx(1.0, abs=1e-10)

    def test_intercept_invariance(self):
        curve = NTermResult((), {n: 5.0 * n ** -0.5 for n in (4, 8, 16, 32)}, 0.0)
        assert fit_rate(curve, 4, 32) == pytest.approx(0.5, abs=1e-10)

    def test_requires_three_points(self):
        curve = NTermResult((), {4: 1.0, 8: 0.5}, 0.0)
        with pytest.raises(InsufficientPoints):
            fit_rate(curve, 4, 8)

    def test_zero_errors_excluded(self):
        curve = NTermResult((), {2: 1.0, 4: 0.5, 8: 0.25, 16: 0.0}, 0.0)
        assert fit_rate(curve, 2, 16) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_error_in_window_raises(self, bad):
        curve = NTermResult((), {1: bad, 2: 1.0, 4: bad, 8: 0.25, 16: 0.1}, 0.0)
        with pytest.raises(InsufficientPoints, match=rf"^rate fit needs finite errors, "
                           rf"got E_N={bad} at N=4$"):
            fit_rate(curve, 2, 16)

    def test_prescribed_decay_data_rate_near_one(self, haar):
        # Independent oracle first: the curve itself, on data with unit
        # Besov mass density per level block at (q, r) = (0, 1).
        from hyperwave import hyper_forward, sample_function

        data = sample_function("random_decay", {"q": 0.0, "r": 1.0, "seed": 9}, 2, 7)
        u = hyper_forward(haar, 2, data)
        grid = [16 * 2 ** i for i in range(9)]
        curve = error_curve(u, 0.0, grid)
        assert abs(fit_rate(curve, 16, 4096) - 1.0) <= 0.15


class TestJacksonBernstein:
    def test_single_coefficient_ratios_are_one(self):
        for q, r in ((0.0, 1.0), (0.5, 1.0), (-0.25, 0.5)):
            u = make_hyper({((2, 3), (0, 0)): 0.7}, 2, 3)
            jackson, bernstein = jackson_bernstein_ratios(u, q, r)
            assert jackson == pytest.approx(1.0, rel=1e-12)
            assert bernstein == pytest.approx(1.0, rel=1e-12)

    def test_permutation_within_level_block_invariance(self, haar):
        u1 = make_hyper({((2, 2), (0, 0)): 0.5, ((2, 2), (1, 1)): -1.5}, 2, 3)
        u2 = make_hyper({((2, 2), (0, 0)): -1.5, ((2, 2), (1, 1)): 0.5}, 2, 3)
        assert jackson_bernstein_ratios(u1, 0.25, 0.5) == pytest.approx(
            jackson_bernstein_ratios(u2, 0.25, 0.5)
        )

    def test_random_sparse_bounded(self, haar):
        rng = np.random.default_rng(7)
        for q, r in ((0.0, 1.0), (0.25, 0.5), (-0.25, 0.5)):
            for _ in range(25):
                m = int(rng.integers(5, 9))
                u = random_sparse_hyper(haar, rng, 2, m, 64)
                jackson, bernstein = jackson_bernstein_ratios(u, q, r)
                assert jackson <= 4.0
                assert bernstein <= 4.0

    @pytest.mark.parametrize("tail", ["flat", "gaussian", "pareto"])
    def test_ratios_never_exceed_one(self, haar, tail):
        """With p = tau the Besov norm is the l^tau norm of the H^q-weighted
        moduli, so Stechkin's lemma bounds the Jackson ratio and Hoelder's
        inequality the Bernstein ratio by 1 for r >= 0, on any vector."""
        rng = np.random.default_rng(11)
        for n, m, nnz in ((1, 8, 40), (2, 6, 64), (2, 8, 300), (3, 4, 100)):
            for q, r in ((0.0, 0.25), (0.25, 0.5), (-0.25, 1.0), (0.5, 2.0), (0.0, 0.0)):
                u = random_sparse_hyper(haar, rng, n, m, nnz)
                values = {"flat": np.ones(nnz), "gaussian": rng.standard_normal(nnz),
                          "pareto": rng.pareto(0.7, nnz) + 1e-3}[tail]
                u = u.with_values(values * rng.choice([-1.0, 1.0], nnz))
                jackson, bernstein = jackson_bernstein_ratios(u, q, r)
                assert jackson <= 1.0 + 1e-12
                assert bernstein <= 1.0 + 1e-12

    def test_zero_vector_raises(self):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2).with_values(np.array([0.0]))
        with pytest.raises(ZeroDivisionError):
            jackson_bernstein_ratios(u, 0.0, 1.0)

    @pytest.mark.parametrize("entries", [
        {((0, 0), (0, 0)): 1e300, ((30, 30), (0, 0)): 1e300},
        {((0, 0), (0, 0)): np.nan, ((1, 1), (0, 0)): 1.0},
        {((0, 0), (0, 0)): np.inf, ((1, 1), (0, 0)): 1.0},
    ], ids=["squares-overflow", "nan-entry", "inf-entry"])
    def test_norm_not_finite_raises(self, entries):
        # At 1e300 the squares of the H^q prefix sums overflow; a NaN or
        # infinite entry makes both norms so.  No RuntimeWarning escapes.
        u = make_hyper(entries, 2, 30)
        with pytest.raises(HyperwaveError, match=r"^Jackson/Bernstein norms not finite in "
                                                 r"float64: Besov \S+, H\^q (inf|nan)$"):
            jackson_bernstein_ratios(u, 0.0, 1.0)

    def test_vector_without_entries_raises(self):
        with pytest.raises(ZeroDivisionError, match="zero vector"):
            jackson_bernstein_ratios(make_hyper({}, 2, 2), 0.0, 1.0)

    def test_isotropic_vector_raises(self, haar):
        v = iso_from_hyper(haar, make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2))
        with pytest.raises(WrongSystem, match="expects hyperbolic coefficients"):
            jackson_bernstein_ratios(v, 0.0, 1.0)

    @pytest.mark.parametrize("r", [-0.5, -0.6, float("nan")])
    def test_r_without_tau_raises(self, r):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2)
        with pytest.raises(InvalidExponent, match=r"^r must be above -1/2"):
            jackson_bernstein_ratios(u, 0.0, r)

    def test_weak_ltau_chain(self, haar):
        # N^r E_N <= C weak_ltau(weights) <= C ltau norm, with one fitted C.
        rng = np.random.default_rng(8)
        r = 1.0
        tau = 1.0 / (r + 0.5)
        worst_first = worst_second = 0.0
        for _ in range(50):
            u = random_sparse_hyper(haar, rng, 2, 6, 32)
            q = 0.0
            w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
            weak = weak_ltau(w, tau)
            ltau = float(np.sum(w ** tau) ** (1.0 / tau))
            curve = error_curve(u, q, list(range(1, 33)))
            sup = max(n ** r * curve.errors[n] for n in range(1, 33))
            worst_first = max(worst_first, sup / weak)
            worst_second = max(worst_second, weak / ltau)
        assert worst_first <= 4.0
        assert worst_second <= 1.0 + 1e-12

    def test_outside_window_observation(self, haar):
        # Observation, not an assertion: q beyond the Haar window (-1/2, 1/2)
        # is outside the theory's hypotheses; record how the constants react.
        rng = np.random.default_rng(9)
        for q in (-0.6, 0.6):
            sup_j = sup_b = 0.0
            for _ in range(20):
                u = random_sparse_hyper(haar, rng, 2, 6, 32)
                j, b = jackson_bernstein_ratios(u, q, 1.0)
                sup_j, sup_b = max(sup_j, j), max(sup_b, b)
            print(f"[observation] q={q} outside window: "
                  f"jackson {sup_j:.3f}, bernstein {sup_b:.3f}")
            assert np.isfinite(sup_j) and np.isfinite(sup_b)

    def test_besov_norm_equals_ltau_of_weights(self, haar):
        # The rescaling identity behind the Jackson proof, exact in float.
        rng = np.random.default_rng(10)
        u = random_sparse_hyper(haar, rng, 2, 5, 20)
        for r in (1.0, 0.5):
            tau = 1.0 / (r + 0.5)
            q = 0.25
            w = 2.0 ** (q * u.level_linf()) * np.abs(u.values)
            ltau = float(np.sum(w ** tau) ** (1.0 / tau))
            besov = besov_hybrid_norm(u, NormParams(q, r, tau, tau))
            assert besov == pytest.approx(ltau, rel=1e-12)

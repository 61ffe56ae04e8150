import numpy as np
import pytest

from hyperwave import (
    HYPERBOLIC,
    InvalidExponent,
    NormParams,
    WrongSystem,
    besov_hybrid_norm,
    besov_iso_norm,
    gk_norm,
    hyper_forward,
    iso_from_hyper,
    seqnorms,
    sobolev_norm_hyper,
    sobolev_norm_iso,
    weak_ltau,
)
from conftest import from_index_arrays, make_hyper, make_iso, random_hyper


class TestBesovIsoNorm:
    def test_single_coefficient(self):
        v = make_iso({(2, (1, 1), (0, 0)): 1.0}, 2, 4)
        assert besov_iso_norm(v, alpha=1.0, p=2.0, tau=2.0) == pytest.approx(4.0)

    def test_zero_vector(self):
        v = make_iso({(1, (0, 1), (0, 0)): 0.0}, 2, 4)
        v = v.with_values(np.array([0.0]))
        assert besov_iso_norm(v, 1.0) == pytest.approx(0.0, abs=0)

    def test_alpha_zero_is_plain_l2(self, haar):
        rng = np.random.default_rng(0)
        v = iso_from_hyper(haar, random_hyper(haar, rng, 2, 4))
        assert besov_iso_norm(v, 0.0, 2.0, 2.0) == pytest.approx(
            float(np.linalg.norm(v.values)), rel=1e-13
        )

    def test_wrong_system(self):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2)
        with pytest.raises(WrongSystem):
            besov_iso_norm(u, 1.0)


class TestBesovHybridNorm:
    @pytest.mark.parametrize("q,s", [(1.0, 0.25), (1.0, 0.5), (1.0, 1.0)])
    def test_single_coefficient_rescale_cancellation(self, q, s):
        # With 1/tau = s + 1/2 and p = tau, the mixed weight cancels the
        # renormalization and only 2^{q |j|_inf} survives.
        tau = 1.0 / (s + 0.5)
        u = make_hyper({((2, 3), (0, 0)): 1.0}, 2, 4)
        got = besov_hybrid_norm(u, NormParams(q, s, tau, tau))
        assert got == pytest.approx(2.0 ** (q * 3), rel=1e-12)

    def test_all_zero_parameters_is_l2(self, haar):
        rng = np.random.default_rng(1)
        u = random_hyper(haar, rng, 2, 4)
        got = besov_hybrid_norm(u, NormParams(0.0, 0.0, 2.0, 2.0))
        assert got == pytest.approx(float(np.linalg.norm(u.values)), rel=1e-13)

    def test_p_infinity_modification(self):
        u = make_hyper({((1, 1), (0, 0)): 3.0, ((2, 1), (1, 0)): -4.0}, 2, 2)
        # p=inf: per-block max of L^inf-renormalized values; tau=inf: max block
        got = besov_hybrid_norm(u, NormParams(0.0, 0.0, np.inf, np.inf))
        expected = max(3.0 * 2.0 ** (2 * 0.5), 4.0 * 2.0 ** (3 * 0.5))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_tau_infinity_outer_max(self):
        u = make_hyper({((1, 0), (0, 0)): 1.0, ((3, 3), (0, 0)): 1.0}, 2, 3)
        got = besov_hybrid_norm(u, NormParams(1.0, 0.0, 2.0, np.inf))
        assert got == pytest.approx(2.0 ** 3, rel=1e-13)

    def test_wrong_system(self):
        v = make_iso({(1, (0, 1), (0, 0)): 1.0}, 2, 2)
        with pytest.raises(WrongSystem):
            besov_hybrid_norm(v, NormParams(0.0, 0.0))


class TestDefinitionalIdentities:
    def test_gk_single_coefficient(self):
        u = make_hyper({((2, 2), (0, 0)): 1.0}, 2, 3)
        assert gk_norm(u, -1.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_sobolev_hyper_single_coefficient(self):
        u = make_hyper({((3, 1), (0, 0)): 1.0}, 2, 3)
        assert sobolev_norm_hyper(u, 1.0) == pytest.approx(8.0, rel=1e-14)

    def test_sobolev_iso_single_coefficient(self):
        v = make_iso({(2, (1, 0), (0, 0)): 1.0}, 2, 3)
        assert sobolev_norm_iso(v, 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_hybrid_equals_gk_bitwise(self, haar):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = random_hyper(haar, rng, 2, 4)
            q, s = rng.uniform(-1, 1, 2)
            # The vector keeps its grid; its twin is built from index arrays.
            for x in (u, from_index_arrays(u)):
                assert besov_hybrid_norm(x, NormParams(q, s, 2.0, 2.0)) == gk_norm(u, q, s)

    def test_identity_chain(self, haar):
        rng = np.random.default_rng(3)
        u = random_hyper(haar, rng, 2, 4)
        q = 0.37
        a = besov_hybrid_norm(u, NormParams(q, 0.0, 2.0, 2.0))
        b = sobolev_norm_hyper(u, q)
        c = gk_norm(u, q, 0.0)
        assert a == b == c

    def test_iso_besov_equals_sobolev_bitwise(self, haar):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = iso_from_hyper(haar, random_hyper(haar, rng, 2, 3))
            s = float(rng.uniform(-1, 1))
            for x in (v, from_index_arrays(v)):
                assert besov_iso_norm(x, s, 2.0, 2.0) == sobolev_norm_iso(v, s)


class TestNormProperties:
    def test_absolute_homogeneity(self, haar):
        rng = np.random.default_rng(5)
        u = random_hyper(haar, rng, 2, 4)
        params = NormParams(0.3, -0.2, 1.5, 0.8)
        base = besov_hybrid_norm(u, params)
        for c in (-2.0, 0.5, 7.25):
            got = besov_hybrid_norm(u.with_values(c * u.values), params)
            assert got == pytest.approx(abs(c) * base, rel=1e-12)

    def test_monotone_in_weights(self, haar):
        rng = np.random.default_rng(6)
        u = random_hyper(haar, rng, 2, 4)
        grid = [-0.5, 0.0, 0.4, 1.0]
        for tau, p in ((2.0, 2.0), (1.0, 1.0)):
            norm = {
                (q, s): besov_hybrid_norm(u, NormParams(q, s, p, tau))
                for q in grid for s in grid
            }
            for (qa, sa), lo in norm.items():
                for (qb, sb), hi in norm.items():
                    if qb >= qa and sb >= sa:
                        assert hi >= lo * (1 - 1e-13)
            assert all(np.isfinite(list(norm.values())))

    def test_cross_system_equivalence_non_orthonormal(self, scaled):
        # Empirical two-sided equivalence constant for the scaled basis,
        # where the change of basis is not an isometry.
        rng = np.random.default_rng(7)
        worst = 1.0
        for m in (3, 4, 5):
            for _ in range(20):
                u = random_hyper(scaled, rng, 2, m)
                v = iso_from_hyper(scaled, u)
                for s in (-0.3, 0.0, 0.3):
                    r = sobolev_norm_hyper(u, s) / sobolev_norm_iso(v, s)
                    worst = max(worst, r, 1.0 / r)
        assert worst <= 10.0

    def test_deterministic_summation(self, haar):
        rng = np.random.default_rng(8)
        u = random_hyper(haar, rng, 2, 5)
        params = NormParams(0.1, 0.2, 2.0, 2.0)
        a = besov_hybrid_norm(u, params)
        b = besov_hybrid_norm(u, params)
        assert a == b


class TestStoredBlockNorms:
    """Each vector bins its block sums once per exponent p and keeps them."""

    def test_block_norms_stored_once_per_exponent(self, haar, monkeypatch):
        calls = []
        monkeypatch.setattr(seqnorms, "_block_norm",
                            lambda *a, _f=seqnorms._block_norm: calls.append(a[-1]) or _f(*a))
        u = hyper_forward(haar, 2, np.random.default_rng(9).standard_normal((16, 16)))
        v = iso_from_hyper(haar, u)
        for x in (u, v, from_index_arrays(u), from_index_arrays(v)):
            hyper = x.system == HYPERBOLIC
            calls.clear()
            norms = [sobolev_norm_hyper(x, s) if hyper else sobolev_norm_iso(x, s)
                     for s in (-0.3, 0.0, 0.3, -0.3)]
            assert calls == [2.0] and norms[0] == norms[3]
            besov = (besov_hybrid_norm(x, NormParams(0.1, 0.2, 1.0, 1.0)) if hyper
                     else besov_iso_norm(x, 0.1, 1.0, 1.0))
            assert calls == [2.0, 1.0] and besov > 0
            stored = vars(x)["_block_norms"]
            assert sorted(stored) == [1.0, 2.0]
            for levels, inner in stored.values():
                assert not (levels.flags.writeable or inner.flags.writeable)
                # One entry per block: at most 5^2 level pairs or 5 levels.
                assert len(levels) == len(inner) <= (25 if hyper else 5)


class TestEmptyVectors:
    """A vector with no entries takes the general path of every norm: no
    block holds an entry, so each norm is 0.0, at tau = inf too."""

    @pytest.mark.parametrize("p, tau", [(1.0, 1.0), (2.0, 2.0), (np.inf, np.inf), (0.5, np.inf)])
    def test_norms_are_zero(self, haar, p, tau):
        u = make_hyper({}, 2, 3)
        kept = hyper_forward(haar, 2, np.zeros((8, 8)))
        for x in (u, kept):
            assert x.num_entries == 0
            assert besov_hybrid_norm(x, NormParams(0.5, 0.25, p, tau)) == 0.0
            assert besov_iso_norm(iso_from_hyper(haar, x), 0.5, p, tau) == 0.0
        assert besov_iso_norm(from_index_arrays(iso_from_hyper(haar, u)), 0.5, p, tau) == 0.0

    def test_weak_ltau_is_zero(self):
        assert weak_ltau([], 1.0) == 0.0


class TestWeakLtau:
    def test_harmonic_sequence(self):
        assert weak_ltau([1.0, 0.5, 1 / 3, 0.25], 1.0) == pytest.approx(1.0)

    def test_single_value(self):
        assert weak_ltau([-3.25], 0.7) == pytest.approx(3.25)

    def test_zero_sequence(self):
        assert weak_ltau([0.0, 0.0], 1.0) == 0.0

    def test_dominated_by_ltau_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.standard_normal(rng.integers(1, 40))
            tau = float(rng.uniform(0.3, 3.0))
            ltau = float(np.sum(np.abs(x) ** tau) ** (1.0 / tau))
            assert weak_ltau(x, tau) <= ltau * (1 + 1e-12)

    def test_invalid_tau(self):
        with pytest.raises(InvalidExponent):
            weak_ltau([1.0], 0.0)


class TestNormParams:
    def test_invalid_exponents_rejected(self):
        with pytest.raises(InvalidExponent):
            NormParams(0.0, 0.0, p=0.0)
        with pytest.raises(InvalidExponent):
            NormParams(0.0, 0.0, tau=-1.0)

    def test_sobolev_window_predicate(self):
        # Haar window is (-1/2, 1/2) for both s and q+s.
        assert NormParams(0.0, 0.3).in_sobolev_window(0.5, 0.5)
        assert not NormParams(0.0, 0.7).in_sobolev_window(0.5, 0.5)
        assert not NormParams(0.4, 0.3).in_sobolev_window(0.5, 0.5)
        # The formula itself stays defined outside the window.
        u = make_hyper({((2, 2), (0, 0)): 1.0}, 2, 3)
        assert np.isfinite(besov_hybrid_norm(u, NormParams(0.0, 0.7)))

"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from hyperwave import (
    BandMatrix,
    NormParams,
    besov_hybrid_norm,
    besov_iso_norm,
    check_biorthogonality,
    check_embedding_chain,
    check_entry_decay,
    check_kron_identity,
    check_transform_norms,
    error_curve,
    fit_rate,
    forward,
    gk_norm,
    hyper_forward,
    hyper_inverse,
    inverse,
    iso_from_hyper,
    jackson_bernstein_ratios,
    make_haar_basis,
    matrix_p_norm_bound,
    operator_p_norm_estimate,
    sample_function,
    sobolev_norm_hyper,
    sobolev_norm_iso,
)
from conftest import child_env, random_hyper, random_sparse_hyper

SPEC = make_haar_basis(0)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_c01_round_trip_transforms():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for m, reps in ((4, 34), (8, 33), (12, 33)):
        size = SPEC.delta_size(m)
        for _ in range(reps):
            c = rng.standard_normal(size)
            back = inverse(SPEC, forward(SPEC, c))
            worst = max(worst, np.abs(back - c).max() / np.abs(c).max())
            count += 1
    for n, m, reps in ((1, 7, 20), (2, 5, 20), (2, 7, 20), (3, 4, 20), (3, 5, 20)):
        size = SPEC.delta_size(m)
        for _ in range(reps):
            a = rng.standard_normal((size,) * n)
            back = hyper_inverse(SPEC, hyper_forward(SPEC, n, a))
            worst = max(worst, np.abs(back - a).max() / np.abs(a).max())
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0 and count == 200
    report(1, "round-trip transforms", ok,
           f"{count} inputs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_biorthogonality():
    worst = max(check_biorthogonality(SPEC, m) for m in range(0, 11))
    report(2, "biorthogonality defect", worst <= 1e-12, f"max defect {worst:.2e}")


def test_c03_matrix_p_norm_bound():
    rng = np.random.default_rng(103)
    violations = 0
    checked = 0
    for _ in range(200):
        size = int(rng.integers(2, 10))
        dense = np.zeros((size, size))
        nnz = int(rng.integers(1, size * size + 1))
        dense[rng.integers(0, size, nnz), rng.integers(0, size, nnz)] = (
            rng.standard_normal(nnz)
        )
        a = BandMatrix.from_dense(dense)
        for p in (0.5, 0.8, 1.0):
            bound = matrix_p_norm_bound(a, p)
            est = operator_p_norm_estimate(a, p, trials=10,
                                           seed=int(rng.integers(1 << 30)))
            checked += 1
            if est > bound:
                violations += 1
    report(3, "p-norm bound dominates estimate", violations == 0,
           f"{checked} checks, {violations} violations")


def test_c04_coefficient_decay():
    worst = max(check_entry_decay(SPEC, m, 4.0) for m in range(1, 11))
    report(4, "coefficient decay ratio", worst <= 2.0, f"worst ratio {worst:.3f}")


def test_c05_transform_norm_growth():
    ok = True
    details = []
    for p in (0.6, 1.0, 1.5, 2.0):
        rep = check_transform_norms(SPEC, p, 12, trials=20, seed=105)
        flags = rep.bounded
        ok = ok and all(flags.values())
        details.append(f"p={p}:{'ok' if all(flags.values()) else 'UNSTABLE'}")
        if p == 2.0:
            dev = max(
                max(abs(r.t_norm - 1), abs(r.t_dual_norm - 1),
                    abs(r.t_trans_norm - 1), abs(r.t_dual_trans_norm - 1))
                for r in rep.rows
            )
            ok = ok and dev <= 1e-10
            details.append(f"p=2 unit dev {dev:.1e}")
    report(5, "transform norm growth", ok, ", ".join(details))


def test_c06_kronecker_norms():
    rng = np.random.default_rng(106)
    worst = {1.0: 0.0, np.inf: 0.0, 2.0: 0.0}
    for _ in range(20):
        a = BandMatrix.from_dense(rng.standard_normal((4, 4)))
        b = BandMatrix.from_dense(rng.standard_normal((4, 4)))
        for p in worst:
            lhs, rhs = check_kron_identity(a, b, p)
            worst[p] = max(worst[p], abs(lhs - rhs))
    ok = worst[1.0] <= 1e-12 and worst[np.inf] <= 1e-12 and worst[2.0] <= 1e-9
    report(6, "Kronecker norm identity", ok,
           f"p=1:{worst[1.0]:.1e} p=inf:{worst[np.inf]:.1e} p=2:{worst[2.0]:.1e}")


def test_c07_norm_identities_bitwise():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(100):
        u = random_sparse_hyper(SPEC, rng, 2, 5, 40)
        q, s = (float(x) for x in rng.uniform(-1, 1, 2))
        ok = ok and besov_hybrid_norm(u, NormParams(q, s, 2.0, 2.0)) == gk_norm(u, q, s)
        v = iso_from_hyper(SPEC, u)
        alpha = float(rng.uniform(-1, 1))
        ok = ok and besov_iso_norm(v, alpha, 2.0, 2.0) == sobolev_norm_iso(v, alpha)
    report(7, "p=tau=2 norm identities bitwise", ok, "100 random vectors")


def test_c08_cross_system_sobolev_equivalence():
    rng = np.random.default_rng(108)
    svals = (-0.3, 0.0, 0.3)
    cmax = {s: [] for s in svals}
    for m in range(4, 9):
        size = SPEC.delta_size(m)
        level_c = {s: 0.0 for s in svals}
        for _ in range(100):
            u = hyper_forward(SPEC, 2, rng.standard_normal((size, size)))
            v = iso_from_hyper(SPEC, u)
            for s in svals:
                ratio = sobolev_norm_hyper(u, s) / sobolev_norm_iso(v, s)
                level_c[s] = max(level_c[s], ratio, 1.0 / ratio)
        for s in svals:
            cmax[s].append(level_c[s])
    overall = max(max(series) for series in cmax.values())
    stable = all(
        np.maximum.accumulate(series)[-3] >= 0.75 * np.maximum.accumulate(series)[-1]
        for series in cmax.values()
    )
    ok = overall <= 10.0 and stable
    report(8, "cross-system H^s equivalence", ok,
           f"C={overall:.4f}, stable across m in 6..8: {stable}")


def test_c09_jackson_bernstein():
    rng = np.random.default_rng(109)
    start = time.perf_counter()
    worst_j = worst_b = 0.0
    for q, r in ((0.0, 1.0), (0.25, 0.5), (-0.25, 0.5)):
        for i in range(500):
            m = 5 + i % 4
            u = random_sparse_hyper(SPEC, rng, 2, m, 64)
            jackson, bernstein = jackson_bernstein_ratios(u, q, r)
            worst_j = max(worst_j, jackson)
            worst_b = max(worst_b, bernstein)
    elapsed = time.perf_counter() - start
    ok = worst_j <= 4.0 and worst_b <= 4.0 and elapsed < 60.0
    report(9, "Jackson/Bernstein constants", ok,
           f"jackson {worst_j:.3f}, bernstein {worst_b:.3f}, {elapsed:.1f}s")


def test_c10_nterm_pythagoras():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        sparse = rng.random() < 0.5
        m = int(rng.integers(3, 7))
        if sparse:
            u = random_sparse_hyper(SPEC, rng, 2, m, int(rng.integers(5, 60)))
        else:
            u = random_hyper(SPEC, rng, 2, m)
        q = float(rng.uniform(-0.5, 0.5))
        w2 = np.sort((2.0 ** (q * u.level_linf()) * np.abs(u.values)) ** 2)[::-1]
        grid = sorted({0, 1, u.num_entries // 2, u.num_entries})
        curve = error_curve(u, q, grid)
        e0sq = curve.errors[0] ** 2
        for n, e in curve.errors.items():
            kept = float(np.sum(w2[:n]))
            worst = max(worst, abs(e ** 2 + kept - e0sq) / max(e0sq, 1e-300))
    report(10, "N-term Pythagoras", worst <= 1e-12, f"worst defect {worst:.2e}")


def test_c11_embedding_chain_stability():
    rng = np.random.default_rng(111)
    ok = True
    details = []
    for q, s in ((0.0, 0.25), (0.1, 0.2)):
        lows, ups = [], []
        for m in range(4, 9):
            size = SPEC.delta_size(m)
            lo_m = up_m = 0.0
            for _ in range(100):
                u = hyper_forward(SPEC, 2, rng.standard_normal((size, size)))
                lo, up = check_embedding_chain(SPEC, u, q, s)
                lo_m, up_m = max(lo_m, lo), max(up_m, up)
            lows.append(lo_m)
            ups.append(up_m)
        stable = True
        for series in (lows, ups):
            running = np.maximum.accumulate(series)
            stable = stable and bool(running[-3] >= 0.75 * running[-1])
        ok = ok and stable
        details.append(f"(q={q},s={s}): low {max(lows):.3f} up {max(ups):.3f}"
                       f" {'stable' if stable else 'UNSTABLE'}")
    report(11, "embedding chain ratios", ok, "; ".join(details))


def test_c12_rate_experiments(tmp_path):
    start = time.perf_counter()
    data = sample_function("random_decay", {"q": 0.0, "r": 1.0, "seed": 3}, 2, 7)
    u = hyper_forward(SPEC, 2, data)
    grid = [16 * 2 ** i for i in range(9)]
    s_hat = fit_rate(error_curve(u, 0.0, grid), 16, 4096)
    ok_rate = 0.85 <= s_hat <= 1.15

    out = tmp_path / "cmp.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperwave", "compare", "--kind", "tensor_kink",
         "--q", "0", "--jmax", "7", "--seed", "1", "--nmin", "16",
         "--nmax", "2048", "--out", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    rate_h = float(proc.stdout.split("rate_hyperbolic=")[1].splitlines()[0])
    rate_i = float(proc.stdout.split("rate_isotropic=")[1].splitlines()[0])
    ok_cmp = rate_h >= rate_i - 0.05
    elapsed = time.perf_counter() - start
    ok = ok_rate and ok_cmp and elapsed < 120.0
    report(12, "N-term rate experiments", ok,
           f"s_hat={s_hat:.3f}, hyper {rate_h:.3f} vs iso {rate_i:.3f}, {elapsed:.1f}s")


def test_c13_deterministic_outputs(tmp_path):
    flags = ["compare", "--kind", "random_decay", "--q", "0", "--jmax", "6",
             "--seed", "17", "--nmin", "8", "--nmax", "512"]
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "hyperwave", *flags, "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), proc.stdout))
    ok = outputs[0] == outputs[1]
    report(13, "byte-identical outputs", ok,
           f"{len(outputs[0][0])} CSV bytes compared")

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hyperwave
from hyperwave import cli, save_coeffs, save_mask_file, verify
from hyperwave.cli import load_array, main, save_array
from hyperwave.tensorbasis import DIMENSIONS
from conftest import child_env, make_hyper, random_hyper, scaled_haar_masks


def run_cli(*args, cwd=None, timeout=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "hyperwave", *map(str, args)], capture_output=True,
        text=True, cwd=cwd, timeout=timeout, preexec_fn=preexec_fn, env=child_env(),
    )


def scaled_basis(tmp_path, j0: int, max_level: int = 8) -> str:
    """The ``--basis`` value of a scaled-Haar mask file with coarsest level j0."""
    path = tmp_path / f"scaled{j0}.masks"
    save_mask_file(path, scaled_haar_masks(j0, max_level))
    return f"maskfile={path}"


def cap_address_space():
    """Limit the child to 1 GiB, so a list that grows without end ends in
    a MemoryError rather than in the memory of the whole host."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestArrayFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((8, 8))
        path = tmp_path / "a.arr"
        save_array(arr, path)
        np.testing.assert_array_equal(load_array(path), arr)

    def test_empty_file_is_io_error(self, tmp_path):
        path = tmp_path / "empty.arr"
        path.write_text("")
        with pytest.raises(OSError):
            load_array(path)

    @pytest.mark.parametrize("text, bad_line", [
        ("hyperwave-array v1 m=1\n1\n2\n", "hyperwave-array v1 m=1"),
        ("hyperwave-array v1 n=1\n1\n2\n", "hyperwave-array v1 n=1"),
        ("hyperwave-array v1 n=one m=1\n1\n2\n", "hyperwave-array v1 n=one m=1"),
        ("hyperwave-array v1 n=1 m 1\n1\n2\n", "hyperwave-array v1 n=1 m 1"),
        ("hyperwave-array v1 n=1 m=1\n1\nx\n", "x"),
        ("hyperwave-array v1 n=2 m=3\n1\n2\n3\n4\n", None),
        ("hyperwave-array v1 n=2 m=1\n1\n2\n3\n", None),
    ], ids=["no-n", "no-m", "n-not-int", "field-without-equals", "value-not-float",
            "m-disagrees-with-size", "not-a-cube"])
    def test_malformed_file_exits_3(self, tmp_path, text, bad_line):
        path = tmp_path / "bad.arr"
        path.write_text(text)
        r = run_cli("transform", "--input", path, "--out", tmp_path / "x.coeffs")
        assert r.returncode == 3
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert str(path) in r.stderr
        if bad_line is not None:
            assert repr(bad_line) in r.stderr

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_dimension_out_of_range_exits_3(self, tmp_path, n):
        path = tmp_path / "dim.arr"
        path.write_text(f"hyperwave-array v1 n={n} m=0\n1\n")
        r = run_cli("transform", "--input", path, "--out", tmp_path / "x.coeffs")
        assert r.returncode == 3
        assert str(path) in r.stderr and f"n={n}" in r.stderr
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


class TestTransformCommand:
    def test_forward_inverse_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((16, 16))
        inp = tmp_path / "in.arr"
        save_array(arr, inp)
        coeffs = tmp_path / "u.coeffs"
        out = tmp_path / "back.arr"
        r1 = run_cli("transform", "--input", inp, "--direction", "forward",
                     "--out", coeffs)
        assert r1.returncode == 0, r1.stderr
        r2 = run_cli("transform", "--coeffs", coeffs, "--direction", "inverse",
                     "--out", out)
        assert r2.returncode == 0, r2.stderr
        back = load_array(out)
        assert np.abs(back - arr).max() <= 1e-12 * np.abs(arr).max()

    def test_iso_route_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((8, 8))
        inp = tmp_path / "in.arr"
        save_array(arr, inp)
        coeffs = tmp_path / "v.coeffs"
        out = tmp_path / "back.arr"
        assert run_cli("transform", "--input", inp, "--system", "iso",
                       "--out", coeffs).returncode == 0
        assert "isotropic" in coeffs.read_text().splitlines()[0]
        assert run_cli("transform", "--coeffs", coeffs, "--direction", "inverse",
                       "--out", out).returncode == 0
        assert np.abs(load_array(out) - arr).max() <= 1e-12 * np.abs(arr).max()

    def test_byte_stable_output(self, tmp_path):
        out1, out2 = tmp_path / "c1.coeffs", tmp_path / "c2.coeffs"
        for out in (out1, out2):
            r = run_cli("transform", "--generate", "random_decay", "--n", 2,
                        "--jmax", 4, "--seed", 9, "--out", out)
            assert r.returncode == 0, r.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_inverse_of_infinite_entry_keeps_stderr_empty(self, tmp_path):
        """inf - inf in the synthesis cascade is NaN without a numpy warning;
        the array file holds the same bytes as before."""
        coeffs, out = tmp_path / "v.coeffs", tmp_path / "back.arr"
        coeffs.write_text("hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n"
                          "3 1 0 0 0 inf\n")
        r = run_cli("transform", "--coeffs", coeffs, "--direction", "inverse", "--out", out)
        assert (r.returncode, r.stderr) == (0, "")
        rows = ["inf"] * 2 + ["nan"] * 6 + ["-inf"] * 2 + ["nan"] * 6 + ["0"] * 48
        assert out.read_text() == "hyperwave-array v1 n=2 m=3\n" + "\n".join(rows) + "\n"

    def test_empty_input_exits_2(self, tmp_path):
        empty = tmp_path / "empty.arr"
        empty.write_text("")
        r = run_cli("transform", "--input", empty, "--out", tmp_path / "x.coeffs")
        assert r.returncode == 2

    def test_missing_input_exits_2(self, tmp_path):
        r = run_cli("transform", "--input", tmp_path / "nope.arr",
                    "--out", tmp_path / "x.coeffs")
        assert r.returncode == 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_iso_route_any_dimension(self, tmp_path, n):
        outs = [tmp_path / "a.coeffs", tmp_path / "b.coeffs"]
        for out in outs:
            r = run_cli("transform", "--generate", "random_decay", "--n", n, "--jmax", 3,
                        "--seed", 5, "--system", "iso", "--out", out)
            assert r.returncode == 0, r.stderr
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().startswith(f"hyperwave-coeffs v1 isotropic n={n} ")
        back, hyper = tmp_path / "back.arr", tmp_path / "u.coeffs"
        assert run_cli("transform", "--coeffs", outs[0], "--direction", "inverse",
                       "--out", back).returncode == 0
        assert run_cli("transform", "--generate", "random_decay", "--n", n, "--jmax", 3,
                       "--seed", 5, "--out", hyper).returncode == 0
        assert run_cli("transform", "--coeffs", hyper, "--direction", "inverse",
                       "--out", tmp_path / "ref.arr").returncode == 0
        ref = load_array(tmp_path / "ref.arr")
        assert np.abs(load_array(back) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestNtermCommand:
    def test_synthetic_power_law_rate(self, tmp_path):
        # Coefficients whose sorted weights telescope to E_N^2 = N^-2:
        # w_k^2 = (k-1)^{-2} - k^{-2}, one extra weight absorbing the finite
        # tail.  The absorber re-sorts into the deep tail, so the curve is a
        # bit-exact power law on the window N <= 256 used for the fit.
        k = np.arange(2, 4096, dtype=np.float64)
        w = np.sqrt((k - 1.0) ** -2 - k ** -2)
        w = np.concatenate([[2.0], w, [1.0 / 4095.0]])
        entries = {
            ((7, 7), (i // 64, i % 64)): float(w[i]) for i in range(len(w))
        }
        u = make_hyper(entries, 2, 7)
        path = tmp_path / "p.coeffs"
        save_coeffs(u, path)
        r = run_cli("nterm", "--coeffs", path, "--q", 0, "--r", 1,
                    "--nmin", 16, "--nmax", 256, "--out", tmp_path / "c.csv")
        assert r.returncode == 0, r.stderr
        s_hat = float(r.stdout.split("s_hat=")[1])
        assert abs(s_hat - 1.0) <= 1e-10

    def test_csv_columns(self, tmp_path):
        u = make_hyper({((1, 0), (0, 0)): 1.0, ((2, 2), (1, 1)): 0.5,
                        ((3, 1), (2, 0)): 0.25, ((0, 0), (0, 0)): 2.0,
                        ((3, 3), (1, 2)): 0.1, ((2, 1), (0, 0)): 0.7}, 2, 3)
        path = tmp_path / "u.coeffs"
        save_coeffs(u, path)
        out = tmp_path / "curve.csv"
        r = run_cli("nterm", "--coeffs", path, "--q", 0.5, "--r", 0.5,
                    "--nmin", 1, "--nmax", 4, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "N,E_N,q,r,tau,basis,n,seed"
        assert len(lines) == 4  # N = 1, 2, 4

    @pytest.mark.parametrize("text, bad_line", [
        ("hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar\n1 1 0 0 1\n",
         "hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar"),
        ("hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 0 abc\n",
         "1 1 0 0 abc"),
        ("hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 99999999999999999999 1.0\n",
         "1 1 0 99999999999999999999 1.0"),
        ("hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n2 300 1 0 0 1\n", None),
        ("hyperwave-coeffs v1 isotropic n=2 p=2 basis=haar jmax=3\n2 257 1 0 0 1\n", None),
        ("hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=3\n1 1 0 0 1\n\n1 1 0 0 2\n"
         "1 2 0 1\n", "1 2 0 1"),
    ], ids=["no-jmax", "value-not-float", "index-beyond-int64", "type-300",
            "type-257-not-read-as-1", "short-row-after-blank-line"])
    def test_unparsable_coeff_file_exits_3(self, tmp_path, text, bad_line):
        path = tmp_path / "bad.coeffs"
        path.write_text(text)
        r = run_cli("nterm", "--coeffs", path, "--nmin", 1, "--nmax", 2,
                    "--out", tmp_path / "c.csv")
        assert r.returncode == 3
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: malformed coefficient")
        assert len(r.stderr.splitlines()) == 1
        assert str(path) in r.stderr and "usecols" not in r.stderr
        if bad_line is not None:
            assert repr(bad_line) in r.stderr

    def test_mismatched_basis_header_exits_3(self, tmp_path):
        u = make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2, basis="otherbasis")
        path = tmp_path / "u.coeffs"
        save_coeffs(u, path)
        r = run_cli("nterm", "--coeffs", path, "--nmin", 1, "--nmax", 2,
                    "--out", tmp_path / "c.csv")
        assert r.returncode == 3
        assert "otherbasis" in r.stderr


class TestVerifyCommand:
    def test_biorth_suite_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        r = run_cli("verify", "--suite", "biorth", "--m-max", 8, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "check,param,m,value,bound,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_kron_suite_exact_p1(self, tmp_path):
        out = tmp_path / "kron.csv"
        r = run_cli("verify", "--suite", "kron", "--trials", 20, "--out", out)
        assert r.returncode == 0, r.stderr
        rows = [ln for ln in out.read_text().splitlines()[1:] if ln.startswith("kron,p=1,")]
        assert rows and float(rows[0].split(",")[3]) <= 1e-12

    def test_lemma4_suite(self, tmp_path):
        r = run_cli("verify", "--suite", "lemma4", "--m-max", 10,
                    "--p-grid", "0.6,2", "--out", tmp_path / "l4.csv")
        assert r.returncode == 0, r.stderr

    def test_window_warning_is_one_line(self, tmp_path):
        out = tmp_path / "r.csv"
        r = run_cli("verify", "--suite", "embedding", "--m-max", 6, "--q", -1, "--trials", 1,
                    "--out", out)
        assert r.returncode == 0 and r.stdout == "checks: 7  failures: 0\n"
        assert r.stderr == ("warning: (q=-1.0, s=0.25) outside the embedding window of basis "
                            "'haar'; ratios may degenerate\n")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "6415a5513a798510b673537b32ed60a9d442be07806734f2961b8a0bddd7b1c7"

    def test_unknown_suite_exits_3(self):
        assert run_cli("verify", "--suite", "nonsense").returncode == 3

    @pytest.mark.parametrize("suite, n", [("embedding", 1), ("embedding", 3), ("all", 3)])
    def test_embedding_suite_runs_at_every_n(self, tmp_path, suite, n):
        out = tmp_path / "e.csv"
        start = time.perf_counter()
        r = run_cli("verify", "--suite", suite, "--n", n, "--out", out)
        assert r.returncode == 0, r.stderr
        assert time.perf_counter() - start < 10.0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        # At --n 3 the embedding suite stops at level 6, below the default --m-max 12.
        assert [int(row[-4]) for row in rows if row[0] == "embedding_upper"] == \
            list(range(4, 9 if n < 3 else 7))

    def test_failing_check_exits_1(self, tmp_path):
        # A biorthogonal basis with an oversized wavelet mask (d = 3) keeps
        # every identity intact but pushes the decay ratio past the bound 2,
        # so the decay suite must fail with exit code 1.
        from conftest import scaled_haar_masks
        from hyperwave import save_mask_file

        path = tmp_path / "masks.txt"
        save_mask_file(path, scaled_haar_masks(0, 4, d=3.0))
        r = run_cli("verify", "--suite", "decay", "--m-max", 4,
                    "--basis", f"maskfile={path}", "--out", tmp_path / "b.csv")
        assert r.returncode == 1
        assert "FAIL" in r.stdout


    @pytest.mark.parametrize("text", [
        "1 2 1\n0 0 x\n#\n",
        "",
        None,
        "1 -2 1\n#\n",
        "1 2 1\n99999999999999999999 0 1\n#\n",
        "1 99999999999999999999 1\n0 0 1\n#\n",
    ], ids=["value-not-float", "empty", "dev-null", "negative-dimension",
            "index-beyond-int64", "dimension-beyond-int64"])
    def test_malformed_mask_file_exits_3(self, tmp_path, text):
        path = "/dev/null"
        if text is not None:
            path = tmp_path / "masks.txt"
            path.write_text(text)
        r = run_cli("verify", "--suite", "biorth", "--m-max", 2,
                    "--basis", f"maskfile={path}", "--out", tmp_path / "b.csv")
        assert r.returncode == 3
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


class TestCompareCommand:
    def test_curves_decrease_for_smooth(self, tmp_path):
        out = tmp_path / "cmp.csv"
        r = run_cli("compare", "--kind", "smooth", "--q", 0, "--jmax", 5,
                    "--nmin", 4, "--nmax", 64, "--out", out)
        assert r.returncode == 0, r.stderr
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        hyper = [float(r[1]) for r in rows]
        iso = [float(r[2]) for r in rows]
        assert all(a >= b for a, b in zip(hyper, hyper[1:]))
        assert all(a >= b for a, b in zip(iso, iso[1:]))

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = run_cli("compare", "--kind", "random_decay", "--q", 0,
                        "--jmax", 5, "--seed", 11, "--nmin", 4, "--nmax", 64,
                        "--out", out)
            assert r.returncode == 0, r.stderr
            outs.append((out.read_bytes(), r.stdout))
        assert outs[0] == outs[1]

    def test_n3_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = run_cli("compare", "--kind", "tensor_kink", "--n", 3, "--jmax", 3,
                        "--nmin", 4, "--nmax", 64, "--out", out)
            assert r.returncode == 0, r.stderr
            outs.append((out.read_bytes(), r.stdout))
        assert outs[0] == outs[1]
        assert len(outs[0][0].decode().splitlines()) == 1 + 5  # N = 4 .. 64


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("jmax = 4\nseed = 3\nkind = smooth\nnmin = 4\nnmax = 32\n")
        out1 = tmp_path / "c1.csv"
        r = run_cli("compare", "--config", cfg, "--out", out1)
        assert r.returncode == 0, r.stderr
        # Same settings fully on the command line must give identical bytes.
        out2 = tmp_path / "c2.csv"
        r = run_cli("compare", "--kind", "smooth", "--jmax", 4, "--seed", 3,
                    "--nmin", 4, "--nmax", 32, "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()
        # A flag overrides the config value.
        out3 = tmp_path / "c3.csv"
        r = run_cli("compare", "--config", cfg, "--jmax", 5, "--out", out3)
        assert r.returncode == 0
        assert out3.read_bytes() != out1.read_bytes()

    def test_config_equals_spelling(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("jmax = 4\nseed = 3\nkind = smooth\nnmin = 4\nnmax = 32\n")
        outs = []
        for name, flag in (("a.csv", ["--config", cfg]), ("b.csv", [f"--config={cfg}"])):
            r = run_cli("compare", *flag, "--out", tmp_path / name)
            assert r.returncode == 0, r.stderr
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_config_without_path_exits_3(self, tmp_path):
        r = run_cli("compare", "--out", tmp_path / "c.csv", "--config")
        assert r.returncode == 3
        assert r.stderr == "error: --config needs a file path\n"

    def test_malformed_config_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("jmax 4\n")
        r = run_cli("compare", "--config", cfg, "--out", tmp_path / "c.csv")
        assert r.returncode == 3


class TestCountFlags:
    """An N grid doubling from --nmin never passes --nmax from 0 or below,
    and zero trials check nothing: both are rejected before any work."""

    @pytest.mark.parametrize("command, flag, value", [
        ("nterm", "--nmin", 0), ("compare", "--nmin", -4),
        ("verify", "--trials", 0), ("verify", "--trials", -1),
    ])
    def test_count_below_one_exits_3(self, tmp_path, command, flag, value):
        extra = ["--jmax", 3]
        if command == "nterm":
            path = tmp_path / "u.coeffs"
            save_coeffs(make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2), path)
            extra = ["--coeffs", path]
        elif command == "verify":
            extra = ["--suite", "lemma1"]
        r = run_cli(command, *extra, flag, value, "--out", tmp_path / "c.csv",
                    timeout=60, preexec_fn=cap_address_space)
        assert r.returncode == 3
        assert r.stderr == f"error: {flag} must be at least 1, got {value}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_config_count_below_one_exits_3(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nmin = 0\n")
        r = run_cli("compare", "--config", cfg, "--jmax", 3, "--out", tmp_path / "c.csv",
                    timeout=60, preexec_fn=cap_address_space)
        assert r.returncode == 3
        assert r.stderr == "error: --nmin must be at least 1, got 0\n"


def main_exit(argv, capsys) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


class TestNothingToCheck:
    """Flags that leave a selected verify suite nothing to check end in one
    line and exit 3 before any suite runs; the lowest allowed values run."""

    @pytest.fixture
    def ran(self, monkeypatch):
        """The suites that ran: each ``cli.SUITES`` entry only records its name."""
        ran = []
        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, lambda spec, args, name=name: ran.append(name))
        return ran

    @pytest.mark.parametrize("flags", [
        ["--suite", "lemma1", "--p-grid", ","],
        ["--suite", "lemma4", "--p-grid", ","],
        ["--suite", "all", "--p-grid", ","],
        ["--suite", "lemma1", "--p", 1.5],
        ["--suite", "lemma4", "--p", 5],
        ["--suite", "lemma1", "--p-grid", "0.6,x"],
        ["--suite", "biorth", "--m-max", -5],
        ["--suite", "decay", "--m-max", 0],
        ["--suite", "lemma4", "--m-max", 1],
        ["--suite", "riesz", "--m-max", -1],
        ["--suite", "embedding", "--m-max", 2],
        ["--suite", "embedding", "--m-max", 5],
        ["--suite", "all", "--m-max", 5],
        ["--suite", "embedding", "--s", -0.5],
        ["--suite", "embedding", "--s", -1],
        ["--suite", "all", "--s", -0.5],
    ])
    def test_exits_3_before_any_suite(self, tmp_path, capsys, ran, flags):
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", *flags, "--trials", 1, "--out", out], capsys)
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists() and ran == []

    @pytest.mark.parametrize("suite", ["embedding", "all"])
    @pytest.mark.parametrize("s", [-0.5, -1, -7.25])
    def test_s_without_fine_index_names_the_flag(self, tmp_path, capsys, ran, suite, s):
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", "--suite", suite, "--s", s, "--out", out], capsys)
        assert code == 3 and ran == [] and not out.exists()
        assert err == (f"error: --s {s:g} is out of range: the embedding suite needs "
                       "1/tau = s + 1/2 > 0\n")

    @pytest.mark.parametrize("flags", [
        ["--suite", "lemma1", "--p-grid", "nan,1"],
        ["--suite", "lemma4", "--p-grid", "inf,1.5"],
        ["--suite", "all", "--p-grid=0,1.5"],
        ["--suite", "lemma4", "--p-grid=-1,2"],
        ["--suite", "kron", "--p-grid", "2,-inf"],
        ["--suite", "lemma1", "--p", 0],
    ])
    def test_bad_exponent_exits_3_before_any_suite(self, tmp_path, capsys, ran, flags):
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", *flags, "--out", out], capsys)
        assert code == 3 and ran == [] and not out.exists()
        assert err.startswith("error: --p/--p-grid values must be finite and positive, got ")
        assert len(err.splitlines()) == 1

    # At levels 0 to 2 of Haar the scaled norms for p < 2 have not yet
    # stopped growing, so lemma4 reads only p = 2 at its lowest --m-max.
    LOWEST_FLAGS = {"lemma4": ["--p", 2], "kron": ["--p-grid", ","]}

    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("name", list(verify.SUITES))
    def test_lowest_flags_run(self, tmp_path, capsys, name, n):
        """Every suite passes at every --n at its lowest --m-max (its first
        level if it reads none), so a check special to one n fails here."""
        suite = verify.SUITES[name]
        lowest = suite.first(hyperwave.make_haar_basis(0)) + max(suite.needs, 1) - 1
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", "--suite", name, "--n", n, "--m-max", lowest,
                               *self.LOWEST_FLAGS.get(name, []), "--trials", 1, "--out", out],
                              capsys)
        assert code == 0, err
        assert len(out.read_text().splitlines()) > 1

    # (first level, lowest --m-max) of each suite that reads levels, on a
    # basis whose coarsest level is j0: the lowest --m-max is the first level
    # plus the levels the check needs, less one.
    LEVELS = {
        0: {"biorth": (0, 0), "decay": (1, 1), "lemma4": (0, 2), "riesz": (0, 2),
            "embedding": (4, 6)},
        2: {"biorth": (2, 2), "decay": (3, 3), "lemma4": (2, 4), "riesz": (2, 4),
            "embedding": (4, 6)},
    }

    @pytest.mark.parametrize("j0", sorted(LEVELS))
    @pytest.mark.parametrize("name, n", [(name, 2) for name, suite in verify.SUITES.items()
                                         if suite.needs] + [("embedding", 3)])
    def test_level_bounds_of_the_table(self, tmp_path, capsys, j0, name, n):
        first, lowest = self.LEVELS[j0][name]
        argv = ["verify", "--suite", name, "--n", n, "--basis", scaled_basis(tmp_path, j0),
                "--trials", 1]
        out = tmp_path / "r.csv"
        code, _ = main_exit([*argv, "--m-max", lowest, "--out", out], capsys)
        assert code in (0, 1)
        # m is the fourth field from the end: an embedding param holds a comma.
        levels = {int(row.split(",")[-4]) for row in out.read_text().splitlines()[1:]}
        assert levels == set(range(first, lowest + 1))
        out.unlink()
        code, err = main_exit([*argv, "--m-max", lowest - 1, "--out", out], capsys)
        assert code == 3 and not out.exists()
        assert err == (f"error: --m-max {lowest - 1} leaves the {name} suite nothing to check; "
                       f"it needs at least {lowest}\n")

    @pytest.mark.parametrize("j0, suite, n, message", [
        (9, "riesz", 2, "the riesz suite stops at level 10, but its check needs levels 9 to 11"),
        (9, "all", 2, "the riesz suite stops at level 10, but its check needs levels 9 to 11"),
        (7, "embedding", 2,
         "the embedding suite stops at level 8, but its check needs levels 7 to 9"),
        (5, "embedding", 3,
         "the embedding suite stops at level 6, but its check needs levels 5 to 7"),
    ])
    def test_cap_below_needed_levels_exits_3(self, tmp_path, capsys, j0, suite, n, message):
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", "--suite", suite, "--n", n, "--m-max", 12, "--trials", 1,
                               "--basis", scaled_basis(tmp_path, j0, 12), "--out", out], capsys)
        assert code == 3 and err == f"error: {message}\n" and not out.exists()

    def test_m_max_help_names_each_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse may wrap inside "--n"
        assert main(["verify", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--m-max M_MAX finest level; for tractability riesz stops at 10, embedding " \
               "stops at 8 (6 for --n 3)" in text

    @pytest.mark.parametrize("flag", [["--q", 400], ["--s", 200]])
    def test_overflowing_norms_exit_3(self, tmp_path, capsys, flag):
        # The norms overflow float64: the suite fails instead of passing on ratios of 0.
        # --s 200 also lies outside the embedding window, which comes first, in one line.
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", "--suite", "embedding", "--m-max", 6, *flag,
                               "--out", out], capsys)
        assert code == 3 and not out.exists()
        lines = err.splitlines()
        if flag[0] == "--s":
            assert lines.pop(0) == ("warning: (q=0.0, s=200.0) outside the embedding window "
                                    "of basis 'haar'; ratios may degenerate")
        assert len(lines) == 1 and lines[0].startswith("error: embedding norms not finite in "
                                                       "float64: ")

    def test_embedding_starts_at_coarsest_level(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _ = main_exit(["verify", "--suite", "embedding", "--m-max", 12, "--trials", 1,
                             "--basis", scaled_basis(tmp_path, 5, 12), "--out", out], capsys)
        assert code == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [int(row[-4]) for row in rows] == [5, 5, 6, 6, 7, 7, 8, 8, 8]


class TestConfigValues:
    @pytest.mark.parametrize("text, key", [
        ("jmax = x\n", "jmax"), ("seed = 1.5\n", "seed"), ("q = abc\n", "q"),
        ("n = 4\n", "n"), ("direction = sideways\n", "direction"),
    ])
    def test_bad_value_exits_3_naming_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        code, err = main_exit(["transform", "--config", cfg, "--generate", "random_decay",
                               "--out", tmp_path / "u.coeffs"], capsys)
        assert code == 3
        assert err.startswith(f"error: config key '{key}'") and len(err.splitlines()) == 1

    def test_line_without_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("= 3\n")
        code, err = main_exit(["transform", "--config", cfg, "--generate", "random_decay",
                               "--out", tmp_path / "u.coeffs"], capsys)
        assert code == 3 and err == "error: malformed config line: '= 3'\n"


class TestNegativeSeedAndJmax:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "kron", "--seed", -1],
        ["transform", "--generate", "random_decay", "--seed", -2],
        ["transform", "--generate", "random_decay", "--jmax", -3],
        ["compare", "--jmax", -1],
    ])
    def test_exits_3(self, tmp_path, capsys, argv):
        code, err = main_exit([*argv, "--out", tmp_path / "o"], capsys)
        assert code == 3 and err.startswith("error: --") and len(err.splitlines()) == 1


class TestLevelBeyondBasis:
    @pytest.mark.parametrize("jmax", [33, 40])
    def test_inverse_of_too_deep_file_exits_3(self, tmp_path, capsys, jmax):
        path = tmp_path / "u.coeffs"
        path.write_text(f"hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax={jmax}\n"
                        "1 1 0 0 1.5\n")
        code, err = main_exit(["transform", "--direction", "inverse", "--coeffs", path,
                               "--out", tmp_path / "b.arr"], capsys)
        assert code == 3 and err == f"error: level {jmax} beyond max_level 32\n"


class TestBadGridWritesNothing:
    """The rate fit validates the N grid before any CSV row is written."""

    @pytest.mark.parametrize("to_file", [True, False])
    def test_nterm(self, tmp_path, capsys, to_file):
        path = tmp_path / "u.coeffs"
        save_coeffs(make_hyper({((1, 1), (0, 0)): 1.0, ((2, 1), (1, 0)): 0.5}, 2, 2), path)
        out = ["--out", tmp_path / "x.csv"] if to_file else []
        code = main(list(map(str, ["nterm", "--coeffs", path, "--nmax", -9, *out])))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: rate fit needs at least 3 positive points in [16, -9]\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_compare(self, tmp_path, capsys, to_file):
        out = ["--out", tmp_path / "x.csv"] if to_file else []
        code = main(list(map(str, ["compare", "--jmax", 3, "--nmin", 4, "--nmax", 8, *out])))
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: rate fit needs at least 3 positive points in [4, 8]\n"
        assert not (tmp_path / "x.csv").exists()

    OVERFLOW = ("warning: overflow encountered in power\n"
                "error: rate fit needs finite errors, got E_N=inf at N={}\n")

    def test_nterm_infinite_errors(self, haar, tmp_path, capsys):
        # 2^(q |j|_inf) overflows at q = 2000: one warning line, then one error line.
        path = tmp_path / "u.coeffs"
        save_coeffs(random_hyper(haar, np.random.default_rng(1), 2, 3), path)
        code, err = main_exit(["nterm", "--coeffs", path, "--q", 2000, "--nmin", 4,
                               "--nmax", 32, "--out", tmp_path / "x.csv"], capsys)
        assert code == 3 and err == self.OVERFLOW.format(4)
        assert not (tmp_path / "x.csv").exists()

    def test_compare_infinite_errors(self, tmp_path, capsys):
        code, err = main_exit(["compare", "--q", 700, "--jmax", 6, "--out", tmp_path / "x.csv"],
                              capsys)
        assert code == 3 and err == self.OVERFLOW.format(16)
        assert not (tmp_path / "x.csv").exists()


class TestRWithoutTau:
    """nterm's tau = 1/(r + 1/2) needs r above -1/2; compare reads --r only
    for random_decay and takes any finite value."""

    @pytest.mark.parametrize("r", [-0.5, -0.6])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_nterm_exits_3(self, tmp_path, capsys, r, via_config):
        path = tmp_path / "u.coeffs"
        save_coeffs(make_hyper({((1, 1), (0, 0)): 1.0}, 2, 2), path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"r = {r}\n")
        given = ["--config", cfg] if via_config else [f"--r={r}"]
        code, err = main_exit(["nterm", "--coeffs", path, *given, "--out", tmp_path / "x.csv"],
                              capsys)
        assert code == 3 and err == f"error: --r must be above -1/2 (1/tau = r + 1/2), got {r}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_compare_accepts_r(self, tmp_path, capsys):
        code, err = main_exit(["compare", "--kind", "random_decay", "--r=-0.6", "--jmax", 5,
                               "--out", tmp_path / "x.csv"], capsys)
        assert code == 0 and err == ""


class TestNonFiniteFloatFlags:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["q", "s", "r", "beta", "p"])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_exits_3(self, tmp_path, capsys, flag, value, via_config):
        if via_config:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"{flag} = {value}\n")
            given = ["--config", cfg]
        else:
            given = [f"--{flag}={value}"]  # "--q -inf" would read -inf as an option
        out = tmp_path / "r.csv"
        # verify reads --q, --s and --p; compare reads --r and --beta.
        command = (["compare", "--jmax", 3] if flag in ("r", "beta") else
                   ["verify", "--suite", "embedding", "--trials", 1, "--m-max", 6])
        code, err = main_exit([*command, *given, "--out", out], capsys)
        assert code == 3
        assert err == f"error: --{flag} must be a finite number, got {float(value)}\n"
        assert not out.exists()


BAD_INDICES = ["1_0", "0x10", "1.5", "99999999999999999999"]
BAD_VALUES = ["1_0", "0x10", "1 # c"]


def bad_rows(k):
    """Rows of k indices and a value, each with one bad token: the value,
    or the first index when there is one."""
    rows = [" ".join(["0"] * k + [v]) for v in BAD_VALUES]
    return rows + [" ".join([i] + ["0"] * (k - 1) + ["1"]) for i in BAD_INDICES if k]


ROW_FILES = {
    "coeffs": ("hyperwave-coeffs v1 hyperbolic n=1 p=2 basis=haar jmax=3\n{}\n",
               ["nterm", "--nmin", 1, "--nmax", 2, "--coeffs"]),
    "array": ("hyperwave-array v1 n=1 m=0\n{}\n", ["transform", "--input"]),
    "mask": ("1 2 1\n{}\n#\n", ["verify", "--suite", "biorth", "--m-max", 2, "--basis"]),
}


class TestRowGrammar:
    """Coefficient, array and mask files read their rows by one grammar:
    a bad row ends in exit 3 and one line that names the file and quotes
    the row."""

    @pytest.mark.parametrize("kind, row", [
        (kind, row) for kind, k in (("coeffs", 2), ("array", 0), ("mask", 2))
        for row in bad_rows(k)
    ])
    def test_bad_row_exits_3(self, tmp_path, capsys, kind, row):
        text, argv = ROW_FILES[kind]
        path = tmp_path / f"bad.{kind}"
        path.write_text(text.format(row))
        out = tmp_path / "out"
        code, err = main_exit([*argv, f"maskfile={path}" if kind == "mask" else path,
                               "--out", out], capsys)
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(path) in err and repr(row) in err
        assert not out.exists()


HEADER_FILES = {
    "coeffs-n": ("hyperwave-coeffs v1 hyperbolic n={} p=2 basis=haar jmax=3", "1\n0 0 1\n",
                 ["nterm", "--nmin", 1, "--nmax", 2, "--coeffs"]),
    "coeffs-jmax": ("hyperwave-coeffs v1 hyperbolic n=1 p=2 basis=haar jmax={}", "3\n0 0 1\n",
                    ["nterm", "--nmin", 1, "--nmax", 2, "--coeffs"]),
    "array-n": ("hyperwave-array v1 n={} m=0", "1\n1\n", ["transform", "--input"]),
    "array-m": ("hyperwave-array v1 n=1 m={}", "0\n1\n", ["transform", "--input"]),
    "mask-level": ("{} 2 1", "1\n0 0 1\n#\n", ["verify", "--suite", "biorth", "--basis"]),
    "mask-rows": ("1 {} 1", "2\n0 0 1\n#\n", ["verify", "--suite", "biorth", "--basis"]),
}


class TestHeaderInts:
    """Header numbers follow the grammar of a row's int columns: a token
    a row would reject, such as 1_0, ends in exit 3 and one line that names
    the file and quotes the header."""

    @pytest.mark.parametrize("place", HEADER_FILES)
    @pytest.mark.parametrize("token", ["1_0", "+1_0", "1.0", "٣"])
    def test_bad_header_int_exits_3(self, tmp_path, capsys, place, token):
        head, good, argv = HEADER_FILES[place]
        path = tmp_path / f"bad.{place}"
        path.write_text(head.format(token) + "\n" + good.split("\n", 1)[1], encoding="utf-8")
        out = tmp_path / "out"
        code, err = main_exit([*argv, f"maskfile={path}" if place.startswith("mask") else path,
                               "--out", out], capsys)
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(path) in err and repr(head.format(token)) in err
        assert not out.exists()


@pytest.mark.parametrize("token", ["2_0", "+2_0", "٢", "0x2"])
def test_bad_header_p_exits_3(tmp_path, capsys, token):
    """The header p= of a coefficient file follows the float column of a row."""
    head = f"hyperwave-coeffs v1 hyperbolic n=1 p={token} basis=haar jmax=3"
    path = tmp_path / "bad.coeffs"
    path.write_text(head + "\n0 0 1\n", encoding="utf-8")
    code, err = main_exit(["nterm", "--nmin", 1, "--nmax", 2, "--coeffs", path,
                           "--out", tmp_path / "c.csv"], capsys)
    assert code == 3 and len(err.splitlines()) == 1
    assert err.startswith("error: malformed coefficient header") and str(path) in err


def test_rejected_mask_block_names_the_file(tmp_path, capsys):
    """An entry outside its block's dimensions is reported with the path
    and the block header, as a row-grammar error is."""
    path = tmp_path / "oob.masks"
    path.write_text("1 2 1\n5 0 1\n#\n")
    code, err = main_exit(["verify", "--suite", "biorth", "--m-max", 2,
                           "--basis", f"maskfile={path}", "--out", tmp_path / "b.csv"], capsys)
    assert code == 3
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(path) in err and repr("1 2 1") in err and "row index outside" in err


class TestCommandFlags:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize("command, flag", [
        ("transform", "--s"), ("transform", "--p"),
        ("nterm", "--n"), ("nterm", "--jmax"), ("nterm", "--s"), ("nterm", "--p"),
        ("nterm", "--beta"),
        ("verify", "--jmax"), ("verify", "--r"), ("verify", "--beta"),
        ("compare", "--s"), ("compare", "--p"),
    ])
    def test_flag_not_read_exits_2(self, tmp_path, capsys, command, flag):
        extra = ["--coeffs", tmp_path / "u.coeffs"] if command == "nterm" else []
        out = tmp_path / "out"
        code, err = main_exit([command, *extra, flag, 1, "--out", out], capsys)
        assert code == 2
        assert f"unrecognized arguments: {flag} 1" in err
        assert not out.exists()

    def test_config_key_of_a_flag_not_read_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("s = nan\np = 0.3\n")
        argv = ["compare", "--jmax", "3", "--nmin", "4", "--nmax", "16"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.out.startswith("N,") and plain.err == ""
        assert main([*argv, "--config", str(cfg)]) == 0
        assert capsys.readouterr() == plain


class TestGridTooLarge:
    def test_inverse_of_unallocatable_grid_exits_3(self, tmp_path, capsys):
        # numpy rejects a 2^32 x 2^32 grid before allocating any of it.
        path = tmp_path / "u.coeffs"
        path.write_text("hyperwave-coeffs v1 hyperbolic n=2 p=2 basis=haar jmax=32\n"
                        "1 1 0 0 1.5\n")
        out = tmp_path / "b.arr"
        code, err = main_exit(["transform", "--direction", "inverse", "--coeffs", path,
                               "--out", out], capsys)
        assert code == 3
        assert err == ("error: a level-32 grid of shape (4294967296, 4294967296) is too "
                       "large to allocate\n")
        assert not out.exists()


class TestMMaxBeyondBasis:
    @pytest.mark.parametrize("suite", ["decay", "riesz", "all"])
    def test_exits_3_before_any_suite(self, tmp_path, suite):
        # In a capped child: without the check, decay would run until killed.
        out = tmp_path / "r.csv"
        r = run_cli("verify", "--suite", suite, "--m-max", 1000, "--out", out,
                    timeout=60, preexec_fn=cap_address_space)
        assert r.returncode == 3
        assert r.stderr == "error: --m-max 1000 is beyond the finest level 32 of the basis\n"
        assert not out.exists()

    def test_finest_level_passes_the_flag_check(self, tmp_path, capsys):
        # The check lets 32 through; the suite would then run, so the run is
        # stopped by an empty exponent grid, the next check in line.
        code, err = main_exit(["verify", "--suite", "lemma1", "--m-max", 32, "--p-grid", ",",
                               "--out", tmp_path / "r.csv"], capsys)
        assert code == 3 and "lemma1" in err


class TestVerifyReportPinned:
    """The stdout and CSV of ``verify --suite X`` for every suite and ``all``,
    at ``--m-max 8 --seed 3 --trials 3`` on Haar and on scaled-Haar mask
    files at j0 = 0 and 2, and of ``verify --suite embedding`` with default
    flags, match the sha256 recorded in verify_report_sha256.json byte for
    byte."""

    PINNED = json.loads((Path(__file__).parent / "verify_report_sha256.json").read_text())

    @pytest.mark.parametrize("basis", ["haar", "scaled_j0=0", "scaled_j0=2"])
    def test_bytes(self, tmp_path, capsys, basis):
        arg = "haar" if basis == "haar" else scaled_basis(tmp_path, int(basis[-1]))
        want = {key: v for key, v in self.PINNED.items() if key.split("/")[0] == basis}
        got = {}
        for key in want:
            out = tmp_path / "r.csv"
            code = main(["verify", "--suite", key.split("/")[1], "--basis", arg, "--m-max", "8",
                         "--seed", "3", "--trials", "3", "--out", str(out)])
            got[key] = {"exit": code,
                        "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
                        "csv": hashlib.sha256(out.read_bytes()).hexdigest()}
            out.unlink()
        assert len(want) == 8 and got == want

    def test_default_embedding_bytes(self, tmp_path, capsys):
        """``verify --suite embedding`` with default flags: 20 trials per level,
        so levels 6 to 8 take more than one batch of trials."""
        want = self.PINNED["default/embedding"]
        out = tmp_path / "r.csv"
        code = main(["verify", "--suite", "embedding", "--out", str(out)])
        assert {"exit": code,
                "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
                "csv": hashlib.sha256(out.read_bytes()).hexdigest()} == want


def peak_rss_kb(argv) -> int:
    """Exit code 0 asserted, the peak resident set of a ``python -m hyperwave``
    child in KiB, as ``wait4`` reports it for that child alone."""
    proc = subprocess.Popen([sys.executable, "-m", "hyperwave", *map(str, argv)],
                            stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_maxrss


def test_embedding_memory_does_not_grow_with_trials(tmp_path):
    """Trials run in batches of bounded size, so 60 trials per level peak
    within 10 MB of one."""
    argv = ["verify", "--suite", "embedding", "--out", tmp_path / "r.csv", "--trials"]
    one, many = peak_rss_kb([*argv, 1]), peak_rss_kb([*argv, 60])
    assert many - one < 10 * 1024


class TestClosedStdout:
    """A reader of stdout that stops early, as ``| head`` does, ends the
    command with exit code 141 (128 + SIGPIPE) and nothing on stderr, not
    with an i/o error; never with 0, which would hide a failed check.  The
    read end of the pipe is closed before the child starts, so every write
    fails."""

    @pytest.mark.parametrize("argv", [("nterm", "--coeffs", "u.coeffs"),
                                      ("verify", "--suite", "biorth", "--m-max", "3")])
    def test_exit_141_and_silent(self, tmp_path, haar, argv):
        save_coeffs(random_hyper(haar, np.random.default_rng(0), 2, 4), tmp_path / "u.coeffs")
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run([sys.executable, "-m", "hyperwave", *argv], stdout=write,
                               stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=child_env())
        finally:
            os.close(write)
        assert (r.returncode, r.stderr) == (141, "")


def test_usage_error_returns_2(capsys):
    assert main(["transform", "--jmax"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_child_processes_import_this_source_tree(tmp_path):
    r = subprocess.run([sys.executable, "-c", "import hyperwave; print(hyperwave.__file__)"],
                       capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert r.returncode == 0 and r.stdout.strip() == hyperwave.__file__


class TestMainInProcess:
    def test_main_returns_int(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["verify", "--suite", "kron", "--trials", "3",
                     "--out", str(out)]) == 0
        assert out.exists()


def scipy_modules_after(tmp_path, *commands):
    """Exit codes of ``cli.main`` over ``commands`` in one fresh interpreter,
    and the scipy modules loaded by then."""
    script = (
        "import json, sys\n"
        "from hyperwave.cli import main\n"
        f"codes = [main(argv) for argv in {[list(map(str, c)) for c in commands]!r}]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       cwd=tmp_path, env=child_env())
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


class TestColdStart:
    def test_transform_nterm_compare_do_not_load_scipy(self, tmp_path):
        codes, loaded = scipy_modules_after(
            tmp_path,
            ("transform", "--generate", "random_decay", "--jmax", 5, "--out", "u.coeffs"),
            ("transform", "--coeffs", "u.coeffs", "--direction", "inverse", "--out", "u.arr"),
            ("transform", "--input", "u.arr", "--system", "iso", "--out", "v.coeffs"),
            ("transform", "--coeffs", "v.coeffs", "--direction", "inverse", "--out", "v.arr"),
            ("nterm", "--coeffs", "u.coeffs", "--nmax", 256, "--out", "curve.csv"),
            ("compare", "--jmax", 5, "--nmax", 256, "--out", "cmp.csv"),
        )
        assert codes == [0] * 6
        assert loaded == []

    def test_verify_loads_scipy_and_passes(self, tmp_path):
        codes, loaded = scipy_modules_after(
            tmp_path, ("verify", "--suite", "biorth", "--m-max", 8, "--out", "b.csv"))
        assert codes == [0]
        assert "scipy.sparse" in loaded
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert len(lines) == 10 and all(line.endswith("true") for line in lines[1:])

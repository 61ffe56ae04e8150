import json
import subprocess
import sys

import numpy as np
import pytest

import hyperwave
from hyperwave import save_coeffs
from hyperwave.cli import load_array, main, save_array
from conftest import child_env, make_hyper


def run_cli(*args, cwd=None, timeout=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "hyperwave", *map(str, args)], capture_output=True,
        text=True, cwd=cwd, timeout=timeout, preexec_fn=preexec_fn, env=child_env(),
    )


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

    def test_unknown_suite_exits_3(self):
        assert run_cli("verify", "--suite", "nonsense").returncode == 3

    @pytest.mark.parametrize("suite, n", [("embedding", 1), ("embedding", 3), ("all", 3)])
    def test_embedding_suite_other_n_exits_3(self, tmp_path, suite, n):
        out = tmp_path / "e.csv"
        r = run_cli("verify", "--suite", suite, "--n", n, "--out", out)
        assert r.returncode == 3
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert "--n 2" in r.stderr and not out.exists()

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
    ])
    def test_exits_3_before_any_suite(self, tmp_path, capsys, flags):
        out = tmp_path / "r.csv"
        code, err = main_exit(["verify", *flags, "--trials", 1, "--out", out], capsys)
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--suite", "biorth", "--m-max", 0],
        ["--suite", "decay", "--m-max", 1],
        ["--suite", "lemma4", "--m-max", 2, "--p", 2],
        ["--suite", "riesz", "--m-max", 2],
        ["--suite", "embedding", "--m-max", 6],
        ["--suite", "kron", "--p-grid", ","],
    ])
    def test_lowest_flags_run(self, tmp_path, capsys, flags):
        out = tmp_path / "r.csv"
        code, _ = main_exit(["verify", *flags, "--trials", 1, "--out", out], capsys)
        assert code in (0, 1)
        assert len(out.read_text().splitlines()) > 1


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

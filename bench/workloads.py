"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload is a closed loop with one client: a pass starts when the
previous one has finished.  ``make_inputs`` is the set-up a user pays
before a batch job (import, basis, input data); ``run_pass`` is the job
itself and calls the library only through module attributes, so the
traced run sees every call; ``check`` runs outside the timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
from hyperwave import cli, nterm, seqnorms, tensorbasis, testfunctions, verify
from hyperwave.basis1d import make_haar_basis
from hyperwave.tensorbasis import HYPERBOLIC, CoeffVector

from bootstrap import child_env

ROUND_TRIP_TOL = 1e-12
REL_TOL = 1e-12
SUBPROCESS_TIMEOUT = 120


class Checker:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def round_trip(self, what: str, got, want) -> None:
        want = np.asarray(want)
        err = float(np.abs(np.asarray(got) - want).max())
        self.check(f"{what}: max error {err:.3e}",
                   err <= ROUND_TRIP_TOL * max(1.0, float(np.abs(want).max())))

    def pythagoras(self, what: str, u: CoeffVector, q: float, curve) -> None:
        """E_N^2 plus the kept weighted mass equals E_0^2 at every N."""
        w2 = np.sort((2.0 ** (q * u.level_linf()) * np.abs(u.values)) ** 2)[::-1]
        kept = np.concatenate([[0.0], np.cumsum(w2)])
        e0sq = kept[-1]
        worst = max(abs(e ** 2 + kept[min(n, w2.size)] - e0sq) for n, e in curve.errors.items())
        self.check(f"{what}: Pythagoras defect {worst:.3e}", worst <= 1e-12 * max(e0sq, 1e-300))

    def reference(self, got: dict, want: dict | None) -> None:
        """Byte hashes must match exactly, floats to REL_TOL of their series' size.

        The tolerance scales with the largest entry of the reference series,
        so an entry that is exactly 0 there (E_N once N reaches the number
        of nonzeros) may come back as rounding noise.
        """
        if want is None:
            return
        for name, digest in want["sha256"].items():
            self.check(f"sha256 of {name}", got["sha256"].get(name) == digest)
        for name, ref in want["floats"].items():
            vals = got["floats"].get(name, [])
            scale = max((abs(x) for x in ref), default=0.0)
            ok = len(vals) == len(ref) and all(
                abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale) for a, b in zip(vals, ref)
            )
            self.check(f"reference values of {name}", ok)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _nterm_grid(nnz: int) -> list[int]:
    return [16 * 2 ** k for k in range(64) if 16 * 2 ** k <= nnz]


class RatePipeline:
    """Rate experiment of one large vector: transforms, files, N-term curves."""

    in_process = True
    name = "rate_pipeline"
    M, M3 = 7, 6
    Q, FIT = 0.0, (16, 4096)

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        spec = make_haar_basis(0)
        params = {"q": self.Q, "r": 1.0, "seed": seed}
        data = testfunctions.sample_function("random_decay", params, 2, self.M)
        size3 = spec.delta_size(self.M3)
        data3 = np.random.default_rng(seed).standard_normal((size3,) * 3)
        return {"spec": spec, "data": data, "data3": data3,
                "hyper_file": workdir / "rate.hyper.coeffs",
                "iso_file": workdir / "rate.iso.coeffs"}

    def run_pass(self, inp: dict, recorder) -> dict:
        spec = inp["spec"]
        u = tensorbasis.hyper_forward(spec, 2, inp["data"])
        tensorbasis.save_coeffs(u, inp["hyper_file"])
        u = tensorbasis.load_coeffs(inp["hyper_file"])
        grid = _nterm_grid(u.num_entries)
        curve = nterm.error_curve(u, self.Q, grid)
        rate = nterm.fit_rate(curve, *self.FIT)
        v = tensorbasis.iso_from_hyper(spec, u)
        curve_iso = nterm.error_curve(v, self.Q, grid)
        rate_iso = nterm.fit_rate(curve_iso, *self.FIT)
        tensorbasis.save_coeffs(v, inp["iso_file"])
        v = tensorbasis.load_coeffs(inp["iso_file"])
        back_iso = tensorbasis.hyper_inverse(spec, tensorbasis.hyper_from_iso(spec, v))
        return {
            "u": u, "v": v, "curve": curve, "curve_iso": curve_iso,
            "rate": rate, "rate_iso": rate_iso,
            "back": tensorbasis.hyper_inverse(spec, u),
            "back_iso": back_iso,
            "synth": tensorbasis.iso_synthesize(spec, v),
            "back3": tensorbasis.hyper_inverse(
                spec, tensorbasis.hyper_forward(spec, 3, inp["data3"])),
        }

    def reference_values(self, inp: dict, out: dict) -> dict:
        return {
            "sha256": {"hyper_file": _sha256(inp["hyper_file"]),
                       "iso_file": _sha256(inp["iso_file"])},
            "floats": {"rates": [out["rate"], out["rate_iso"]],
                       "E_N": list(out["curve"].errors.values()),
                       "E_N_iso": list(out["curve_iso"].errors.values())},
        }

    def check(self, inp: dict, out: dict, ck: Checker) -> None:
        ck.round_trip("hyper_inverse n=2", out["back"], inp["data"])
        ck.round_trip("iso round trip", out["back_iso"], inp["data"])
        ck.round_trip("iso_synthesize", out["synth"], inp["data"])
        ck.round_trip("hyper_inverse n=3", out["back3"], inp["data3"])
        ck.pythagoras("hyperbolic curve", out["u"], self.Q, out["curve"])
        ck.pythagoras("isotropic curve", out["v"], self.Q, out["curve_iso"])
        ck.check("fitted rates finite", bool(np.isfinite([out["rate"], out["rate_iso"]]).all()))

    def file_counts(self, inp: dict, out: dict) -> dict:
        return {}


def _sparse_hyper(spec, rng, m: int, nnz: int) -> CoeffVector:
    """Random nnz-sparse bivariate hyperbolic vector at truncation m."""
    size = spec.delta_size(m)
    lvl = np.empty(size, dtype=np.int64)
    pos = np.empty(size, dtype=np.int64)
    for j in range(spec.j0, m + 1):
        lo, hi = spec.block_slice(j)
        lvl[lo:hi] = j
        pos[lo:hi] = np.arange(hi - lo)
    rows, cols = np.divmod(np.sort(rng.choice(size * size, size=nnz, replace=False)), size)
    return CoeffVector(HYPERBOLIC, 2, 2.0, m, spec.name,
                       np.stack([lvl[rows], lvl[cols]], axis=1),
                       np.stack([pos[rows], pos[cols]], axis=1),
                       rng.standard_normal(nnz))


class NormSweep:
    """Many small norm evaluations: the shapes of acceptance tests c08, c09, c11."""

    in_process = True
    name = "norm_sweep"
    DENSE = {4: 4, 5: 4, 6: 4, 7: 3, 8: 3}  # level m -> dense vectors per level
    SVALS = (-0.3, 0.0, 0.3)
    EMBED = (0.0, 0.25)
    JB_LEVELS, JB_PER_LEVEL, JB_NNZ = (5, 6, 7, 8), 6, 64
    JB_PARAMS = ((0.0, 1.0), (0.25, 0.5), (-0.25, 0.5))

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        spec = make_haar_basis(0)
        rng = np.random.default_rng(seed)
        dense = [(m, rng.standard_normal((spec.delta_size(m),) * 2))
                 for m, k in self.DENSE.items() for _ in range(k)]
        sparse = [(m, _sparse_hyper(spec, rng, m, self.JB_NNZ))
                  for m in self.JB_LEVELS for _ in range(self.JB_PER_LEVEL)]
        return {"spec": spec, "dense": dense, "sparse": sparse}

    def run_pass(self, inp: dict, recorder) -> dict:
        spec = inp["spec"]
        norms, embed, jb = [], [], []
        for m, a in inp["dense"]:
            u = tensorbasis.hyper_forward(spec, 2, a)
            v = tensorbasis.iso_from_hyper(spec, u)
            for s in self.SVALS:
                norms.append((seqnorms.sobolev_norm_hyper(u, s), seqnorms.sobolev_norm_iso(v, s)))
            embed.append((m, *verify.check_embedding_chain(spec, u, *self.EMBED)))
        for i, (m, u) in enumerate(inp["sparse"]):
            q, r = self.JB_PARAMS[i % len(self.JB_PARAMS)]
            jb.append(nterm.jackson_bernstein_ratios(u, q, r))
        return {"norms": norms, "embed": embed, "jb": jb}

    def reference_values(self, inp: dict, out: dict) -> dict:
        return {
            "sha256": {},
            "floats": {"sobolev": [x for pair in out["norms"] for x in pair],
                       "embedding": [x for _, lo, up in out["embed"] for x in (lo, up)],
                       "jackson_bernstein": [x for pair in out["jb"] for x in pair]},
        }

    def check(self, inp: dict, out: dict, ck: Checker) -> None:
        for hyper, iso in out["norms"]:  # c08: cross-system H^s equivalence
            ratio = hyper / iso
            ck.check(f"c08 norm ratio {ratio:.4f} within [0.1, 10]",
                     max(ratio, 1.0 / ratio) <= 10.0)
        for jackson, bernstein in out["jb"]:  # c09
            ck.check(f"c09 Jackson {jackson:.3f} / Bernstein {bernstein:.3f} <= 4",
                     jackson <= 4.0 and bernstein <= 4.0)
        levels = sorted({m for m, _, _ in out["embed"]})  # c11: running maxima settle
        for side in (1, 2):
            per_level = [max(e[side] for e in out["embed"] if e[0] == m) for m in levels]
            running = np.maximum.accumulate(per_level)
            ck.check(f"c11 embedding ratio side {side} stable",
                     bool(running[-3] >= 0.75 * running[-1]))

    def file_counts(self, inp: dict, out: dict) -> dict:
        return {}


class VerifyAll:
    """The full verification sweep, run in-process through the CLI entry point."""

    in_process = True
    name = "verify_all"

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        out = workdir / "verify_all.csv"
        return {"spec": make_haar_basis(0), "out": out,
                "argv": ["verify", "--suite", "all", "--seed", str(seed), "--out", str(out)]}

    def run_pass(self, inp: dict, recorder) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inp["argv"]))
        return {"code": code, "stdout": buf.getvalue()}

    def reference_values(self, inp: dict, out: dict) -> dict:
        return {"sha256": {"report_csv": _sha256(inp["out"])}, "floats": {}}

    def check(self, inp: dict, out: dict, ck: Checker) -> None:
        ck.check(f"verify --suite all exit code {out['code']}", out["code"] == 0)
        ck.check("verify report lists no failure", "failures: 0" in out["stdout"])

    def file_counts(self, inp: dict, out: dict) -> dict:
        return {"cli.csv_rows": _csv_rows(inp["out"])}


def _run_command(argv, cwd, env) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and peak RSS (KiB) of one subprocess."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(SUBPROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), usage.ru_maxrss)


class CliCold:
    """One fresh interpreter per command, as a batch script would run them."""

    in_process = False  # the pass runs in child processes
    name = "cli_cold"
    JMAX = 8

    def commands(self, seed: int) -> dict[str, list[str]]:
        j, s = str(self.JMAX), str(seed)
        return {
            "transform_generate": ["transform", "--generate", "random_decay", "--n", "2",
                                   "--jmax", j, "--seed", s, "--out", "u.coeffs"],
            "nterm": ["nterm", "--coeffs", "u.coeffs", "--seed", s, "--out", "curve.csv"],
            "transform_inverse": ["transform", "--coeffs", "u.coeffs", "--direction",
                                  "inverse", "--out", "back.arr"],
            "transform_iso": ["transform", "--input", "input.arr", "--system", "iso",
                              "--out", "v.coeffs"],
            "transform_iso_inverse": ["transform", "--coeffs", "v.coeffs", "--direction",
                                      "inverse", "--out", "iso_back.arr"],
            "compare": ["compare", "--kind", "tensor_kink", "--jmax", j, "--seed", s,
                        "--out", "compare.csv"],
            "verify_biorth": ["verify", "--suite", "biorth", "--m-max", "10",
                              "--out", "biorth.csv"],
        }

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        spec = make_haar_basis(0)
        params = {"beta": 1.0, "q": 0.0, "r": 1.0, "seed": seed}
        generated = testfunctions.sample_function("random_decay", params, 2, self.JMAX)
        size = spec.delta_size(self.JMAX)
        array = np.random.default_rng(seed).standard_normal((size, size))
        cli.save_array(array, workdir / "input.arr")
        return {"spec": spec, "generated": generated, "array": array,
                "commands": self.commands(seed), "workdir": workdir}

    def run_pass(self, inp: dict, recorder) -> dict:
        env = child_env()
        results, maxrss = {}, 0
        for name, argv in inp["commands"].items():
            span = recorder.span(f"cli.{name}") if recorder else contextlib.nullcontext()
            with span:
                code, out, err, rss = _run_command([sys.executable, "-m", "hyperwave", *argv],
                                                   inp["workdir"], env)
            results[name] = (code, out, err)
            maxrss = max(maxrss, rss)
        return {"results": results, "child_maxrss_kb": maxrss}

    def reference_values(self, inp: dict, out: dict) -> dict:
        workdir = inp["workdir"]
        files = ("u.coeffs", "curve.csv", "back.arr", "v.coeffs", "iso_back.arr",
                 "compare.csv", "biorth.csv")
        stdout = "".join(out["results"][c][1] for c in ("nterm", "compare"))
        rates = [float(line.split("=", 1)[1]) for line in stdout.splitlines() if "=" in line]
        return {"sha256": {f: _sha256(workdir / f) for f in files},
                "floats": {"printed_rates": rates}}

    def check(self, inp: dict, out: dict, ck: Checker) -> None:
        workdir = inp["workdir"]
        for name, (code, _, err) in out["results"].items():
            ck.check(f"{name} exit code {code}: {err.strip()[-200:]}", code == 0)
        if all(code == 0 for code, _, _ in out["results"].values()):
            ck.round_trip("cli forward/inverse", cli.load_array(workdir / "back.arr"),
                          inp["generated"])
            ck.round_trip("cli iso forward/inverse", cli.load_array(workdir / "iso_back.arr"),
                          inp["array"])

    def file_counts(self, inp: dict, out: dict) -> dict:
        workdir = inp["workdir"]
        coeff_bytes = {f: (workdir / f).stat().st_size for f in ("u.coeffs", "v.coeffs")}
        # u.coeffs: written once, read by nterm and the inverse; v.coeffs: written, read once.
        return {"tensorbasis.file_bytes": 3 * coeff_bytes["u.coeffs"] + 2 * coeff_bytes["v.coeffs"],
                "cli.csv_rows": sum(_csv_rows(workdir / f)
                                    for f in ("curve.csv", "compare.csv", "biorth.csv"))}


WORKLOADS = {w.name: w for w in (RatePipeline(), NormSweep(), VerifyAll(), CliCold())}
CLI_COMMANDS = tuple(CliCold().commands(0))

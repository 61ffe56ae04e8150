"""Batch front end: transforms, N-term curves, verification sweeps.

Every command is deterministic given its flags and seed; CSV outputs are
byte-stable (all floats printed with 17 significant digits) so runs can be
diffed across platforms.  Exit codes: 0 pass, 1 check failure, 2 I/O
error, 3 validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import nterm, testfunctions, verify
from .bandmatrix import BandMatrix
from .basis1d import (
    COMPACT_SUPPORT_ALPHA,
    BasisSpec,
    load_mask_file,
    make_haar_basis,
    make_mask_basis,
)
from .errors import HyperwaveError, UnsupportedDimension
from .tables import fmt, header_fields, read_lines, read_table, write_table
from .tensorbasis import (
    hyper_forward,
    hyper_from_iso,
    hyper_inverse,
    iso_from_hyper,
    load_coeffs,
    save_coeffs,
)
from .transform1d import check_entry_decay

__all__ = ["main", "load_array", "save_array"]


def _map_ordered(fn, items):
    """fn over items, in order; bench/spans.py rebinds this to trace sweeps."""
    return [fn(it) for it in items]


# ---------------------------------------------------------------------------
# Array file format: header "hyperwave-array v1 n=<n> m=<m>", then one value
# per line in C order: the rows of hyperwave.tables with k = 0.
# ---------------------------------------------------------------------------


def _grid_level(size: int) -> int:
    return int(np.log2(size)) if size > 1 else 0


def save_array(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    head = f"hyperwave-array v1 n={arr.ndim} m={_grid_level(arr.shape[0])}"
    write_table(path, head, np.zeros((arr.size, 0), np.int64), arr.reshape(-1))


def load_array(path) -> np.ndarray:
    lines = read_lines(path)
    if not lines:
        raise OSError(f"empty input file: {path}")
    head = lines[0].split()
    if head[:2] != ["hyperwave-array", "v1"]:
        raise OSError(f"not a hyperwave array file: {path}")
    try:
        fields = header_fields(head[2:])
        n, m = int(fields["n"]), int(fields["m"])
    except (KeyError, ValueError):
        raise HyperwaveError(f"malformed array file {path}: {lines[0]!r}") from None
    try:
        _, values = read_table(lines[1:], 0)
    except ValueError as exc:
        raise HyperwaveError(f"malformed array file {path}: {exc}") from None
    if not 1 <= n <= 3:
        raise HyperwaveError(f"array file {path} declares n={n}, not in 1..3")
    size = round(len(values) ** (1.0 / n))
    if size ** n != len(values):
        raise HyperwaveError(f"array file {path} holds {len(values)} values, not a {n}-cube")
    if m != _grid_level(size):
        raise HyperwaveError(f"array file {path} declares m={m} for extent {size}")
    return values.reshape((size,) * n)


def _make_basis(arg: str) -> BasisSpec:
    if arg == "haar":
        return make_haar_basis(0)
    if arg.startswith("maskfile="):
        path = arg.split("=", 1)[1]
        quads = load_mask_file(path)
        j0 = min(quads) - 1
        name = os.path.splitext(os.path.basename(path))[0]
        return make_mask_basis(
            quads, d=1, d_tilde=1, gamma=0.5, gamma_tilde=0.5,
            alpha=COMPACT_SUPPORT_ALPHA, j0=j0, name=name,
        )
    raise HyperwaveError(f"--basis must be 'haar' or 'maskfile=PATH', got {arg!r}")


def _check_flag_values(args) -> None:
    """Reject an ``--nmin`` or ``--trials`` below 1, a negative ``--seed``
    or ``--jmax`` and a non-finite float flag: the N grid doubles from
    ``--nmin`` and would never pass ``--nmax`` from 0 or below, zero trials
    would pass the randomized suites with nothing checked, numpy seeds are
    non-negative, a sample grid has 2^jmax points per axis, and a check run
    on a nan or infinite exponent passes or fails on no meaning."""
    for flag, least in (("nmin", 1), ("trials", 1), ("seed", 0), ("jmax", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise HyperwaveError(f"--{flag} must be at least {least}, got {value}")
    for flag in ("q", "s", "r", "beta", "p"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            raise HyperwaveError(f"--{flag} must be a finite number, got {value}")


def _n_grid(nmin: int, nmax: int) -> list[int]:
    grid = []
    n = nmin
    while n <= nmax:
        grid.append(n)
        n *= 2
    return grid


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _generate(args, kind: str) -> np.ndarray:
    params = {"beta": args.beta, "q": args.q, "r": args.r, "seed": args.seed}
    return testfunctions.sample_function(kind, params, args.n, args.jmax)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    spec = _make_basis(args.basis)
    if args.direction == "forward":
        if args.generate:
            data = _generate(args, args.generate)
        elif args.input:
            data = load_array(args.input)
        else:
            raise HyperwaveError("forward transform needs --input or --generate")
        u = hyper_forward(spec, data.ndim, data)
        if args.system == "iso":
            u = iso_from_hyper(spec, u)
        save_coeffs(u, args.out)
    else:
        source = args.coeffs if args.coeffs else args.input
        if not source:
            raise HyperwaveError("inverse transform needs --coeffs or --input")
        cv = load_coeffs(source)
        if cv.basis != spec.name:
            raise HyperwaveError(
                f"coefficient file basis {cv.basis!r} does not match --basis {spec.name!r}"
            )
        if cv.system == "isotropic":
            cv = hyper_from_iso(spec, cv)
        save_array(hyper_inverse(spec, cv), args.out)
    return 0


def cmd_nterm(args) -> int:
    spec = _make_basis(args.basis)
    u = load_coeffs(args.coeffs)
    if u.basis != spec.name:
        raise HyperwaveError(
            f"coefficient file basis {u.basis!r} does not match --basis {spec.name!r}"
        )
    tau = 1.0 / (args.r + 0.5)
    grid = _n_grid(args.nmin, args.nmax)
    curve = nterm.error_curve(u, args.q, grid)
    rows = [
        f"{n},{fmt(curve.errors[n])},{fmt(args.q)},{fmt(args.r)},{fmt(tau)},"
        f"{u.basis},{u.n},{args.seed}"
        for n in grid
    ]
    s_hat = nterm.fit_rate(curve, args.nmin, args.nmax)
    _write_csv(args.out, "N,E_N,q,r,tau,basis,n,seed", rows)
    print(f"s_hat={fmt(s_hat)}")
    return 0


def cmd_compare(args) -> int:
    spec = _make_basis(args.basis)
    u = hyper_forward(spec, args.n, _generate(args, args.kind))
    v = iso_from_hyper(spec, u)
    grid = _n_grid(args.nmin, args.nmax)
    curve_h = nterm.error_curve(u, args.q, grid)
    curve_i = nterm.error_curve(v, args.q, grid)
    rows = [
        f"{n},{fmt(curve_h.errors[n])},{fmt(curve_i.errors[n])}" for n in grid
    ]
    rate_h = nterm.fit_rate(curve_h, args.nmin, args.nmax)
    rate_i = nterm.fit_rate(curve_i, args.nmin, args.nmax)
    _write_csv(args.out, "N,E_hyperbolic,E_isotropic", rows)
    print(f"rate_hyperbolic={fmt(rate_h)}")
    print(f"rate_isotropic={fmt(rate_i)}")
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise HyperwaveError(f"--p-grid must be comma-separated numbers, got {text!r}") from None


def _p_values(args) -> list[float]:
    if args.p is not None:
        return [args.p]
    return _parse_grid(args.p_grid)


def _suite_ps(spec, args, suite: str) -> list[float]:
    """The exponents of ``--p``/``--p-grid`` that the lemma1 (p <= 1) or
    lemma4 (1/alpha < p <= 2) suite checks."""
    if suite == "lemma1":
        return [p for p in _p_values(args) if p <= 1.0]
    return [p for p in _p_values(args) if 1.0 / spec.alpha < p <= 2.0]


def _check_suite_flags(spec, names, args) -> None:
    """Reject, before any suite runs, flags that leave a selected suite
    nothing to check, which would pass it unchecked or fail it on no data:
    no exponent for lemma1 or lemma4, or an ``--m-max`` below a suite's
    first level, or below its third for the running maxima of lemma4,
    riesz and embedding (whose levels start at 4); also an ``--m-max``
    beyond the finest level of the basis."""
    if args.m_max > spec.max_level:
        raise HyperwaveError(f"--m-max {args.m_max} is beyond the finest level "
                             f"{spec.max_level} of the basis")
    lowest = {"biorth": spec.j0, "decay": spec.j0 + 1, "lemma4": spec.j0 + 2,
              "riesz": spec.j0 + 2, "embedding": 6}
    for name in names:
        if name in ("lemma1", "lemma4") and not _suite_ps(spec, args, name):
            raise HyperwaveError(f"--p/--p-grid hold no exponent in the range of the {name} suite")
        if args.m_max < lowest.get(name, args.m_max):
            raise HyperwaveError(f"--m-max {args.m_max} leaves the {name} suite nothing to "
                                 f"check; it needs at least {lowest[name]}")


def _suite_biorth(spec, args):
    tol = 1e-12 if spec.name == "haar" else 1e-10
    rows = []
    for m in range(spec.j0, args.m_max + 1):
        defect = verify.check_biorthogonality(spec, m)
        rows.append(("biorth", "", m, defect, tol, defect <= tol))
    return rows


def _suite_decay(spec, args):
    alpha = min(4.0, spec.alpha)
    rows = []
    for m in range(spec.j0 + 1, args.m_max + 1):
        ratio = check_entry_decay(spec, m, alpha)
        rows.append(("decay", f"alpha={fmt(alpha)}", m, ratio, 2.0, ratio <= 2.0))
    return rows


def _suite_lemma1(spec, args):
    rng = np.random.default_rng(args.seed)
    rows = []
    for p in _suite_ps(spec, args, "lemma1"):
        worst = 0.0
        ok = True
        for _ in range(args.trials):
            size = rng.integers(2, 9)
            dense = np.zeros((size, size))
            nnz = rng.integers(1, size * size + 1)
            ii = rng.integers(0, size, nnz)
            jj = rng.integers(0, size, nnz)
            dense[ii, jj] = rng.standard_normal(nnz)
            a = BandMatrix.from_dense(dense)
            bound = verify.matrix_p_norm_bound(a, p)
            est = verify.operator_p_norm_estimate(a, p, trials=10, seed=int(rng.integers(1 << 30)))
            if bound > 0:
                worst = max(worst, est / bound)
            ok = ok and est <= bound
        rows.append(("lemma1", f"p={fmt(p)}", 0, worst, 1.0, ok))
    return rows


def _suite_lemma4(spec, args):
    def one(p):
        report = verify.check_transform_norms(spec, p, args.m_max, seed=args.seed)
        out = []
        for row in report.rows:
            out.append(
                ("lemma4_T_scaled", f"p={fmt(p)}", row.m, row.t_norm_scaled, float("nan"), True)
            )
            out.append(
                ("lemma4_Tt", f"p={fmt(p)}", row.m, row.t_trans_norm, float("nan"), True)
            )
        flags = report.bounded
        out.append(("lemma4_bounded", f"p={fmt(p)}", args.m_max,
                    float(all(flags.values())), 1.0, all(flags.values())))
        if p == 2.0:
            dev = max(abs(r.t_norm - 1.0) for r in report.rows)
            out.append(("lemma4_p2_unit", "p=2", args.m_max, dev, 1e-10, dev <= 1e-10))
        return out

    return [row for rows in _map_ordered(one, _suite_ps(spec, args, "lemma4")) for row in rows]


def _suite_kron(spec, args):
    rng = np.random.default_rng(args.seed)
    rows = []
    for p, tol in ((1.0, 1e-12), (np.inf, 1e-12), (2.0, 1e-9)):
        worst = 0.0
        for _ in range(args.trials):
            a = BandMatrix.from_dense(rng.standard_normal((4, 4)))
            b = BandMatrix.from_dense(rng.standard_normal((4, 4)))
            lhs, rhs = verify.check_kron_identity(a, b, p)
            worst = max(worst, abs(lhs - rhs))
        label = "inf" if np.isinf(p) else fmt(p)
        rows.append(("kron", f"p={label}", 0, worst, tol, worst <= tol))
    return rows


def _suite_riesz(spec, args):
    rows = []
    conds = []
    m_cap = min(args.m_max, 10)  # dense eigendecomposition beyond is too slow
    for m in range(spec.j0, m_cap + 1):
        cond = verify.check_riesz(spec, m)
        conds.append(cond)
        rows.append(("riesz", "", m, cond, float("nan"), True))
    ok = verify.running_max_stabilizes(conds)
    rows.append(("riesz_bounded", "", m_cap, float(ok), 1.0, ok))
    return rows


def _suite_embedding(spec, args):
    rng = np.random.default_rng(args.seed)
    q, s = args.q, args.s
    maxima_low, maxima_up = [], []
    rows = []
    m_cap = min(args.m_max, 8)  # dense random vectors beyond are too slow
    for m in range(4, m_cap + 1):
        size = spec.delta_size(m)
        low = up = 0.0
        for _ in range(args.trials):
            u = hyper_forward(spec, args.n, rng.standard_normal((size,) * args.n))
            lo, hi = verify.check_embedding_chain(spec, u, q, s)
            low = max(low, lo)
            up = max(up, hi)
        maxima_low.append(low)
        maxima_up.append(up)
        rows.append(("embedding_lower", f"q={fmt(q)},s={fmt(s)}", m, low, float("nan"), True))
        rows.append(("embedding_upper", f"q={fmt(q)},s={fmt(s)}", m, up, float("nan"), True))
    ok = verify.running_max_stabilizes(maxima_low, rel=0.25) and \
        verify.running_max_stabilizes(maxima_up, rel=0.25)
    rows.append(("embedding_stable", f"q={fmt(q)},s={fmt(s)}", m_cap,
                 float(ok), 1.0, ok))
    return rows


SUITES = {
    "biorth": _suite_biorth,
    "decay": _suite_decay,
    "lemma1": _suite_lemma1,
    "lemma4": _suite_lemma4,
    "kron": _suite_kron,
    "riesz": _suite_riesz,
    "embedding": _suite_embedding,
}


def cmd_verify(args) -> int:
    spec = _make_basis(args.basis)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise HyperwaveError(f"unknown suite {args.suite!r}; options: "
                                 + ", ".join(sorted(SUITES)) + ", all")
    if "embedding" in names and args.n != 2:
        raise UnsupportedDimension(f"the embedding suite is implemented for --n 2, got {args.n}")
    _check_suite_flags(spec, names, args)
    all_rows = []
    for name in names:
        all_rows.extend(SUITES[name](spec, args))
    csv_rows = [
        f"{check},{param},{m},{fmt(value)},{fmt(bound)},{str(ok).lower()}"
        for check, param, m, value, bound, ok in all_rows
    ]
    _write_csv(args.out, "check,param,m,value,bound,pass", csv_rows)
    failures = [r for r in all_rows if not r[5]]
    print(f"checks: {len(all_rows)}  failures: {len(failures)}")
    for check, param, m, value, bound, _ in failures:
        print(f"FAIL {check} {param} m={m} value={fmt(value)} bound={fmt(bound)}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing (flat "key = value" config files mirror every flag; flags
# given on the command line override the config).
# ---------------------------------------------------------------------------


_SHARED_FLAGS = {
    "n": dict(type=int, default=2, choices=(1, 2, 3)),
    "jmax": dict(type=int, default=5),
    "q": dict(type=float, default=0.0),
    "s": dict(type=float, default=0.25),
    "r": dict(type=float, default=1.0),
    "p": dict(type=float, default=None, help="single integrability exponent; overrides --p-grid"),
    "beta": dict(type=float, default=1.0),
    "nmin": dict(type=int, default=16),
    "nmax": dict(type=int, default=4096),
}


def _add_common(p, *flags):
    """The flags of every command, and the shared flags named in ``flags``."""
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--basis", default="haar", help="haar or maskfile=PATH")
    for name, kwargs in _SHARED_FLAGS.items():
        if name in flags:
            p.add_argument(f"--{name}", **kwargs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwave",
        description="Hyperbolic wavelet transforms, sequence norms, N-term "
        "approximation and verification suites on the unit cube.",
    )
    # No prefix matching: a flag a command lacks never reads as another (--s as --seed).
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="forward/inverse multiscale transform", allow_abbrev=False)
    _add_common(p, "n", "jmax", "q", "r", "beta")
    p.add_argument("--input", default=None, help="array or coefficient file")
    p.add_argument("--coeffs", default=None, help="coefficient file (inverse)")
    p.add_argument("--generate", default=None, choices=testfunctions.KINDS,
                   help="generate input data instead of reading a file")
    p.add_argument("--direction", default="forward", choices=("forward", "inverse"))
    p.add_argument("--system", default="hyper", choices=("hyper", "iso"))
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("nterm", help="best N-term error curve and fitted rate", allow_abbrev=False)
    _add_common(p, "q", "r", "nmin", "nmax")
    p.add_argument("--coeffs", required=True)
    p.set_defaults(func=cmd_nterm)

    p = sub.add_parser("verify", help="numerical verification suites", allow_abbrev=False)
    _add_common(p, "n", "q", "s", "p")
    p.add_argument("--suite", default="all")
    p.add_argument("--m-max", dest="m_max", type=int, default=12,
                   help="finest level; the embedding and riesz suites cap "
                        "their own depth at 8 and 10 for tractability")
    p.add_argument("--p-grid", dest="p_grid", default="0.6,1,1.5,2")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="isotropic vs hyperbolic N-term curves", allow_abbrev=False)
    _add_common(p, "n", "jmax", "q", "r", "beta", "nmin", "nmax")
    p.add_argument("--kind", default="tensor_kink", choices=testfunctions.KINDS)
    p.set_defaults(func=cmd_compare)

    return parser


def _load_config(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not (key and eq):
                raise HyperwaveError(f"malformed config line: {raw.rstrip()!r}")
            out[key.replace("-", "_")] = value
    return out


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        raise HyperwaveError("--config needs a file path") from None
    if path is None:
        return
    config = _load_config(path)
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not sub_actions or argv[0] not in sub_actions[0].choices:
        return
    subparser = sub_actions[0].choices[argv[0]]
    defaults = {}
    for action in subparser._actions:
        if action.dest in config:
            raw = config[action.dest]
            try:
                value = action.type(raw) if action.type else raw
            except ValueError:
                raise HyperwaveError(f"config key {action.dest!r}: cannot read {raw!r} "
                                     f"as {action.type.__name__}") from None
            if action.choices is not None and value not in action.choices:
                raise HyperwaveError(f"config key {action.dest!r}: {raw!r} is not one of "
                                     + ", ".join(map(str, action.choices)))
            defaults[action.dest] = value
    subparser.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        _check_flag_values(args)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return exc.code
    except (HyperwaveError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

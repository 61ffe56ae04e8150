"""Batch front end: transforms, N-term curves, verification sweeps.

Every command is deterministic given its flags and seed; CSV outputs are
byte-stable (all floats printed with 17 significant digits) so runs can be
diffed across platforms.  Exit codes: 0 pass, 1 check failure, 2 I/O
error, 3 validation error, 141 (128 + SIGPIPE) stdout closed by its
reader, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import nterm, testfunctions, verify
from .basis1d import (
    COMPACT_SUPPORT_ALPHA,
    BasisSpec,
    load_mask_file,
    make_haar_basis,
    make_mask_basis,
)
from .errors import HyperwaveError
from .tables import fmt, header_fields, open_text, parse_ints, read_head, read_rows, write_table
from .tensorbasis import (
    DIMENSIONS,
    hyper_forward,
    hyper_from_iso,
    hyper_inverse,
    iso_from_hyper,
    load_coeffs,
    save_coeffs,
)

__all__ = ["main", "load_array", "save_array"]


def _map_ordered(fn, items):
    """fn over items, in order; bench/spans.py rebinds this to trace the suites."""
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
    with open_text(path, "array", HyperwaveError) as fh:
        line = read_head(fh)
        if not line:
            raise OSError(f"empty input file: {path}")
        head = line.split()
        if head[:2] != ["hyperwave-array", "v1"]:
            raise OSError(f"not a hyperwave array file: {path}")
        try:
            fields = header_fields(head[2:])
            n, m = parse_ints([fields["n"], fields["m"]])
        except (KeyError, ValueError):
            raise HyperwaveError(f"malformed array file {path}: {line!r}") from None
        try:
            _, values = read_rows(fh, 0)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise HyperwaveError(f"malformed array file {path}: {exc}") from None
    if n not in DIMENSIONS:
        raise HyperwaveError(f"array file {path} declares n={n}, not in "
                             f"{DIMENSIONS[0]}..{DIMENSIONS[-1]}")
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
    text = "\n".join([header, *rows]) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_coeffs(path, spec: BasisSpec):
    cv = load_coeffs(path)
    if cv.basis != spec.name:
        raise HyperwaveError(f"coefficient file basis {cv.basis!r} does not match "
                             f"--basis {spec.name!r}")
    return cv


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
        cv = _load_coeffs(source, spec)
        if cv.system == "isotropic":
            cv = hyper_from_iso(spec, cv)
        save_array(hyper_inverse(spec, cv), args.out)
    return 0


def cmd_nterm(args) -> int:
    if not args.r + 0.5 > 0:
        raise HyperwaveError(f"--r must be above -1/2 (1/tau = r + 1/2), got {args.r}")
    spec = _make_basis(args.basis)
    u = _load_coeffs(args.coeffs, spec)
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


def _exponents(args) -> list[float]:
    """``--p``, or else the values of ``--p-grid``; each must be finite and positive."""
    try:
        ps = [args.p] if args.p is not None else \
            [float(tok) for tok in args.p_grid.split(",") if tok.strip()]
    except ValueError:
        raise HyperwaveError(f"--p-grid must be comma-separated numbers, "
                             f"got {args.p_grid!r}") from None
    for p in ps:
        if not (math.isfinite(p) and p > 0):
            raise HyperwaveError(f"--p/--p-grid values must be finite and positive, got {p}")
    return ps


SUITES = dict(verify.SUITES)  # name -> suite(spec, args); bench/spans.py rebinds entries


def cmd_verify(args) -> int:
    """Check the flags against every selected record of ``verify.SUITES``,
    so that nothing runs when one suite would have nothing to check; then
    run the suites in table order, write the CSV and print the summary."""
    spec = _make_basis(args.basis)
    if args.suite != "all" and args.suite not in SUITES:
        raise HyperwaveError(f"unknown suite {args.suite!r}; options: "
                             + ", ".join(sorted(SUITES)) + ", all")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    args.ps = _exponents(args)
    for name in names:
        verify.SUITES[name].check(spec, args)
    all_rows = [row for rows in _map_ordered(lambda name: SUITES[name](spec, args), names)
                for row in rows]
    _write_csv(args.out, "check,param,m,value,bound,pass",
               [f"{check},{param},{m},{fmt(value)},{fmt(bound)},{str(ok).lower()}"
                for check, param, m, value, bound, ok in all_rows])
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
    "n": dict(type=int, default=2, choices=DIMENSIONS),
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


def _cap_text(suite) -> str:
    """'<suite> stops at <cap at the default --n>', then each --n whose cap
    differs; empty for a suite with no cap."""
    usual = suite.cap(_SHARED_FLAGS["n"]["default"])
    if usual == math.inf:
        return ""
    other = [f"{cap} for --n {n}" for n in DIMENSIONS if (cap := suite.cap(n)) != usual]
    return f"{suite.name} stops at {usual}" + (f" ({', '.join(other)})" if other else "")


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
                   help="finest level; for tractability " + ", ".join(
                       filter(None, map(_cap_text, verify.SUITES.values()))))
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
    with open_text(path, "config", HyperwaveError) as fh:
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
        # A library warning, such as parameters outside a theorem's window or
        # an overflow, is one stderr line here, not a file path and a source line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = args.func(args)
                sys.stdout.flush()  # a closed stdout shows here, not at exit
                return code
            finally:
                for message in dict.fromkeys(str(w.message) for w in caught):
                    print(f"warning: {message}", file=sys.stderr)
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return exc.code
    except (HyperwaveError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # the reader stopped early; not 0, which would hide a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # silent exit flush
        return 141
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

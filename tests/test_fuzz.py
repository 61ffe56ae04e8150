"""Malformed inputs end in exit code 2 or 3 and never in an exception.

Valid coefficient, array, mask and config files and valid flag lists are
mutated (truncated, a field dropped, a token garbled, an index negated, a
type put out of range) and run through ``cli.main`` in-process.  Every
mutation is built so that its result is invalid, and none raises a level or
``jmax``, so no example allocates a large grid.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwave import hyper_forward, iso_from_hyper, make_haar_basis, save_coeffs, save_mask_file
from hyperwave.cli import main, save_array

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)
MUTATIONS = ("truncate", "drop", "garble", "negate", "bad_type")


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The valid input files, one per kind, written once."""
    spec = make_haar_basis(0)
    root = tmp_path_factory.mktemp("seeds")
    data = np.random.default_rng(5).standard_normal((8, 8))
    u = hyper_forward(spec, 2, data)
    save_coeffs(u, root / "u.coeffs")
    save_coeffs(iso_from_hyper(spec, u), root / "v.coeffs")
    save_array(data, root / "a.arr")
    save_mask_file(root / "haar3.masks", {j: spec.masks(j) for j in (1, 2, 3)})
    (root / "c.cfg").write_text("jmax = 3\nseed = 2\nn = 2\nq = 0.5\n")
    return root


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``cli.main(argv)``; an exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def commands(kind: str, path: Path, out: Path) -> list[list[str]]:
    """The commands that read a file of this kind; a coefficient file goes
    through the inverse transform and through nterm."""
    return {
        "coeffs": [["transform", "--direction", "inverse", "--coeffs", path, "--out", out],
                   ["nterm", "--coeffs", path, "--nmin", 2, "--nmax", 16, "--out", out]],
        "array": [["transform", "--input", path, "--out", out]],
        "masks": [["transform", "--generate", "random_decay", "--jmax", 3,
                   "--basis", f"maskfile={path}", "--out", out]],
        "config": [["transform", "--config", path, "--generate", "random_decay", "--out", out]],
    }[kind]


def is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def mutate_lines(draw, lines: list[list[str]], mutation: str, index_cols, type_cols):
    """Mutate a file of whitespace-separated tokens.  ``index_cols(i)`` gives
    the token columns of line i that hold indices or dimensions, and
    ``type_cols(i)`` those that hold a type entry."""
    if mutation == "truncate":
        # Cut within a line: its first t tokens stay, the rest of the file goes.
        i = draw(st.integers(0, len(lines) - 1))
        t = draw(st.integers(1 if i and len(lines[i]) > 1 else 0, len(lines[i]) - 1))
        return lines[:i] + [lines[i][:t]]
    i = draw(st.integers(0, len(lines) - 1))
    line = list(lines[i])
    if mutation == "drop":
        del line[draw(st.integers(0, len(line) - 1))]
    elif mutation == "garble":
        t = draw(st.integers(0, len(line) - 1))
        line[t] += draw(st.sampled_from(["@", "x", ".5.", "#"]))
    else:
        cols = index_cols(i) if mutation == "negate" else type_cols(i)
        if not cols:
            return None
        t = draw(st.sampled_from(cols))
        line[t] = (str(-int(line[t]) - 1) if mutation == "negate"
                   else draw(st.sampled_from(["2", "3", "-1", "257", "300"])))
    return lines[:i] + [line] + lines[i + 1:]


def mutate_file(draw, kind: str, text: str, mutation: str):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if kind == "coeffs":
        head = lines[0]
        n = int(head[3].split("=")[1])
        k = 2 * n + (head[2] == "isotropic")
        index_cols = lambda i: list(range(k)) if i else []
        type_cols = lambda i: list(range(1, n + 1)) if i and head[2] == "isotropic" else []
    elif kind == "masks":
        # Block headers (level rows cols) and the row and col of each triple;
        # no Haar weight is an integer.
        index_cols = lambda i: [c for c, tok in enumerate(lines[i]) if is_int(tok)]
        type_cols = lambda i: []
    else:
        index_cols = type_cols = lambda i: []
    mutated = mutate_lines(draw, lines, mutation, index_cols, type_cols)
    return None if mutated is None else "".join(" ".join(ln) + "\n" for ln in mutated)


def mutate_config(draw, text: str, mutation: str):
    lines = text.splitlines()
    pairs = [[part.strip() for part in line.split("=")] for line in lines]
    if mutation == "negate":  # an integer value: jmax, seed or n
        i = draw(st.sampled_from([i for i, (_, v) in enumerate(pairs) if is_int(v)]))
    else:
        i = draw(st.integers(0, len(lines) - 1))
    key, value = pairs[i]
    if mutation == "truncate":
        # Cut the line before its value: a key without "=" or an empty value.
        lines[i] = f"{key} = "[:draw(st.integers(1, len(key) + 3))]
    elif mutation == "drop":
        lines[i] = draw(st.sampled_from([f"{key} =", f"{key} {value}", f"= {value}"]))
    elif mutation == "garble":
        lines[i] = f"{key} = {value}{draw(st.sampled_from(['@', 'x', '.5.']))}"
    elif mutation == "negate":
        lines[i] = f"{key} = {-int(value) - 1}"
    else:  # a value out of the key's range or type
        bad = {"jmax": ["1.5", "3e0"], "seed": ["0x2", "2.0"], "n": ["4", "0"], "q": ["0,5", "1/2"]}
        lines[i] = f"{key} = {draw(st.sampled_from(bad[key]))}"
    return "\n".join(lines) + "\n"


@given(st.data())
@FUZZ
def test_mutated_file_exits_2_or_3(seeds, data):
    kind = data.draw(st.sampled_from(["coeffs", "coeffs_iso", "array", "masks", "config"]))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    source = {"coeffs": "u.coeffs", "coeffs_iso": "v.coeffs", "array": "a.arr",
              "masks": "haar3.masks", "config": "c.cfg"}[kind]
    kind = kind.removesuffix("_iso")
    text = (seeds / source).read_text()
    if kind == "config":
        mutated = mutate_config(data.draw, text, mutation)
    else:
        mutated = mutate_file(data.draw, kind, text, mutation)
    if mutated is None:  # no column of this file takes the mutation
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / source
        path.write_text(mutated)
        for argv in commands(kind, path, Path(tmp) / "out"):
            code, err = run(argv)
            assert code in (2, 3), (argv[0], kind, mutation, mutated, err)
            assert "Traceback" not in err and "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("kind, source", [("coeffs", "u.coeffs"), ("coeffs", "v.coeffs"),
                                          ("array", "a.arr"), ("masks", "haar3.masks"),
                                          ("config", "c.cfg")])
def test_unmutated_seeds_run(seeds, tmp_path, kind, source):
    for argv in commands(kind, seeds / source, tmp_path / "out"):
        assert run(argv)[0] == 0, argv[0]


FLAG_SEEDS = [
    ["verify", "--suite", "lemma1", "--p-grid", "0.6,1", "--trials", "2", "--seed", "1"],
    ["verify", "--suite", "biorth", "--m-max", "3"],
    ["transform", "--generate", "random_decay", "--jmax", "3", "--seed", "2"],
    ["nterm", "--coeffs", "{coeffs}", "--nmin", "2", "--nmax", "16"],
    ["compare", "--jmax", "3", "--nmin", "2", "--nmax", "16"],
]


def mutate_flags(draw, argv: list[str], mutation: str):
    # Flag names sit at odd positions, their values at the even ones after.
    values = list(range(2, len(argv), 2))
    if mutation == "truncate":
        # The flags end after a flag name, which is then left without a value.
        return argv[:draw(st.sampled_from(values))]
    if mutation == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
        return argv
    if mutation == "garble":
        t = draw(st.sampled_from(values))
        argv[t] += draw(st.sampled_from(["@", "x", ".5."]))
        return argv
    if mutation == "negate":
        numeric = [t for t in values if is_int(argv[t])]
        t = draw(st.sampled_from(numeric))
        argv[t] = str(-int(argv[t]) - 1)
        return argv
    return argv + draw(st.sampled_from([["--n", "4"], ["--n", "0"], ["--trials", "0"]]))


@given(st.data())
@FUZZ
def test_mutated_flags_exit_2_or_3(seeds, data):
    argv = [a.format(coeffs=seeds / "u.coeffs") for a in data.draw(st.sampled_from(FLAG_SEEDS))]
    mutated = mutate_flags(data.draw, argv, data.draw(st.sampled_from(MUTATIONS)))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run(mutated + ["--out", Path(tmp) / "out"])
    assert code in (2, 3), (mutated, err)
    assert "Traceback" not in err and "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("argv", FLAG_SEEDS)
def test_unmutated_flags_run(seeds, tmp_path, argv):
    argv = [a.format(coeffs=seeds / "u.coeffs") for a in argv]
    assert run(argv + ["--out", tmp_path / "out"])[0] == 0

"""The one row grammar of every hyperwave file format: k base-10 int64
tokens and one float, written as %.17g so that it reads back to the same
bits.  Coefficient files, array files (k = 0) and the blocks of mask and
matrix files (k = 2) are header lines followed by such rows.  The rows of
coefficient and array files are streamed: ``np.loadtxt`` parses them from
the open file, with no list of lines, and the line reader runs only to
name the first row it rejects.  :func:`_index_order` is the file order of
rows and the repeated-index check of every index set, BandMatrix's too."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "fmt", "open_text", "read_head", "read_lines", "read_rows", "header_fields", "parse_row",
    "parse_ints", "read_table", "table_text", "write_table",
]


def fmt(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def open_text(path, what: str, error):
    """The text file at ``path``, open for reading; a byte that does not
    decode raises ``error``, 'malformed <what> file <path>: ...'."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"malformed {what} file {path}: {exc}") from None


def read_lines(fh) -> list[str]:
    """The non-blank lines left in a text file, stripped."""
    return [s for ln in fh if (s := ln.strip())]


def read_head(fh) -> str:
    """The first non-blank line left in a text file, stripped; '' at its end."""
    return next((s for ln in iter(fh.readline, "") if (s := ln.strip())), "")


def read_rows(fh, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`read_table` of the non-blank lines left in a text file,
    streamed: ``np.loadtxt`` parses the file itself, and only a file it
    rejects is read again as lines, for the error of ``read_table``."""
    start = fh.tell()
    if not read_head(fh):  # no row: np.loadtxt would warn
        return read_table([], k)
    fh.seek(start)
    try:
        table = np.loadtxt(fh, dtype=_row_dtype(k), comments=None, ndmin=1)
    except ValueError:
        fh.seek(start)
        return read_table(read_lines(fh), k)
    return table["i"], table["v"]


def _row_dtype(k: int) -> np.dtype:
    return np.dtype([("i", np.int64, (k,)), ("v", np.float64)])


def header_fields(tokens) -> dict[str, str]:
    """``key=value`` tokens as a dict; a token without ``=`` raises ValueError."""
    return dict(part.split("=", 1) for part in tokens)


def read_table(rows: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, k) int64 columns and (N,) float64 values of the table rows; a
    row that is not k base-10 int64 tokens and one float raises ValueError
    with the first such row, quoted, as its message."""
    dtype = _row_dtype(k)
    try:
        table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1) if rows else np.zeros(0, dtype)
    except ValueError:
        for row in rows:
            try:
                np.loadtxt([row], dtype=dtype, comments=None)
            except ValueError:
                raise ValueError(repr(row.strip())) from None
        raise
    return table["i"], table["v"]


def parse_row(tokens) -> tuple[tuple[int, ...], float]:
    """Header tokens read as one table row: all but the last as the row's
    int columns, the last as its float, so that a header accepts no number
    a row would reject (``1_0``, ``1.0`` or ``0x10`` as an int, ``2_0`` as a
    float, non-ASCII digits, ints beyond int64); any other token, or an
    empty one, raises ValueError."""
    columns, values = read_table([" ".join(tokens)], len(tokens) - 1)
    return tuple(columns[0].tolist()), float(values[0])


def parse_ints(tokens) -> tuple[int, ...]:
    """The tokens of a header as Python ints, read as by ``parse_row``."""
    return parse_row([*tokens, "0"])[0]


def table_text(columns, values: np.ndarray) -> str:
    """One newline-terminated row per entry of ``columns``, k 1-D int arrays, and ``values``."""
    cells = np.stack([*columns, values], axis=1, dtype=object).ravel().tolist()
    return ("%d " * len(columns) + "%.17g\n") * len(values) % tuple(cells)


WRITE_CHUNK_ROWS = 4096  # rows formatted per write: the text of one chunk is held at a time


def write_table(path, head: str, columns, values: np.ndarray) -> None:
    """The header line, then the rows of ``columns`` and ``values``, stacked
    and written ``WRITE_CHUNK_ROWS`` rows at a time."""
    with open(path, "w") as fh:
        fh.write(head + "\n")
        for start in range(0, len(values), WRITE_CHUNK_ROWS):
            rows = slice(start, start + WRITE_CHUNK_ROWS)
            fh.write(table_text([c[rows] for c in columns], values[rows]))


def _index_code(columns, lo, base) -> np.ndarray:
    """One int64 code per index, given as one integer array per digit in
    ``columns``, most significant first: its digits in the mixed radix
    ``base`` are the columns less ``lo`` (the caller keeps them in range),
    so ascending codes are the lexicographic order of the indices."""
    code = np.subtract(columns[0], lo[0], dtype=np.int64)
    for digit, low, radix in zip(columns[1:], lo[1:], base[1:]):
        code = code * radix + np.subtract(digit, low, dtype=np.int64)
    return code


def _row_code(columns):
    """(code, lo, base): :func:`_index_code` of ``columns``, each offset by
    its minimum in the radix of its span; None when the product of the spans
    needs 63 bits or more, so that every radix and code fits int64."""
    bounds = [(int(c.min()), int(c.max())) if len(c) else (0, 0) for c in columns]
    lo, base = [low for low, _ in bounds], [high - low + 1 for low, high in bounds]
    if math.prod(base) >= 2 ** 63:
        return None
    return _index_code(columns, lo, base), lo, base


def _index_order(columns, unique: str = "") -> np.ndarray | slice:
    """The lexicographic order of the rows of ``columns``, 1-D integer arrays
    most significant first, equal rows in input order: ``slice(None)`` for
    rows in that order already, found in one pass over their code; else the
    lexsort of the code, or of the columns when the code does not fit.
    Given ``unique``, the name of the rows, equal rows raise
    DimensionMismatch('duplicate <unique>')."""
    coded = _row_code(columns)
    keys = list(columns) if coded is None else [coded[0]]
    in_order = coded is not None and (keys[0][1:] >= keys[0][:-1]).all()
    order = slice(None) if in_order else np.lexsort(keys[::-1])
    keys = [key[order] for key in keys]
    if unique and np.logical_and.reduce([key[1:] == key[:-1] for key in keys]).any():
        raise DimensionMismatch(f"duplicate {unique}")
    return order

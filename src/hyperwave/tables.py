"""The one row grammar of every hyperwave file format: k base-10 int64
tokens and one float, written as %.17g so that it reads back to the same
bits.  Coefficient files, array files (k = 0) and the blocks of mask and
matrix files (k = 2) are header lines followed by such rows."""

from __future__ import annotations

import numpy as np

__all__ = [
    "fmt", "read_lines", "header_fields", "parse_row", "parse_ints", "read_table", "table_text",
    "write_table",
]


def fmt(x: float) -> str:
    return f"{x:.17g}"


def read_lines(path) -> list[str]:
    """The non-blank lines of a text file, stripped."""
    with open(path) as fh:
        return [s for ln in fh if (s := ln.strip())]


def header_fields(tokens) -> dict[str, str]:
    """``key=value`` tokens as a dict; a token without ``=`` raises ValueError."""
    return dict(part.split("=", 1) for part in tokens)


def read_table(rows: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, k) int64 columns and (N,) float64 values of the table rows; a
    row that is not k base-10 int64 tokens and one float raises ValueError
    with the first such row, quoted, as its message."""
    dtype = np.dtype([("i", np.int64, (k,)), ("v", np.float64)])
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


def table_text(columns: np.ndarray, values: np.ndarray) -> str:
    """One newline-terminated row per entry of ``columns`` (N, k) and ``values``."""
    cells = np.concatenate([columns, values[:, None]], axis=1, dtype=object)
    row = "%d " * columns.shape[1] + "%.17g\n"
    return "".join([row] * len(cells)) % tuple(cells.ravel().tolist())


WRITE_CHUNK_ROWS = 4096  # rows formatted per write: the text of one chunk is held at a time


def write_table(path, head: str, columns: np.ndarray, values: np.ndarray) -> None:
    """The header line, then the rows of ``columns`` and ``values``, written
    ``WRITE_CHUNK_ROWS`` rows at a time."""
    with open(path, "w") as fh:
        fh.write(head + "\n")
        for start in range(0, len(values), WRITE_CHUNK_ROWS):
            rows = slice(start, start + WRITE_CHUNK_ROWS)
            fh.write(table_text(columns[rows], values[rows]))

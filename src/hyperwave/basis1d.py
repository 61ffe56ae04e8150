"""Univariate biorthogonal multiscale bases on [0, 1].

A basis is described entirely by its refinement masks: four banded
matrices per level that expand the coarse scaling functions and the
wavelets in the next-finer single-scale basis.  The built-in Haar basis
is exact in floating point; richer bases enter through user-supplied
mask quadruples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bandmatrix import BandMatrix
from .errors import (
    DimensionMismatch,
    InvalidExponent,
    LevelBelowCoarsest,
    LevelTooCoarse,
    MaskInconsistent,
)
from .tables import open_text, parse_ints, read_lines, read_table, table_text

__all__ = [
    "COMPACT_SUPPORT_ALPHA",
    "BasisSpec",
    "LevelIndex",
    "MaskQuad",
    "make_haar_basis",
    "make_mask_basis",
    "evaluate_on_dyadic_grid",
    "load_mask_file",
    "save_mask_file",
    "load_matrix_file",
    "save_matrix_file",
]

# Decay exponent stored for compactly supported bases; compact support
# satisfies the far-field decay estimate for every finite exponent, so any
# large sentinel keeps the decay checks well defined.
COMPACT_SUPPORT_ALPHA = 64.0

USER_MASK_TOL = 1e-10


class LevelIndex(NamedTuple):
    """Univariate index (level, position); at the coarsest level wavelet
    indices alias scaling indices."""

    j: int
    k: int
    kind: str = "wavelet"  # "scaling" | "wavelet"


class MaskQuad(NamedTuple):
    """Refinement masks of one level: primal pair and dual pair."""

    m0: BandMatrix
    m1: BandMatrix
    mt0: BandMatrix
    mt1: BandMatrix


@dataclass(frozen=True)
class BasisSpec:
    """Validated univariate biorthogonal multiscale basis.

    Attributes
    ----------
    name : str
        Identifier, recorded in coefficient file headers.
    d, d_tilde : int
        Polynomial exactness of the primal / dual system.
    gamma, gamma_tilde : float
        Sobolev regularity bounds of the primal / dual system.
    alpha : float
        Far-field decay exponent (a large sentinel for compact support).
    j0 : int
        Coarsest level.
    max_level : int
        Finest level for which masks are available.
    bandwidth : int
        Largest |row - 2*col| over all mask entries, a constant by
        construction.
    """

    name: str
    d: int
    d_tilde: int
    gamma: float
    gamma_tilde: float
    alpha: float
    j0: int
    max_level: int
    bandwidth: int
    _masks: Callable[[int], MaskQuad] = field(repr=False)
    _delta: Callable[[int], int] = field(repr=False)
    _nabla: Callable[[int], int] = field(repr=False)
    # (T_m, Tdual_m) by m, filled once each by transform1d.build_transform;
    # not an init field, so dataclasses.replace starts an empty one.
    _transforms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def masks(self, j: int) -> MaskQuad:
        """Mask quadruple (M_j0, M_j1, dual M_j0, dual M_j1) for level j > j0."""
        if j <= self.j0:
            raise LevelTooCoarse(f"masks exist for levels > j0={self.j0}, got {j}")
        if j > self.max_level:
            raise DimensionMismatch(f"level {j} beyond max_level {self.max_level}")
        return self._masks(j)

    def delta_size(self, j: int) -> int:
        """|Delta_j|, the single-scale dimension at level j."""
        if j < self.j0:
            raise LevelTooCoarse(f"level {j} below coarsest level {self.j0}")
        if j > self.max_level:
            raise DimensionMismatch(f"level {j} beyond max_level {self.max_level}")
        return self._delta(j)

    def nabla_size(self, j: int) -> int:
        """|Nabla_j|; at j0 this aliases |Delta_j0|."""
        if j < self.j0:
            raise LevelTooCoarse(f"level {j} below coarsest level {self.j0}")
        if j == self.j0:
            return self._delta(self.j0)
        return self._nabla(j)

    def block_slice(self, j: int) -> tuple[int, int]:
        """Index range of level-j coefficients in the multiscale ordering
        [Delta_j0, Nabla_j0+1, ..., Nabla_m]."""
        if j == self.j0:
            return 0, self.delta_size(self.j0)
        return self.delta_size(j - 1), self.delta_size(j)

    def level_of_size(self, size: int) -> int:
        """Level m with |Delta_m| == size."""
        for j in range(self.j0, self.max_level + 1):
            if self.delta_size(j) == size:
                return j
        raise DimensionMismatch(f"no level of this basis has dimension {size}")


def _haar_masks(j: int) -> MaskQuad:
    n = 2 ** (j - 1)
    rows = np.empty(2 * n, dtype=np.int64)
    rows[0::2] = 2 * np.arange(n)
    rows[1::2] = 2 * np.arange(n) + 1
    cols = np.repeat(np.arange(n), 2)
    s = 1.0 / math.sqrt(2.0)
    lo = np.full(2 * n, s)
    hi = np.empty(2 * n)
    hi[0::2] = s
    hi[1::2] = -s
    m0 = BandMatrix(2 * n, n, rows, cols, lo)
    m1 = BandMatrix(2 * n, n, rows, cols, hi)
    return MaskQuad(m0, m1, m0, m1)


def make_haar_basis(j0: int = 0, max_level: int = 32) -> BasisSpec:
    """Orthonormal Haar basis: scaling functions are scaled dyadic indicators.

    The masks stack adjacent fine-scale indicators with weights 1/sqrt(2)
    (lowpass) and +-1/sqrt(2) (highpass); primal and dual masks coincide.
    """
    if j0 < 0:
        raise LevelBelowCoarsest(f"coarsest level must be >= 0, got {j0}")
    cache: dict[int, MaskQuad] = {}

    def masks(j: int) -> MaskQuad:
        if j not in cache:
            cache[j] = _haar_masks(j)
        return cache[j]

    return BasisSpec(
        name="haar",
        d=1,
        d_tilde=1,
        gamma=0.5,
        gamma_tilde=0.5,
        alpha=COMPACT_SUPPORT_ALPHA,
        j0=j0,
        max_level=max_level,
        bandwidth=1,
        _masks=masks,
        _delta=lambda j: 2 ** j,
        _nabla=lambda j: 2 ** (j - 1),
    )


def _validate_quad(j: int, quad: MaskQuad, tol: float) -> None:
    m0, m1, mt0, mt1 = quad
    if mt0.shape != m0.shape or mt1.shape != m1.shape:
        raise DimensionMismatch(f"level {j}: dual mask shapes differ from primal")
    if m0.rows != m1.rows:
        raise DimensionMismatch(f"level {j}: M0 and M1 must share row dimension")
    if m0.cols + m1.cols != m0.rows:
        raise DimensionMismatch(
            f"level {j}: |Delta_{j}| = {m0.rows} != |Delta_{j-1}| + |Nabla_{j}|"
            f" = {m0.cols} + {m1.cols}"
        )
    # The four block identities of the biorthogonal two-scale relation.
    blocks = [
        (mt0.product_defect(m0), "Mt0^T M0 - I"),
        (mt1.product_defect(m1), "Mt1^T M1 - I"),
        (mt0.product_defect(m1, eye=False), "Mt0^T M1"),
        (mt1.product_defect(m0, eye=False), "Mt1^T M0"),
    ]
    for defect, label in blocks:
        if defect > tol:
            raise MaskInconsistent(
                f"level {j}: block identity {label} violated by {defect:.3e}"
            )


def _mask_bandwidth(quad: MaskQuad) -> int:
    bw = 0
    for m in quad:
        rows, cols, _ = m.entries()
        if rows.size:
            bw = max(bw, int(np.abs(rows - 2 * cols).max()))
    return bw


def make_mask_basis(
    masks: dict[int, MaskQuad],
    d: int,
    d_tilde: int,
    gamma: float,
    gamma_tilde: float,
    alpha: float,
    j0: int,
    name: str = "maskbasis",
    max_bandwidth: int | None = None,
    tol: float = USER_MASK_TOL,
) -> BasisSpec:
    """Build a basis from user-supplied mask quadruples for levels j0+1 .. max.

    Validation enforces the four biorthogonality block identities at each
    level (within ``tol``), consistent dimension bookkeeping across levels,
    and, when ``max_bandwidth`` is given, that no mask entry strays further
    than that many positions from the two-scale diagonal row = 2*col.
    """
    if alpha <= 1:
        raise InvalidExponent(f"decay exponent alpha must exceed 1, got {alpha}")
    if gamma <= 0 or gamma_tilde <= 0:
        raise MaskInconsistent("regularities gamma, gamma_tilde must be positive")
    if not masks:
        raise DimensionMismatch("no mask levels supplied")
    levels = sorted(masks)
    if levels[0] != j0 + 1 or levels != list(range(j0 + 1, levels[-1] + 1)):
        raise DimensionMismatch(
            f"mask levels must be contiguous starting at j0+1={j0 + 1}, got {levels}"
        )
    delta = {j0: masks[levels[0]].m0.cols}
    nabla = {}
    bandwidth = 0
    for j in levels:
        quad = masks[j]
        if quad.m0.cols != delta[j - 1]:
            raise DimensionMismatch(
                f"level {j}: M0 has {quad.m0.cols} columns, expected |Delta_{j-1}|"
                f" = {delta[j - 1]}"
            )
        _validate_quad(j, quad, tol)
        delta[j] = quad.m0.rows
        nabla[j] = quad.m1.cols
        bandwidth = max(bandwidth, _mask_bandwidth(quad))
    if max_bandwidth is not None and bandwidth > max_bandwidth:
        raise MaskInconsistent(
            f"mask bandwidth {bandwidth} exceeds declared bound {max_bandwidth}"
        )
    frozen = dict(masks)
    return BasisSpec(
        name=name,
        d=d,
        d_tilde=d_tilde,
        gamma=gamma,
        gamma_tilde=gamma_tilde,
        alpha=alpha,
        j0=j0,
        max_level=levels[-1],
        bandwidth=bandwidth,
        _masks=lambda j: frozen[j],
        _delta=lambda j: delta[j],
        _nabla=lambda j: nabla[j],
    )


def evaluate_on_dyadic_grid(spec: BasisSpec, idx: LevelIndex, m: int) -> np.ndarray:
    """Values of the indexed function on the midpoint grid {2^-m (k + 1/2)}.

    The index is expanded into level-m single-scale coefficients by the
    mask cascade and the expansion is read off against the level-m scaling
    functions.  A wavelet of level j > j0 is the synthesis of a unit
    detail from level j on; a scaling function of level j, like a wavelet
    of level j0, that of a unit coarse coefficient from level j + 1 on.
    For piecewise-constant scaling functions (Haar) the returned values
    are exact; otherwise they are first-order midpoint approximations of
    the cascade limit.
    """
    from .transform1d import _step

    j, k = idx.j, idx.k
    if m <= j:
        raise LevelTooCoarse(f"grid level {m} must exceed index level {j}")
    if idx.kind == "scaling":
        lo, width, first = 0, spec.delta_size(j), j + 1
    else:
        width, lo = spec.nabla_size(j), spec.block_slice(j)[0]
        first = max(j, spec.j0 + 1)
    if not 0 <= k < width:
        raise DimensionMismatch(f"{idx.kind} position {k} out of range at level {j}")
    c = np.zeros(spec.delta_size(m))
    c[lo + k] = 1.0
    for level in range(first, m + 1):
        _step(spec.masks(level), c, (), 0, *spec.block_slice(level), analysis=False)
    return (2.0 ** (m / 2.0)) * c


# ---------------------------------------------------------------------------
# Plain-text mask file format: per block a header line "level rows cols",
# then one "row col value" line per entry, in the row grammar of
# hyperwave.tables with k = 2, each block terminated by "#".
# Blocks appear in groups of four per level, ordered M0, M1, Mt0, Mt1.
# ---------------------------------------------------------------------------


def _write_blocks(path, blocks) -> None:
    """Write (level, matrix) pairs as blocks."""
    with open(path, "w") as fh:
        for level, m in blocks:
            r, c, v = m.entries()
            fh.write(f"{level} {m.rows} {m.cols}\n{table_text((r, c), v)}#\n")


def _read_blocks(path, kind: str) -> list[tuple[int, BandMatrix]]:
    """The (level, matrix) pairs of the blocks of a ``kind`` ("mask" or
    "matrix") file."""
    with open_text(path, kind, DimensionMismatch) as fh:
        lines = read_lines(fh)
    if lines and lines[-1] != "#":
        raise DimensionMismatch(f"unterminated block in {path} (missing '#')")
    ends = [i for i, ln in enumerate(lines) if ln == "#"]
    blocks = []
    for start, end in zip([0, *(e + 1 for e in ends)], ends):
        try:
            level, rows, cols = parse_ints(lines[start].split())
        except ValueError:
            raise DimensionMismatch(f"malformed block header in {path}: {lines[start]!r}") from None
        try:
            idx, values = read_table(lines[start + 1:end], 2)
        except ValueError as exc:
            raise DimensionMismatch(f"malformed mask line in {path}: {exc}") from None
        try:
            blocks.append((level, BandMatrix(rows, cols, idx[:, 0], idx[:, 1], values)))
        except DimensionMismatch as exc:
            raise DimensionMismatch(f"bad block {lines[start]!r} in {path}: {exc}") from None
    return blocks


def save_mask_file(path, masks: dict[int, MaskQuad]) -> None:
    _write_blocks(path, ((j, block) for j in sorted(masks) for block in masks[j]))


def load_mask_file(path) -> dict[int, MaskQuad]:
    blocks = _read_blocks(path, "mask")
    if not blocks:
        raise DimensionMismatch(f"mask file {path} holds no blocks")
    groups = [blocks[n:n + 4] for n in range(0, len(blocks), 4)]
    if any(len(g) != 4 or len({level for level, _ in g}) != 1 for g in groups):
        raise DimensionMismatch("expected four consecutive blocks per level")
    return {g[0][0]: MaskQuad(*(b for _, b in g)) for g in groups}


def save_matrix_file(path, matrix: BandMatrix, level: int = 0) -> None:
    """Export a single matrix as one block of the mask file format."""
    _write_blocks(path, [(level, matrix)])


def load_matrix_file(path) -> tuple[int, BandMatrix]:
    """Read one matrix block; returns (level, matrix)."""
    blocks = _read_blocks(path, "matrix")
    if len(blocks) != 1:
        raise DimensionMismatch(f"expected one block, found {len(blocks)}")
    return blocks[0]

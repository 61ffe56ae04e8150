"""Hybrid-regularity wavelet approximation on the unit cube.

Biorthogonal multiscale transforms in one to three dimensions, hyperbolic
and isotropic coefficient systems, discrete Sobolev/Besov sequence norms,
best N-term approximation, and numerical checks of the quantitative
estimates (matrix p-norm bounds, coefficient decay, transform norm growth,
Kronecker norm identities, embedding chains).

All objects are immutable after construction and all operations are pure
functions, safe to share across threads.  The fields some objects fill
lazily (the per-direction product plans of a ``BandMatrix``, the
assembled transforms of a ``BasisSpec``, the ``support`` keys of an
``NTermResult``; of a ``CoeffVector``, the index arrays, values and
isotropic ``etypes`` of one that keeps the grid it was made from, in
either system, and the block sums of each exponent p the sequence norms
have read) are written once and then only read.  A kept grid costs 8
bytes per grid cell in both systems.  A ``CoeffVector`` and a
``MultiscaleVector`` keep the arrays they are given as read-only views,
leaving the caller's arrays writable, and a ``BandMatrix`` hands out
read-only arrays.  One index order, the lexicographic order of coefficient
files, ``tables._index_order``, orders and checks for repeats the entries
of both coefficient systems and the triples of a ``BandMatrix``; every
vector the library makes from a grid, or reads from a file it wrote, lists
its entries in it, so writing one sorts nothing; every scatter into a grid
refuses a repeat through it, and places the entries of both systems by one
block layout, ``tensorbasis._block_slices``.  The library needs numpy
alone: its sparse products are numpy code that gives the bits scipy's CSR
products gave.
"""

from .bandmatrix import BandMatrix
from .basis1d import (
    COMPACT_SUPPORT_ALPHA,
    BasisSpec,
    LevelIndex,
    MaskQuad,
    evaluate_on_dyadic_grid,
    load_mask_file,
    load_matrix_file,
    make_haar_basis,
    make_mask_basis,
    save_mask_file,
    save_matrix_file,
)
from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    HyperwaveError,
    InsufficientPoints,
    InvalidExponent,
    LevelBelowCoarsest,
    LevelTooCoarse,
    MaskInconsistent,
    SizeTooLarge,
    UnknownKind,
    UnsupportedDimension,
    WrongSystem,
)
from .nterm import NTermResult, best_nterm, error_curve, fit_rate, jackson_bernstein_ratios
from .seqnorms import (
    NormParams,
    besov_hybrid_norm,
    besov_iso_norm,
    gk_norm,
    sobolev_norm_hyper,
    sobolev_norm_iso,
    weak_ltau,
)
from .tensorbasis import (
    HYPERBOLIC,
    ISOTROPIC,
    CoeffVector,
    HyperIndex,
    IsoIndex,
    hyper_forward,
    hyper_from_iso,
    hyper_inverse,
    iso_from_hyper,
    iso_synthesize,
    load_coeffs,
    rescale,
    save_coeffs,
)
from .testfunctions import KINDS, sample_function
from .transform1d import (
    MultiscaleVector,
    build_transform,
    cascade_cost,
    check_entry_decay,
    forward,
    inverse,
)
from .verify import (
    TransformNormReport,
    check_biorthogonality,
    check_embedding_chain,
    check_kron_identity,
    check_riesz,
    check_transform_norms,
    matrix_p_norm_bound,
    operator_p_norm_estimate,
    running_max_stabilizes,
)

__version__ = "0.1.0"

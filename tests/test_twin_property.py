"""A vector the library makes from a grid and its twin built from index
columns in another entry order give the same results, bit for bit.

Hypothesis draws the system, n in 1..3, a small truncation m, one of four
bases, a density with whole blocks left empty, and grid cells that hold
+-0.0, +-inf and NaN.  The kept vector (it keeps its grid) is compared with
two twins made by ``CoeffVector.from_index_columns``: one in a random
entry order, for the results that do not depend on it (the coefficient
file, the canonical order, the N-term errors and support, and every map
that scatters the twin into a grid through the block table while the kept
vector copies its grid), and one whose blocks are interleaved at random,
each block's entries kept in their order, for the block norms and
Jackson/Bernstein, whose sums add a block's entries in entry order.  NaN
equals NaN; every other value must have the same bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperwave import (
    HYPERBOLIC,
    ISOTROPIC,
    CoeffVector,
    HyperwaveError,
    NormParams,
    besov_hybrid_norm,
    besov_iso_norm,
    check_embedding_chain,
    error_curve,
    hyper_from_iso,
    hyper_inverse,
    iso_from_hyper,
    iso_synthesize,
    jackson_bernstein_ratios,
    make_haar_basis,
    make_mask_basis,
    rescale,
    save_coeffs,
)
from hyperwave.seqnorms import _block_norms
from hyperwave.tensorbasis import _blocks, _from_multiscale_array, _to_multiscale_array
from conftest import lifted_spec, scaled_haar_masks

TWINS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
SPECS = {
    "haar": make_haar_basis(0),
    "haar_j2": make_haar_basis(2),
    "scaled": make_mask_basis(scaled_haar_masks(0, 10), d=1, d_tilde=1, gamma=0.5,
                              gamma_tilde=0.5, alpha=64.0, j0=0, name="scaledhaar"),
    "lifted": lifted_spec(),
}
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@st.composite
def kept_vectors(draw):
    """A basis and a vector made from a drawn multiscale grid, which it keeps."""
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    # Listed largest first: generation leans towards the first choice.
    n = draw(st.sampled_from([2, 3, 1]))
    m = spec.j0 + draw(st.sampled_from([3, 4, 2, 1, 0] if n < 3 else [2, 3, 1, 0]))
    system = draw(st.sampled_from([HYPERBOLIC, ISOTROPIC]))
    density = draw(st.sampled_from([0.5, 1.0, 0.1, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = rng.standard_normal((spec.delta_size(m),) * n)
    grid[rng.random(grid.shape) >= density] = 0.0
    for _, block in _blocks(spec, grid, n, m, system):
        if rng.random() < 0.3:
            block[...] = 0.0
    special = rng.random(grid.shape) < 0.1
    grid[special] = rng.choice(SPECIAL, np.count_nonzero(special))
    return spec, _from_multiscale_array(spec, grid, n, m, system), rng


def rebuilt(x, rows):
    """The twin of ``x`` listing its entries in the order ``rows``."""
    return CoeffVector.from_index_columns(x.system, x.n, x.p_norm, x.max_level, x.basis,
                                          x.index_columns()[rows], x.values[rows])


def interleaved(rng, groups):
    """A random order of the entries in which the entries of each group
    keep their order: the k-th slot a random sequence gives a group takes
    that group's k-th entry."""
    slots = groups[rng.permutation(len(groups))]
    order = np.empty(len(groups), dtype=np.int64)
    order[np.argsort(slots, kind="stable")] = np.argsort(groups, kind="stable")
    return order


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except (ZeroDivisionError, HyperwaveError) as exc:
            return type(exc), str(exc)


def assert_same(got, want):
    """Equal structure and, leaf by leaf, equal bits, NaN equal to NaN."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        got, want = list(got.values()), list(want.values())
    if isinstance(want, (tuple, list)) and not (want and isinstance(want[0], type)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
        return
    if isinstance(want, (float, np.ndarray)):
        a, b = np.asarray(got), np.asarray(want)
        assert a.shape == b.shape and a.dtype == b.dtype
        if a.dtype.kind == "f":
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan)
            a, b = a[~nan], b[~nan]
        assert a.tobytes() == b.tobytes()
        return
    assert got == want


def scattered(spec, x, rows):
    """The results of the maps that scatter ``x`` into a grid, a vector as
    its index columns and values, then its values rescaled to p = 1 and
    p = inf, taken in the order ``rows``."""
    if x.system == HYPERBOLIC:
        maps = hyper_inverse, iso_from_hyper, lambda *a: check_embedding_chain(*a, 0.0, 0.25)
    else:
        maps = iso_synthesize, hyper_from_iso
    got = [outcome(lambda: f(spec, x)) for f in (_to_multiscale_array, *maps)]
    got = [(y.index_columns(), y.values) if isinstance(y, CoeffVector) else y for y in got]
    return got + [rescale(x, p).values[rows] for p in (1.0, np.inf)]


def block_norms(x, p):
    """The block levels and inner norms of ``x``, and one norm of its system."""
    if x.system == HYPERBOLIC:
        return (_block_norms(x, p),
                besov_hybrid_norm(x, NormParams(q=0.5, s=0.25, p=p, tau=1.5)))
    return _block_norms(x, p), besov_iso_norm(x, 0.5, p=p, tau=1.5)


@TWINS
@given(kept_vectors())
def test_kept_vector_and_twins_agree(tmp_path_factory, drawn):
    spec, kept, rng = drawn
    total = kept.num_entries
    perm = rng.permutation(total)
    shuffled = rebuilt(kept, perm)
    assert_same(scattered(spec, shuffled, slice(None)), scattered(spec, kept, perm))
    groups = kept.levels if kept.system == ISOTROPIC else \
        np.unique(kept.levels, axis=0, return_inverse=True)[1].reshape(-1)
    by_blocks = rebuilt(kept, interleaved(rng, groups))

    root = tmp_path_factory.mktemp("twins")
    for i, x in enumerate((kept, shuffled)):
        save_coeffs(x, root / f"{i}.coeffs")
    assert (root / "0.coeffs").read_bytes() == (root / "1.coeffs").read_bytes()
    canonical = shuffled.canonical_order()
    assert canonical.index_columns().tobytes() == kept.index_columns().tobytes()
    assert_same(canonical.values, kept.values)

    ns = sorted({0, 1, 2, 5, total, total + 3})
    for q in (0.0, 0.5):
        want = outcome(lambda: error_curve(kept, q, ns))
        for twin in (shuffled, by_blocks):
            got = outcome(lambda: error_curve(twin, q, ns))
            assert_same(got.errors, want.errors)
            assert got.support == want.support

    for twin in (by_blocks, canonical):
        for p in (1.0, 2.0, np.inf):
            assert_same(outcome(lambda: block_norms(twin, p)),
                        outcome(lambda: block_norms(kept, p)))
        if kept.system == HYPERBOLIC:
            assert_same(outcome(lambda: jackson_bernstein_ratios(twin, 0.5, 0.25)),
                        outcome(lambda: jackson_bernstein_ratios(kept, 0.5, 0.25)))

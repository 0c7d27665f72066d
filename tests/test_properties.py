"""Property-based invariants over randomly drawn layouts.

Every property runs a fixed, derandomized sample, so the suite stays
deterministic.  Each invariant is checked against the subdomain index sets
or the dense operators directly, not against the stacked arrays the glue
operators and the Galerkin map read.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from raspen.coarse import coarse_jacobian, coarse_space
from raspen.decomposition import (
    build_1d_layout,
    build_2d_layout,
    prolong,
    restricted_prolong,
)
from raspen.problems import DiffusionProblem2D, smooth_forchheimer

_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                     database=None)
_DATA = st.sampled_from([0.0, 1.0, -2.5])


@st.composite
def layouts_1d(draw):
    """(layout, k, per-axis shape): M cells, I blocks, any admissible k."""
    M = draw(st.integers(1, 150))
    # few blocks are drawn often: the remainder rule matters most there
    I = draw(st.integers(1, min(M, 4)) | st.integers(1, M))
    k = draw(st.integers(0, M // I if I > 1 else M + 2))
    lay = build_1d_layout(M, I, k, dirichlet=(draw(_DATA), draw(_DATA)))
    return lay, k, (M,)


@st.composite
def layouts_2d(draw):
    """(layout, k, (ny, nx)): N x N blocks of an nx-by-ny grid."""
    N = draw(st.integers(1, 5))
    nx, ny = N * draw(st.integers(1, 6)), N * draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nx, ny) // N if N > 1 else max(nx, ny) + 2))
    lay = build_2d_layout(nx, ny, N, k, dirichlet_value=draw(_DATA))
    return lay, k, (ny, nx)


_LAYOUTS = st.one_of(layouts_1d(), layouts_2d())


def _box(cells, shape):
    """Per axis, the (lo, hi) range of the grid coordinates of `cells`."""
    coords = np.unravel_index(cells, shape)
    return [(c.min(), c.max() + 1) for c in coords]


@_SETTINGS
@given(_LAYOUTS)
def test_owned_sets_partition_the_cells_into_near_equal_boxes(drawn):
    lay, _, shape = drawn
    owned = np.concatenate([s.owned for s in lay.subdomains])
    assert np.array_equal(np.sort(owned), np.arange(lay.n_cells))
    for s in lay.subdomains:
        box = _box(s.owned, shape)
        assert len(s.owned) == np.prod([hi - lo for lo, hi in box])
    # blocks along an axis differ by at most one cell, larger ones first
    sizes = [len(s.owned) for s in lay.subdomains]
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)


@_SETTINGS
@given(_LAYOUTS)
def test_each_overlap_is_its_owned_block_grown_by_k_and_clipped(drawn):
    lay, k, shape = drawn
    grid = np.arange(lay.n_cells).reshape(shape)
    for s in lay.subdomains:
        grown = tuple(slice(max(lo - k, 0), min(hi + k, n))
                      for (lo, hi), n in zip(_box(s.owned, shape), shape))
        assert np.array_equal(s.overlap, grid[grown].ravel())
        assert np.array_equal(s.overlap[s.owned_local], s.owned)


@_SETTINGS
@given(_LAYOUTS)
def test_glue_of_stacked_ones_gives_ones_and_overlap_multiplicity(drawn):
    lay, _, _ = drawn
    ones = np.ones(len(lay.cells))
    assert np.array_equal(restricted_prolong(lay, ones), np.ones(lay.n_cells))
    multiplicity = sum(np.isin(np.arange(lay.n_cells), s.overlap).astype(float)
                       for s in lay.subdomains)
    assert np.array_equal(prolong(lay, ones), multiplicity)


@_SETTINGS
@given(_LAYOUTS, st.data())
def test_galerkin_map_gives_the_dense_coarse_jacobian(drawn, data):
    # the map reads only J's pattern and P0, so the problem's boundary
    # values need not be the layout's; its size and grid must be
    lay, _, shape = drawn
    problem = (smooth_forchheimer(*shape, 1.0) if len(shape) == 1
               else DiffusionProblem2D(shape[1], shape[0]))
    n = lay.n_subdomains
    u0 = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                     max_size=n)))
    P0 = lay.P0
    dense = (P0.T @ problem.jacobian(P0 @ u0) @ P0).toarray()
    J0 = coarse_jacobian(coarse_space(problem, lay), u0)
    assert np.abs(J0 - dense).max() <= 1e-13 * np.abs(dense).max()

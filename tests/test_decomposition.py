"""Tests for the overlapping decomposition layouts and transfer operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from raspen.decomposition import (
    build_1d_layout,
    build_2d_layout,
    prolong,
    restricted_prolong,
)


def test_1d_blocks_no_overlap():
    lay = build_1d_layout(9, 3, 0)
    assert [s.owned.tolist() for s in lay.subdomains] == [
        [0, 1, 2],
        [3, 4, 5],
        [6, 7, 8],
    ]
    for s in lay.subdomains:
        assert s.overlap.tolist() == s.owned.tolist()
        assert s.owned_local.tolist() == [0, 1, 2]


def test_1d_blocks_one_layer():
    lay = build_1d_layout(9, 3, 1)
    assert lay.subdomains[0].overlap.tolist() == [0, 1, 2, 3]
    assert lay.subdomains[1].overlap.tolist() == [2, 3, 4, 5, 6]
    assert lay.subdomains[2].overlap.tolist() == [5, 6, 7, 8]
    assert lay.subdomains[1].owned_local.tolist() == [1, 2, 3]
    # owned blocks still partition the cells
    allowned = np.concatenate([s.owned for s in lay.subdomains])
    assert sorted(allowned.tolist()) == list(range(9))


def test_1d_uneven_blocks():
    lay = build_1d_layout(10, 3, 1)
    sizes = [len(s.owned) for s in lay.subdomains]
    assert sizes == [4, 3, 3]
    assert sum(sizes) == 10


def test_1d_rejects_swallowing_overlap():
    with pytest.raises(ValueError):
        build_1d_layout(9, 3, 4)
    with pytest.raises(ValueError):
        build_1d_layout(12, 4, 5)
    # an overlap may reach exactly to a neighbour's far edge
    build_1d_layout(9, 3, 3)
    # single subdomain has no neighbours to swallow
    build_1d_layout(5, 1, 4)


def test_2d_layout_enumeration():
    lay = build_2d_layout(8, 8, 2, 1)
    assert lay.n_subdomains == 4
    # subdomain 0 owns the lower-left 4x4 block, row-major cell ids
    s0 = lay.subdomains[0]
    expect = [j * 8 + i for j in range(4) for i in range(4)]
    assert s0.owned.tolist() == expect
    # its overlap is the 5x5 block (clipped at the boundary on two sides)
    expect = [j * 8 + i for j in range(5) for i in range(5)]
    assert s0.overlap.tolist() == expect
    # subdomain 3 (top-right) overlap extends down and left
    s3 = lay.subdomains[3]
    expect = [j * 8 + i for j in range(3, 8) for i in range(3, 8)]
    assert s3.overlap.tolist() == expect


def test_2d_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_2d_layout(9, 8, 2, 1)
    with pytest.raises(ValueError):
        build_2d_layout(8, 8, 2, 5)


def _assert_additive_multiplicity(lay, rng):
    """P v[cells] is v times the number of overlaps holding each cell."""
    # integer values keep every partial sum exact
    v = rng.integers(-1000, 1000, lay.n_cells).astype(float)
    multiplicity = np.bincount(lay.cells, minlength=lay.n_cells)
    assert np.array_equal(prolong(lay, v[lay.cells]), v * multiplicity)


@pytest.mark.parametrize(
    "M,I,k",
    [(9, 3, 0), (9, 3, 1), (10, 3, 2), (100, 8, 3), (60, 10, 1)],
)
def test_partition_of_unity_1d(M, I, k):
    lay = build_1d_layout(M, I, k)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(M)
        assert np.array_equal(restricted_prolong(lay, v[lay.cells]), v)
        _assert_additive_multiplicity(lay, rng)


@pytest.mark.parametrize("N,k", [(2, 1), (4, 1), (2, 2)])
def test_partition_of_unity_2d(N, k):
    lay = build_2d_layout(16, 16, N, k)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal(lay.n_cells)
        assert np.array_equal(restricted_prolong(lay, v[lay.cells]), v)
        _assert_additive_multiplicity(lay, rng)


def test_restrict_prolong_identity():
    # R_i P_i = I on each subdomain: glue a stacked vector that is zero
    # outside subdomain i's block and read the overlap cells back
    lay = build_1d_layout(20, 4, 2)
    rng = np.random.default_rng(2)
    start = 0
    for sub in lay.subdomains:
        block = slice(start, start + len(sub.overlap))
        start = block.stop
        assert np.array_equal(lay.cells[block], sub.overlap)
        x = np.zeros(len(lay.cells))
        x[block] = w = rng.standard_normal(len(sub.overlap))
        assert np.array_equal(prolong(lay, x)[sub.overlap], w)
    assert start == len(lay.cells)


def test_coarse_restrictions():
    lay = build_1d_layout(9, 3, 0)
    v = np.arange(9.0)
    assert np.allclose(lay.R0 @ v, [1.0, 4.0, 7.0])
    # mean restriction reproduces coarse-constant-per-block vectors
    blocks = lay.P0 @ np.array([2.0, -1.0, 5.0])
    assert np.allclose(
        lay.R0 @ np.repeat([2.0, -1.0, 5.0], 3),
        [2.0, -1.0, 5.0],
    )
    assert blocks.shape == (9,)


def _interp_1d(nodes, vals, x, ends):
    """Reference piecewise-linear interpolant with pinned or constant ends."""
    y0 = 0.0 if ends[0] == "zero" else vals[0]
    y1 = 0.0 if ends[1] == "zero" else vals[-1]
    xs = np.concatenate(([0.0], nodes, [1.0]))
    ys = np.concatenate(([y0], vals, [y1]))
    return np.interp(x, xs, ys)


def test_coarse_prolong_1d_oracle():
    # default boundary data (0, 1): pinned to 0 at x=0, constant toward x=L
    lay = build_1d_layout(12, 3, 1)
    # zero data at both ends: pinned to 0 on both sides
    lay00 = build_1d_layout(12, 3, 1, dirichlet=(0.0, 0.0))
    centers = (np.arange(12) + 0.5) / 12
    nodes = np.array([lay.subdomains[i].owned.mean() + 0.5 for i in range(3)]) / 12
    rng = np.random.default_rng(3)
    for _ in range(5):
        v0 = rng.standard_normal(3)
        want = _interp_1d(nodes, v0, centers, ("zero", "const"))
        assert np.allclose(lay.P0 @ v0, want, atol=1e-14)
        want00 = _interp_1d(nodes, v0, centers, ("zero", "zero"))
        assert np.allclose(lay00.P0 @ v0, want00, atol=1e-14)


def test_coarse_prolong_2d_boundary_rules():
    # with nonzero boundary data, constants prolong to 1 everywhere
    lay = build_2d_layout(8, 8, 2, 1)
    z = (lay.P0 @ np.ones(4)).reshape(8, 8)
    assert np.allclose(z, 1.0)
    # with zero boundary data the value decays toward the Dirichlet edge x=1
    lay0 = build_2d_layout(8, 8, 2, 1, dirichlet_value=0.0)
    z0 = (lay0.P0 @ np.ones(4)).reshape(8, 8)
    # y-direction is Neumann on both sides: rows repeat outside the node band
    assert np.allclose(z0[0], z0[1])
    assert np.allclose(z0[-1], z0[-2])
    # left of the first x-node the value is constant 1
    assert np.allclose(z0[:, 0], 1.0)
    assert np.allclose(z0[:, 1], 1.0)
    # toward x=1 it interpolates linearly from 1 at the last node to 0 at x=1
    xc = (np.arange(8) + 0.5) / 8
    xlast = (1 + 0.5) / 2  # second node of two
    want = (1.0 - xc[-1]) / (1.0 - xlast)
    assert np.allclose(z0[:, -1], want)


def test_coarse_prolong_2d_separable_oracle():
    # a bilinear P0 reproduces products of the 1D interpolants
    lay = build_2d_layout(8, 8, 4, 1)
    xc = (np.arange(8) + 0.5) / 8
    xn = (np.arange(4) + 0.5) / 4
    rng = np.random.default_rng(4)
    ax, ay = rng.standard_normal(4), rng.standard_normal(4)
    v0 = np.outer(ay, ax).ravel()  # coarse DOF (cx, cy) -> cy*N + cx
    got = (lay.P0 @ v0).reshape(8, 8)

    def wx(x):
        if x <= xn[0]:
            return np.array([1.0, 0, 0, 0])
        if x >= xn[-1]:
            return np.array([0, 0, 0, 1.0])
        j = np.searchsorted(xn, x) - 1
        t = (x - xn[j]) / (xn[j + 1] - xn[j])
        out = np.zeros(4)
        out[j], out[j + 1] = 1 - t, t
        return out

    def wy(y):
        if y <= xn[0]:
            return np.array([1.0, 0, 0, 0])
        if y >= xn[-1]:
            return np.array([0, 0, 0, 1.0])
        j = np.searchsorted(xn, y) - 1
        t = (y - xn[j]) / (xn[j + 1] - xn[j])
        out = np.zeros(4)
        out[j], out[j + 1] = 1 - t, t
        return out

    for jy in range(8):
        for ix in range(8):
            want = (wy(xc[jy]) @ ay) * (wx(xc[ix]) @ ax)
            assert got[jy, ix] == pytest.approx(want, abs=1e-14)


def _loop_linear_weights(targets, nodes, left, right):
    """P0's 1D weights target by target, the oracle for _linear_weights."""
    n = len(nodes)
    rows, cols, data = [], [], []
    for k, x in enumerate(targets):
        if x <= nodes[0]:
            if left == "const" or nodes[0] == 0.0:
                rows.append(k), cols.append(0), data.append(1.0)
            else:
                rows.append(k), cols.append(0), data.append(x / nodes[0])
        elif x >= nodes[-1]:
            if right == "const" or nodes[-1] == 1.0:
                rows.append(k), cols.append(n - 1), data.append(1.0)
            else:
                w = (1.0 - x) / (1.0 - nodes[-1])
                rows.append(k), cols.append(n - 1), data.append(w)
        else:
            j = int(np.searchsorted(nodes, x, side="right")) - 1
            j = min(j, n - 2)
            t = (x - nodes[j]) / (nodes[j + 1] - nodes[j])
            rows.extend([k, k])
            cols.extend([j, j + 1])
            data.extend([1.0 - t, t])
    return sp.csr_matrix((data, (rows, cols)), shape=(len(targets), n))


def _same_csr(A, B):
    """Bit-identical CSR matrices: pattern, explicit zeros, dtypes and values."""
    return (A.shape == B.shape
            and all(np.array_equal(a, b) and a.dtype == b.dtype
                    for a, b in ((A.indptr, B.indptr), (A.indices, B.indices),
                                 (A.data, B.data))))


@pytest.mark.parametrize("dirichlet", [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0),
                                       (1.0, 1.0)])
def test_coarse_prolong_1d_matches_loop_oracle(dirichlet):
    left, right = ("zero" if d == 0.0 else "const" for d in dirichlet)
    checked = 0
    for M in [*range(1, 60), 100, 240, 800]:
        centers = (np.arange(M) + 0.5) / M
        for I in sorted({min(I, M) for I in (1, 2, 3, M // 7, M // 2, M)} - {0}):
            lay = build_1d_layout(M, I, 0, dirichlet=dirichlet)
            nodes = np.array([centers[s.owned].mean() for s in lay.subdomains])
            want = _loop_linear_weights(centers, nodes, left, right)
            assert _same_csr(lay.P0, want), (M, I)
            checked += 1
    assert checked > 300


@pytest.mark.parametrize("nx, ny, N, dirichlet_value", [
    (8, 8, 4, 1.0), (8, 8, 4, 0.0), (12, 6, 3, 0.0), (5, 10, 5, 1.0),
    (7, 7, 1, 0.0),
])
def test_coarse_prolong_2d_matches_loop_oracle(nx, ny, N, dirichlet_value):
    lay = build_2d_layout(nx, ny, N, 1, dirichlet_value=dirichlet_value)
    xn = (np.arange(N) + 0.5) / N
    right = "zero" if dirichlet_value == 0.0 else "const"
    Wx = _loop_linear_weights((np.arange(nx) + 0.5) / nx, xn, "const", right)
    Wy = _loop_linear_weights((np.arange(ny) + 0.5) / ny, xn, "const", "const")
    assert _same_csr(lay.P0, sp.kron(Wy, Wx, format="csr"))


def test_shape_validation():
    lay = build_1d_layout(9, 3, 1)
    for glue in (prolong, restricted_prolong):
        with pytest.raises(ValueError):
            glue(lay, np.zeros(len(lay.cells) - 1))
        with pytest.raises(ValueError):
            glue(lay, np.zeros(len(lay.cells) + 1))
        with pytest.raises(ValueError):
            glue(lay, np.zeros(lay.n_cells))
    with pytest.raises(ValueError):
        lay.P0 @ np.zeros(4)


# ------------------------------------------- stacked gluing against the loop

def _loop_glue(lay, x, restricted):
    """sum_i P~_i x_i or sum_i P_i x_i one subdomain at a time, each P_i x_i
    a zeroed length-M vector: the per-subdomain gluing the stacked operators
    replace, kept as their oracle."""
    acc = np.zeros(lay.n_cells)
    start = 0
    for sub in lay.subdomains:
        x_i = x[start:start + len(sub.overlap)]
        start += len(sub.overlap)
        out = np.zeros(lay.n_cells)
        if restricted:
            out[sub.owned] = x_i[sub.owned_local]
        else:
            out[sub.overlap] = x_i
        acc += out
    return acc


def _loop_coarse_mean(lay):
    """R0 built cell by cell from the owned sets, the oracle for R0."""
    rows, cols, data = [], [], []
    for i, sub in enumerate(lay.subdomains):
        rows.extend([i] * len(sub.owned))
        cols.extend(sub.owned.tolist())
        data.extend([1.0 / len(sub.owned)] * len(sub.owned))
    return sp.csr_matrix((data, (rows, cols)),
                         shape=(lay.n_subdomains, lay.n_cells))


_EXTREMES = np.array([-0.0, -0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300])


def _assert_glue_matches_loop(lay, rng):
    n = len(lay.cells)
    x = np.where(rng.random(n) < 0.5, rng.choice(_EXTREMES, n),
                 rng.standard_normal(n))
    for glue, restricted in ((prolong, False), (restricted_prolong, True)):
        assert glue(lay, x).tobytes() == _loop_glue(lay, x, restricted).tobytes()
    assert _same_csr(lay.R0, _loop_coarse_mean(lay))


def test_stacked_glue_1d_matches_loop_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    for M in range(1, 61):
        for I in range(1, M + 1):
            for k in range(M // I + 1 if I > 1 else 3):
                _assert_glue_matches_loop(build_1d_layout(M, I, k), rng)
                checked += 1
    assert checked == 7141


@pytest.mark.parametrize("nx, ny, N, k", [
    (8, 8, 2, 1), (8, 8, 4, 2), (12, 6, 3, 2), (5, 10, 5, 1), (7, 7, 1, 0),
    (16, 8, 4, 1), (6, 12, 2, 3),
])
def test_stacked_glue_2d_matches_loop_oracle(nx, ny, N, k):
    _assert_glue_matches_loop(build_2d_layout(nx, ny, N, k),
                              np.random.default_rng(6))

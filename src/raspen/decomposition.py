"""Overlapping Schwarz decompositions of 1D and structured 2D cell meshes.

Both layouts follow one partition rule along each axis: n cells split into
contiguous near-equal blocks, the remainder cells going to the leading
blocks, and each block grown by k cells per side, clipped at the domain
ends.  The 1D layout applies it once; the 2D layout applies it to x and to y
and takes the product of the two, so a 2D subdomain is a rectangle of the
row-major grid.  An overlap may reach a neighbour's far edge but never past
it.  The owned blocks partition the global cell set {0..M-1}; each overlap is
its owned block plus the k layers toward the neighbours.

All subdomains share one stacked overlap space, their overlap values
concatenated in subdomain order: v[layout.cells] is R_i v for every i at
once, subdomain i's part holds layout.sizes[i] entries, and
layout.owned_slots locates each subdomain's owned entries in it.  A stacked
x = (x_1, ..., x_I) is glued onto the cells additively by
prolong (P x = sum_i P_i x_i, P_i the zero extension from the overlap cells)
or by restricted_prolong (P~ x = sum_i P~_i x_i, P~_i writing the owned cells
only), so restricted_prolong(layout, v[layout.cells]) == v holds exactly.
Both sum each cell's contributions from 0.0 in subdomain order.

The coarse space has one degree of freedom per subdomain: R0 averages over the
owned cells, and P0 interpolates linearly (1D) or bilinearly (2D) through the
owned-block centers.
Toward a boundary whose Dirichlet datum is zero, P0 pins the interpolant to 0
(corrections vanish there); toward a Neumann boundary or a boundary with
nonzero Dirichlet datum it extends the nearest nodal value constantly.  Early
iterates have not absorbed a nonzero datum yet, so their corrections carry the
full boundary mismatch; pinning 0 there would exclude that error from the
coarse space and noticeably slow both the two-level fixed point and Newton on
the two-level function.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Subdomain",
    "DecompositionLayout",
    "build_1d_layout",
    "build_2d_layout",
    "prolong",
    "restricted_prolong",
]


@dataclass(frozen=True, eq=False)
class Subdomain:
    """Index sets of one subdomain (sorted, 0-based global cell indices)."""

    owned: np.ndarray        # nonoverlapping partition member
    overlap: np.ndarray      # owned plus k layers into the neighbours
    owned_local: np.ndarray  # positions of the owned cells inside `overlap`


@dataclass(frozen=True, eq=False)
class DecompositionLayout:
    """Immutable decomposition of {0..n_cells-1} with coarse-space operators.

    cells, sizes and owned_slots index the stacked overlap space (module
    docstring), read-only; coarse DOF i belongs to subdomain i.  R0 / P0 are
    sparse operator matrices.
    """

    n_cells: int
    subdomains: tuple
    cells: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    owned_slots: np.ndarray = field(repr=False)
    R0: sp.csr_matrix = field(repr=False)
    P0: sp.csr_matrix = field(repr=False)

    @property
    def n_subdomains(self):
        return len(self.subdomains)


def _blocks(n, parts, k):
    """The partition rule along one axis: (owned, overlap) slices per block.

    n cells split into `parts` contiguous blocks, the first n % parts of
    them one cell larger; each overlap adds k cells per side, clipped at
    0 and n.  Rejects non-integer or out-of-range arguments and an overlap
    that would extend past an entire neighbouring block.
    """
    if not all(isinstance(v, (int, np.integer)) for v in (n, parts, k)):
        raise ValueError(f"sizes, subdomain counts and overlaps must be "
                         f"integers, got {n!r}, {parts!r}, {k!r}")
    n, parts, k = int(n), int(parts), int(k)
    if not (n >= parts >= 1 and k >= 0):
        raise ValueError(f"need cells >= subdomains >= 1 and overlap >= 0, "
                         f"got {n}, {parts}, {k}")
    base, extra = divmod(n, parts)
    if parts > 1 and k > base:
        raise ValueError(f"overlap of {k} layers extends past an entire owned "
                         f"block (smallest block has {base} cells)")
    ends = [i * base + min(i, extra) for i in range(parts + 1)]
    return [(slice(a, b), slice(max(a - k, 0), min(b + k, n)))
            for a, b in zip(ends, ends[1:])]


def _subdomain(grid, owned, overlap):
    """The subdomain owning grid[owned] and overlapping grid[overlap]."""
    owned, overlap = grid[owned].ravel(), grid[overlap].ravel()
    return Subdomain(owned, overlap, np.searchsorted(overlap, owned))


def _layout(n_cells, subdomains, P0):
    """The layout of `subdomains`: stacked-space indices and R0 (owned means)."""
    sizes = np.array([len(s.overlap) for s in subdomains])
    starts = np.cumsum(sizes) - sizes
    cells = np.concatenate([s.overlap for s in subdomains])
    owned_slots = np.concatenate([start + s.owned_local
                                  for start, s in zip(starts, subdomains)])
    for a in (cells, sizes, owned_slots):
        a.flags.writeable = False
    counts = np.array([len(s.owned) for s in subdomains])
    R0 = sp.csr_matrix(
        (np.repeat(1.0 / counts, counts),
         (np.repeat(np.arange(len(subdomains)), counts), cells[owned_slots])),
        shape=(len(subdomains), n_cells))
    return DecompositionLayout(n_cells, tuple(subdomains), cells, sizes, owned_slots,
                               R0, P0)


def _linear_weights(targets, nodes, left, right):
    """1D interpolation weight matrix through (nodes, values).

    left/right select the boundary rule on each side: "zero" interpolates to
    the value 0 at coordinate 0 resp. 1 (Dirichlet), "const" extends the
    nearest nodal value (Neumann).  Returns a (len(targets), len(nodes))
    CSR matrix W with (W @ values)[k] = interpolant(targets[k]).
    """
    x = np.asarray(targets, dtype=float)
    n = len(nodes)
    below = x <= nodes[0]
    above = ~below & (x >= nodes[-1])
    edge, inner = np.flatnonzero(below | above), np.flatnonzero(~below & ~above)
    ends = np.ones(len(x))
    if left != "const" and nodes[0] != 0.0:
        ends[below] = x[below] / nodes[0]
    if right != "const" and nodes[-1] != 1.0:
        ends[above] = (1.0 - x[above]) / (1.0 - nodes[-1])
    j = np.minimum(np.searchsorted(nodes, x[inner], side="right") - 1, n - 2)
    t = (x[inner] - nodes[j]) / (nodes[j + 1] - nodes[j])
    # an interior target's two weights stay in column order within its row
    rows = np.concatenate((edge, inner, inner))
    cols = np.concatenate((np.where(above[edge], n - 1, 0), j, j + 1))
    data = np.concatenate((ends[edge], 1.0 - t, t))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(x), n))


def build_1d_layout(n_cells, n_subdomains, overlap_layers, dirichlet=(0.0, 1.0)):
    """1D layout: the partition rule (module docstring) on M cells, I blocks.

    Subdomain i overlaps k cells into neighbours i-1 and i+1.  dirichlet
    holds the boundary data of the problem the layout will serve; each end
    of P0 is pinned to 0 when the datum there is zero and extends the
    nearest coarse value constantly otherwise (see module docstring).  The
    coarse nodes are the means of the owned cell centres.
    """
    blocks = _blocks(n_cells, n_subdomains, overlap_layers)
    M = int(n_cells)
    grid = np.arange(M)
    subdomains = [_subdomain(grid, owned, overlap) for owned, overlap in blocks]
    centers = (grid + 0.5) / M
    nodes = np.array([centers[s.owned].mean() for s in subdomains])
    left, right = ("zero" if d == 0.0 else "const" for d in dirichlet)
    return _layout(M, subdomains,
                   _linear_weights(centers, nodes, left=left, right=right))


def build_2d_layout(nx, ny, n_per_side, overlap_layers, dirichlet_value=1.0):
    """2D layout: the product of the partition rule on x and on y.

    The nx-by-ny cell grid is split into N x N subdomains, enumerated with
    y outer and x inner; nx and ny must be divisible by n_per_side.  Cells
    are numbered row-major, cell (ix, iy) -> iy*nx + ix, so the overlap adds
    k grid layers in all four directions, clipped at the boundary.  The
    coarse space has one DOF per subdomain at its geometric center; P0 is
    bilinear on that lattice and extends constantly toward the three Neumann
    edges.  Toward the Dirichlet edge x=1 it is pinned to 0 when
    dirichlet_value is zero and extends constantly otherwise (see module
    docstring).
    """
    xs = _blocks(nx, n_per_side, overlap_layers)
    ys = _blocks(ny, n_per_side, overlap_layers)
    nx, ny, N = int(nx), int(ny), int(n_per_side)
    if nx % N or ny % N:
        raise ValueError(f"nx={nx}, ny={ny} must be divisible by n_per_side={N}")
    grid = np.arange(nx * ny).reshape(ny, nx)
    subdomains = [_subdomain(grid, (owned_y, owned_x), (overlap_y, overlap_x))
                  for owned_y, overlap_y in ys for owned_x, overlap_x in xs]

    # P0 = kron(Wy, Wx): coarse DOF (cx, cy) -> cy*N + cx matches the
    # subdomain enumeration above; x=1 is the Dirichlet edge.
    xc = (np.arange(nx) + 0.5) / nx
    yc = (np.arange(ny) + 0.5) / ny
    xn = (np.arange(N) + 0.5) / N
    right = "zero" if dirichlet_value == 0.0 else "const"
    Wx = _linear_weights(xc, xn, left="const", right=right)
    Wy = _linear_weights(yc, xn, left="const", right="const")
    return _layout(nx * ny, subdomains, sp.kron(Wy, Wx, format="csr"))


def _stacked(layout, x):
    x = np.asarray(x, dtype=float)
    if x.shape != layout.cells.shape:
        raise ValueError(f"expected stacked vector of length {len(layout.cells)}")
    return x


def prolong(layout, x):
    """P x = sum_i P_i x_i: add every stacked value into its cell."""
    return np.bincount(layout.cells, _stacked(layout, x), layout.n_cells)


def restricted_prolong(layout, x):
    """P~ x = sum_i P~_i x_i: write each subdomain's owned values only."""
    slots = layout.owned_slots
    return np.bincount(layout.cells[slots], _stacked(layout, x)[slots],
                       layout.n_cells)

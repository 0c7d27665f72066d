"""Overlapping Schwarz decompositions of 1D and structured 2D cell meshes.

Both layouts follow one partition rule along each axis: n cells split into
contiguous near-equal blocks, the remainder cells going to the leading
blocks, and each block grown by k cells per side, clipped at the domain
ends.  The 1D layout applies it once; the 2D layout applies it to x and to y
and takes the product of the two, so a 2D subdomain is a rectangle of the
row-major grid.  The owned blocks partition the global cell set {0..M-1}.
An overlap may reach a neighbour's far edge but never past it.

A layout is five arrays: cells, sizes, owner, R0 and P0.  All subdomains
share one stacked overlap space, their overlap values concatenated in
subdomain order: v[cells] is R_i v for every i at once, subdomain i's
overlap is cells[start_i : start_i + sizes[i]] (start_i the sum of the
earlier sizes), and owner[c] is cell c's entry in the overlap of the
subdomain that owns it, its owned entry.  Each overlap's cells ascend, so
the (subdomain, cell) pairs of the stacked entries ascend too.  A stacked
x = (x_1, ..., x_I) is glued onto the cells additively by prolong
(P x = sum_i P_i x_i, P_i the zero extension from the overlap cells), which
sums each cell's contributions from 0.0 in subdomain order, or by
restricted_prolong (P~ x = sum_i P~_i x_i, P~_i writing the owned cells
only), the gather x[owner] + 0.0: a cell has one owned entry, so this is
that sum too, and restricted_prolong(layout, v[cells]) == v exactly.

The coarse space has one degree of freedom per subdomain: R0 averages over
the owned cells, and P0 interpolates linearly (1D) or bilinearly (2D)
through the owned-block centers.  Toward a boundary whose Dirichlet datum
is zero, P0 pins the interpolant to 0 (corrections vanish there); toward a
Neumann boundary or a boundary with nonzero Dirichlet datum it extends the
nearest nodal value constantly.  Early iterates have not absorbed a
nonzero datum yet, so their corrections carry the full boundary mismatch;
pinning 0 there would exclude that error from the coarse space and
noticeably slow both the two-level fixed point and Newton on the two-level
function.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .local_solver import read_only

__all__ = [
    "DecompositionLayout",
    "build_1d_layout",
    "build_2d_layout",
    "prolong",
    "restricted_prolong",
]


@dataclass(frozen=True, eq=False)
class DecompositionLayout:
    """Immutable decomposition of {0..n_cells-1} with coarse-space operators.

    cells, sizes and owner are the stacked overlap space's arrays, and R0
    and P0 the coarse operators, as CSR matrices (module docstring); all
    are read-only, arrays of the matrices included.  Coarse DOF i belongs
    to subdomain i.
    """

    n_cells: int
    cells: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    owner: np.ndarray = field(repr=False)
    R0: sp.csr_matrix = field(repr=False)
    P0: sp.csr_matrix = field(repr=False)

    @property
    def n_subdomains(self):
        return len(self.sizes)


def _blocks(n, parts, k):
    """The partition rule along one axis: (owned, overlap) slices per block.

    Rejects non-integer or out-of-range arguments and an overlap that would
    extend past an entire neighbouring block.
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


def _layout(grid, blocks, P0):
    """The layout of blocks, (owned, overlap) index pairs into the cell grid:
    stacked-space indices and R0 (owned means)."""
    owned = [grid[o].ravel() for o, _ in blocks]
    overlap = [grid[v].ravel() for _, v in blocks]
    sizes = np.array([len(v) for v in overlap])
    starts = np.cumsum(sizes) - sizes
    cells = np.concatenate(overlap)
    owned_slots = np.concatenate([start + np.searchsorted(v, o)
                                  for start, o, v in zip(starts, owned, overlap)])
    owner = np.empty(grid.size, dtype=owned_slots.dtype)
    owner[cells[owned_slots]] = owned_slots
    counts = np.array([len(o) for o in owned])
    R0 = sp.csr_matrix(
        (np.repeat(1.0 / counts, counts),
         (np.repeat(np.arange(len(blocks)), counts), cells[owned_slots])),
        shape=(len(blocks), grid.size))
    read_only(cells, sizes, owner, R0, P0)
    return DecompositionLayout(grid.size, cells, sizes, owner, R0, P0)


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


def _boundary_rule(datum):
    """P0's rule toward a Dirichlet boundary with this datum (module docstring)."""
    if not np.isfinite(datum):
        raise ValueError(f"Dirichlet data must be finite, got {datum!r}")
    return "zero" if datum == 0.0 else "const"


def build_1d_layout(n_cells, n_subdomains, overlap_layers, dirichlet=(0.0, 1.0)):
    """1D layout: the partition rule (module docstring) on M cells, I blocks.

    dirichlet holds the boundary data of the problem the layout will serve,
    which pick P0's rule at each end (module docstring).  The coarse nodes
    are the means of the owned cell centres.
    """
    blocks = _blocks(n_cells, n_subdomains, overlap_layers)
    M = int(n_cells)
    grid = np.arange(M)
    centers = (grid + 0.5) / M
    nodes = np.array([centers[owned].mean() for owned, _ in blocks])
    left, right = map(_boundary_rule, dirichlet)
    return _layout(grid, blocks, _linear_weights(centers, nodes, left=left, right=right))


def build_2d_layout(nx, ny, n_per_side, overlap_layers, dirichlet_value=1.0):
    """2D layout: the product of the partition rule on x and on y.

    The nx-by-ny cell grid is split into N x N subdomains, enumerated with
    y outer and x inner; nx and ny must be divisible by n_per_side.  Cells
    are numbered row-major, cell (ix, iy) -> iy*nx + ix.  The coarse nodes
    are the subdomains' geometric centres.  The three edges other than x=1
    are Neumann; dirichlet_value, the datum at x=1, picks P0's rule there
    (module docstring).
    """
    xs = _blocks(nx, n_per_side, overlap_layers)
    ys = _blocks(ny, n_per_side, overlap_layers)
    nx, ny, N = int(nx), int(ny), int(n_per_side)
    if nx % N or ny % N:
        raise ValueError(f"nx={nx}, ny={ny} must be divisible by n_per_side={N}")
    blocks = [((owned_y, owned_x), (overlap_y, overlap_x))
              for owned_y, overlap_y in ys for owned_x, overlap_x in xs]

    # P0 = kron(Wy, Wx): coarse DOF (cx, cy) -> cy*N + cx matches the
    # subdomain enumeration above; x=1 is the Dirichlet edge.
    xc = (np.arange(nx) + 0.5) / nx
    yc = (np.arange(ny) + 0.5) / ny
    xn = (np.arange(N) + 0.5) / N
    right = _boundary_rule(dirichlet_value)
    Wx = _linear_weights(xc, xn, left="const", right=right)
    Wy = _linear_weights(yc, xn, left="const", right="const")
    return _layout(np.arange(nx * ny).reshape(ny, nx), blocks,
                   sp.kron(Wy, Wx, format="csr"))


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
    return _stacked(layout, x)[layout.owner] + 0.0

"""Subdomain nonlinear solves defining the local corrections C_i(u), all at once.

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).

The stack.  Every problem's Jacobian has a fixed CSR pattern, the
problem's pattern attribute, and it is the only description of the
stencil read here: block_positions reads it once, evaluating no Jacobian,
and returns a PositionStack, computed for all subdomains in one pass of
array operations, block b for subdomain b in the layout's stacked order.
It holds the problem's row kernels on the stacked rows, fed with where
their entries' columns sit in the stacked local vector
X = (w[layout.cells], w) at a state w: an entry whose column lies in its
block's overlap reads that block's stacked row, every other entry the
frozen exterior, the state itself, at size + column.  It also holds where
the entries of A_ii = R_i J P_i go in the LAPACK band storage of
diag(A_ii), and, on a halo stack (below), the halo response pattern.
Every solve and block function takes a PositionStack.

The sweep.  solve_local solves all subdomains together and returns one
LocalSolveResult: the stack, X at each u^(i) = u + P_i C_i(u), the
corrections and each subdomain's inner Newton count, but no derivative
data.  An inner step is one residual-kernel call, one Jacobian-kernel
call, one band fill and one dgbtrf/dgbtrs at the stack's bandwidths, and
changes only X[:size], so a sweep costs O(sum_i m_i + M), not O(I M).  A
subdomain whose residual norm reaches the tolerance is frozen: its block
becomes the identity and its right-hand side zero, so its step is exactly
zero.  The band has the widest block's bandwidths; its blocks share no
coupling, so band LU eliminates each exactly as it would alone, and every
subdomain's values and count are bit for bit those of a solve of that
subdomain alone.  For the same reason a block whose step overflows is
solved again on the same band, with every other block the identity.
_band_lu is the one place a band is filled and factored, from the
Jacobian kernel's R_i J entries.

The derivatives.  local_jacobian builds a LocalJacobian from one
Jacobian-kernel call and one dgbtrf at the X it is given: at a sweep's
solved X the exact blocks, each at its u^(i); at positions.gather(u) the
blocks of J(u), ASPIN's inexact ones.  Its action applies

    dC_i/du v = -A_ii^{-1} R_i J v = -(v_i + Z_i v_halo)

into the layout's stacked overlap space; Z_i = A_ii^{-1} B_i, B_i the
columns of R_i J outside the overlap, is the halo response.  The form
depends only on the stack's geometry.  On a halo stack, whose halo h (the
most exterior cells any block's rows touch) is at most kl + ku,
local_jacobian solves for Z, one dgbtrs with h right-hand sides, and keeps
as rows the solved rows [I | Z_i] on the response pattern, with lu None:
an action is one CSR product.  On a band stack rows is R_i J on the
stack's CSR pattern and lu its band factors: an action is one CSR product
and one back-substitution (dgbtrs).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

__all__ = [
    "SolverSettings",
    "LocalSolveResult",
    "LocalJacobian",
    "PositionStack",
    "SolveError",
    "LocalSolveError",
    "solve_local",
    "block_positions",
    "local_jacobian",
    "local_correction_jacobian_action",
    "sweep_locals",
]


class SolveError(RuntimeError):
    """A subdomain or coarse nonlinear solve failed to converge."""


class LocalSolveError(SolveError):
    """A subdomain Newton solve failed to converge or became singular.

    subdomain is the failed subdomain's index; residuals holds its inner
    residual norms, from the first one to the one at the failure (empty
    when no inner solve failed).
    """

    def __init__(self, message, subdomain=None, residuals=()):
        super().__init__(message)
        self.subdomain = subdomain
        self.residuals = tuple(residuals)


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances and iteration budgets shared across the solver stack."""

    inner_tol: float = 1e-8
    outer_tol: float = 1e-8
    gmres_tol: float = 1e-8
    max_inner: int = 50
    max_outer: int = 50
    max_fixed_point: int = 500

    def __post_init__(self):
        for name in ("inner_tol", "outer_tol", "gmres_tol"):
            if not 0 < getattr(self, name) < np.inf:  # nan fails too
                raise ValueError(f"{name} must be positive and finite")
        for name in ("max_inner", "max_outer", "max_fixed_point"):
            budget = getattr(self, name)  # a step count: 2.5 never equals one
            if not isinstance(budget, (int, np.integer)) or budget < 1:
                raise ValueError(f"{name} must be an integer of at least 1")


@dataclass(frozen=True, eq=False)
class LocalSolveResult:
    """Outcome of one sweep: the local solves of a PositionStack's subdomains.

    X is positions' stacked local vector at the solved states u^(i),
    read-only: X[:size] holds the solved values on the stacked overlaps,
    X[size:] the base state u, the frozen exterior.  correction stacks, in
    subdomain order, each subdomain's correction; inner_counts holds each
    subdomain's inner Newton count and inner_iterations their sum.
    """

    positions: object = field(repr=False)
    X: np.ndarray = field(repr=False)
    correction: np.ndarray = field(repr=False)
    inner_counts: tuple
    inner_iterations: int


@dataclass(frozen=True, eq=False)
class PositionStack:
    """Where every subdomain's block sits, and what their solves share.

    Block b is subdomain b of layout.  X, the stacked local vector at a
    state w, is (w[layout.cells], w): the stacked overlaps, then the state
    (gather); residual and jacobian are the problem's row kernels on the
    stacked overlap rows, functions of X.  Block b has sizes[b] stacked
    rows, from block_starts[b].  R_i J's entries, stacked, are the
    jacobian kernel's output, in the CSR pattern (columns, indptr) of one
    index dtype, so a CSR matrix on it copies neither.  diag(A_ii) is a
    band matrix with bandwidths kl and ku, the largest of the blocks': the
    stacked entries at block, held[b] of them block b's, go to the flat
    indices slots of a C-order (rows, 2*kl+ku+1) array, whose transpose is
    LAPACK's band storage (A[r, c] at row kl+ku+r-c of column c).  A
    block's halo cells are the columns outside its overlap, at most halo
    of them.  If halo <= kl + ku, the entries at outside go to halo_slots
    of a C-order (halo, rows) array, a block's halo cells in column order,
    and the solved rows A^{-1} R_i J are its solve, flattened with a 1.0
    appended, at response_take, on the CSR pattern (response_columns,
    response_indptr): each row's own cell and its block's halo cells.
    """

    problem: object = field(repr=False)
    residual: object = field(repr=False)
    jacobian: object = field(repr=False)
    layout: object = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    block_starts: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)
    held: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    kl: int
    ku: int
    halo: int
    outside: np.ndarray = field(default=None, repr=False)
    halo_slots: np.ndarray = field(default=None, repr=False)
    response_columns: np.ndarray = field(default=None, repr=False)
    response_indptr: np.ndarray = field(default=None, repr=False)
    response_take: np.ndarray = field(default=None, repr=False)

    @property
    def size(self):
        """The number of stacked rows, sum_i m_i."""
        return len(self.layout.cells)

    def gather(self, u):
        """The stacked local vector X = (u[layout.cells], u) at the state u."""
        u = np.asarray(u, dtype=float)
        return np.concatenate((u[self.layout.cells], u))

    def block_of(self, row):
        """The block that holds stacked row (or band column) row."""
        return int(np.searchsorted(self.block_starts, row, "right")) - 1


@dataclass(frozen=True, eq=False)
class LocalJacobian:
    """The one operator a local Jacobian action applies (module docstring).

    positions is the blocks' PositionStack.  On a halo stack rows is
    A^{-1} R_i J on its response pattern; else it is the stacked R_i J on
    its CSR pattern and lu dgbtrf's (band factors, pivots) of A = diag(A_ii).
    """

    positions: object = field(repr=False)
    rows: sp.csr_matrix = field(repr=False)
    lu: tuple = field(default=None, repr=False)


def block_positions(problem, layout):
    """Every subdomain's positions in the problem's Jacobian pattern, stacked.

    Block b is subdomain b, its rows the layout's stacked cells from
    block_starts[b].  The pattern is problem.pattern, which must be a CSR
    matrix with sorted, unique indices; no Jacobian is evaluated.  Every
    stacked row's entries are read from it at once; an entry's column lies
    in its block's overlap when its (block, column) key is one of the
    overlap's, and then it reads that stacked row of X, else the state at
    size + column.  The problem's row kernels are built once, on all
    overlap rows.
    """
    pattern = problem.pattern
    if pattern.format != "csr" or not pattern.has_canonical_format:
        raise ValueError("block positions need a CSR pattern with sorted, "
                         "unique indices")
    if problem.dof_count != layout.n_cells:
        raise ValueError("problem and layout dimensions disagree")
    ov, sizes = layout.cells, layout.sizes
    n, size = pattern.shape[1], len(ov)
    block_starts = np.cumsum(sizes) - sizes
    rows = pattern[ov]  # the stacked rows' CSR pattern, in scipy's index dtype
    columns, indptr, counts = rows.indices, rows.indptr, np.diff(rows.indptr)
    row_block = np.repeat(np.arange(len(sizes)), sizes)
    entry_row = np.repeat(np.arange(size), counts)
    entry_block = row_block[entry_row]
    keys, entry_keys = row_block * n + ov, entry_block * n + columns
    order = np.argsort(keys, kind="stable")
    found = np.searchsorted(keys[order], entry_keys)
    col = order[np.minimum(found, size - 1)]
    hit = keys[col] == entry_keys
    entries = np.where(hit, col, size + columns)  # each entry's column in X
    block, col = np.flatnonzero(hit), col[hit]  # col: the column's stacked row
    offset = entry_row[block] - col
    kl, ku = int(offset.max(initial=0)), int((-offset).max(initial=0))
    outside = np.flatnonzero(~hit)
    cells, at = np.unique(entry_keys[outside], return_inverse=True)  # halo keys
    halos = np.bincount(cells // n, minlength=len(sizes))
    h = int(halos.max(initial=0))
    stacked = dict(
        sizes=sizes, block_starts=block_starts, columns=columns, indptr=indptr,
        block=block, held=np.bincount(entry_block[block], minlength=len(sizes)),
        slots=col * (2 * kl + ku + 1) + kl + ku + offset,
    )
    if h <= kl + ku:  # building Z then costs less than the actions' solves
        first, per_row = np.cumsum(halos) - halos, halos[row_block]
        r = np.repeat(np.arange(size), per_row)  # row r's j-th halo cell
        j = np.arange(len(r)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        row = np.append(np.arange(size), r)
        cell = np.append(ov, cells[first[row_block[r]] + j] % n)
        order = np.argsort(row * n + cell)
        stacked.update(
            outside=outside,
            halo_slots=(at - first[cells[at] // n]) * size + entry_row[outside],
            response_columns=cell[order].astype(columns.dtype),
            response_indptr=np.append(0, np.cumsum(per_row + 1)).astype(indptr.dtype),
            response_take=np.append(np.full(size, h * size), j * size + r)[order])
    for a in stacked.values():
        a.flags.writeable = False
    residual, jacobian = problem.row_kernels(ov, entries)
    return PositionStack(problem, residual, jacobian, layout, kl=kl, ku=ku,
                         halo=h, **stacked)


def _band_lu(stack, entries, active=None):
    """dgbtrf's (lu, ipiv, info) of diag(A_ii), A_ii's entries among entries.

    The blocks that active (one flag per block) does not mark are replaced
    by the identity.
    """
    width = 2 * stack.kl + stack.ku + 1
    band = np.zeros((stack.size, width))
    values = entries[stack.block]
    if active is None or active.all():
        band.flat[stack.slots] = values
    else:
        band.flat[stack.slots] = np.where(np.repeat(active, stack.held), values, 0.0)
        frozen = np.flatnonzero(~np.repeat(active, stack.sizes))
        band.flat[frozen * width + stack.kl + stack.ku] = 1.0  # the diagonal
    return dgbtrf(band.T, stack.kl, stack.ku, overwrite_ab=True)


def local_jacobian(positions, X):
    """The blocks of a PositionStack's subdomains at the stacked local vector X.

    One Jacobian-kernel call at X gives every R_i J, one band LU factors
    diag(A_ii).  At a sweep's solved X these are the exact blocks, each at
    its u^(i) (not at u + P_i correction, which can differ in the last
    bit); at positions.gather(u) they are the blocks of J(u), bit for bit.
    """
    entries = positions.jacobian(X)
    lu, ipiv, info = _band_lu(positions, entries)
    if info > 0:
        i = positions.block_of(info - 1)
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian",
                              subdomain=i)
    shape = (positions.size, positions.problem.dof_count)
    if positions.response_take is None:
        return LocalJacobian(positions, sp.csr_matrix(
            (entries, positions.columns, positions.indptr), shape=shape), (lu, ipiv))
    rhs = np.zeros((positions.halo, positions.size))  # rhs.T: LAPACK's order
    rhs.flat[positions.halo_slots] = entries[positions.outside]
    z = dgbtrs(lu, positions.kl, positions.ku, rhs.T, ipiv, overwrite_b=True)[0]
    return LocalJacobian(positions, sp.csr_matrix(
        (np.append(z.T, 1.0)[positions.response_take], positions.response_columns,
         positions.response_indptr), shape=shape))


def _norms(stack, r):
    """Each block's residual norm, from the stacked residual r."""
    return np.sqrt(np.add.reduceat(r * r, stack.block_starts))


def _step(stack, entries, r, active, failures):
    """The Newton step of the active blocks, stacked; the others' is 0.

    entries and r are the row kernels' output.  A block found singular
    fails (failures maps blocks to their messages) and stops being active.
    """
    while True:
        lu, ipiv, info = _band_lu(stack, entries, active)
        if info == 0:
            break
        b = stack.block_of(info - 1)
        failures[b] = "singular local Jacobian"
        active[b] = False
    moving = np.repeat(active, stack.sizes)
    step = dgbtrs(lu, stack.kl, stack.ku, np.where(moving, r, 0.0), ipiv)[0]
    if not np.isfinite(step).all():
        # 0 * inf spills a non-finite step into the blocks the band pads
        # next to it: frozen blocks keep still, and every other block with
        # a non-finite entry is solved again on the band with every other
        # block the identity, which eliminates it exactly as alone
        step[~moving] = 0.0
        finite = np.logical_and.reduceat(np.isfinite(step), stack.block_starts)
        for b in np.flatnonzero(~finite):
            alone = np.arange(len(active)) == b
            lu, ipiv, _ = _band_lu(stack, entries, alone)
            rows = np.repeat(alone, stack.sizes)
            step[rows] = dgbtrs(lu, stack.kl, stack.ku, np.where(rows, r, 0.0),
                                ipiv)[0][rows]
    return step


def solve_local(positions, u, settings):
    """Solve R_i F(u + P_i c_i) = 0 for every c_i = C_i(u) of a stack's subdomains.

    Inner Newton from the zero corrections with full steps, on the stacked
    local vector X = positions.gather(u): each step evaluates the stacked
    row kernels at X and refactorizes diag(A_ii), with every block whose
    residual norm is at or below settings.inner_tol frozen, and only the
    stacked overlaps X[:size] change.
    A subdomain fails when its residual is non-finite, the start residual
    included, when it runs out of settings.max_inner steps or when its
    block is singular; it then stops, the others run on, and the failure
    of the lowest-index subdomain is raised.  The result's X is gathered
    from u, so no later change to u reaches it.
    """
    X, size = positions.gather(u), positions.size
    start = X[:size].copy()
    tol, budget = settings.inner_tol, settings.max_inner
    trail = []
    counts = np.zeros(len(positions.sizes), dtype=int)
    failures = {}
    active = np.ones(len(positions.sizes), dtype=bool)
    steps = 0  # every active subdomain has taken this many
    while True:
        r = positions.residual(X)
        norms = _norms(positions, r)
        trail.append(norms)
        finite = np.isfinite(norms)
        if not finite.all():
            for b in np.flatnonzero(active & ~finite):
                failures[b] = "inner Newton produced a non-finite residual"
            active &= finite
        active &= norms > tol
        if not active.any():
            break
        if steps == budget:
            for b in np.flatnonzero(active):
                failures[b] = (f"inner Newton did not reach {tol} within {budget} "
                               f"iterations (residual {norms[b]:.3e})")
            break
        step = _step(positions, positions.jacobian(X), r, active, failures)
        if not active.any():
            break
        X[:size] -= step
        steps += 1
        counts[active] = steps

    if failures:
        b = int(min(failures))
        raise LocalSolveError(f"subdomain {b}: {failures[b]}", subdomain=b,
                              residuals=[float(n[b]) for n in trail[:counts[b] + 1]])
    X.flags.writeable = False
    return LocalSolveResult(
        positions=positions,
        X=X,
        correction=X[:size] - start,
        inner_counts=tuple(counts.tolist()),
        inner_iterations=int(counts.sum()),
    )


def local_correction_jacobian_action(block, v):
    """Apply every -A_ii^{-1} R_i J of a LocalJacobian to a global vector v.

    One CSR product with block.rows, then, on a band stack, one
    back-substitution with the band LU; the result is the stacked vector
    of the block's overlaps.
    """
    w = block.rows @ v
    if block.lu is not None:
        stack = block.positions
        w = dgbtrs(block.lu[0], stack.kl, stack.ku, w, block.lu[1])[0]
    return -w


def sweep_locals(positions, u, settings):
    """One sweep: solve_local's result as it is, by the name perfbench traces."""
    return solve_local(positions, u, settings)

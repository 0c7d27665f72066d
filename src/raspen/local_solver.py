"""Subdomain nonlinear solves defining the local corrections C_i(u), all at once.

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).

The solver rule.  A tridiagonal pattern (bandwidths at most 1, as in every
1D problem) is solved by LAPACK dgtsv everywhere, on tridiagonal_index's
diagonals: sweep steps, local derivatives and direct Newton's steps.  A
wider one is solved by band LU (dgbtrf/dgbtrs) locally and by SuperLU in
direct Newton.

The stack.  block_positions reads the problem's CSR pattern once,
evaluating no Jacobian, and returns a PositionStack of all subdomains,
built in one pass of array operations, block b for subdomain b in the
layout's stacked order.  It holds the problem's row kernels on the
stacked rows, fed with where their entries' columns sit in the stacked
local vector X = (w[layout.cells], w) at a state w: an entry whose column
lies in its block's overlap reads that block's stacked row, every other
entry the frozen exterior, the state itself, at size + column.  It also
holds where the entries of the blocks A_ii = R_i J P_i go in the solves.

The sweep.  solve_local solves all subdomains together.  Every iterate is
one face pass of the row kernels, from which the residual derives; an
iterate that steps also derives the Jacobian values from it (values_of)
and solves diag(A_ii) in one LAPACK call: dgtsv on the diagonals, read
from the values in one gather, or dgbtrf/dgbtrs of the band that _band_lu
fills at the widest block's bandwidths.  A step changes only the active
rows of X[:size], so a sweep costs O(sum_i m_i + M), not O(I M), and takes
as many steps as its slowest subdomain.  A subdomain whose residual norm
reaches the tolerance is frozen, left out of the solve and the update.
The blocks share no coupling, so either solver eliminates each block
exactly as alone, and every subdomain's values and count are bit for bit
those of a solve of that subdomain alone by the same solver.  For the same
reason a block whose step overflows is solved again on its own rows.

The derivatives.  local_jacobian builds a LocalJacobian from one
Jacobian-kernel call and one LAPACK call at the X it is given: at a
sweep's solved X the exact blocks, each at its u^(i), which can differ
from u + P_i C_i(u) in the last bit; at positions.gather(u) those of J(u),
bit for bit, ASPIN's inexact ones.  Its action applies

    dC_i/du v = -A_ii^{-1} R_i J v = -(v_i + Z_i v_halo)

into the stacked overlap space; Z_i = A_ii^{-1} B_i, B_i the columns of
R_i J outside the overlap, is the halo response.  A tridiagonal stack solves
for Z in one dgtsv call with h right-hand sides (h, the halo: the most
exterior cells any block's rows touch) and keeps the solved rows [I | Z_i]:
an action is one CSR product.  Restricted gluing reads one stacked row per
cell, its owned one, so it also keeps those rows negated and in cell
order, the owned operator: RASPEN's glued local derivative is then one CSR
product with no glue, equal bit for bit to the glued action (both sum
from 0.0 and negation is exact).  A band stack (any other) keeps R_i J and
the band factors: an action is that product and the band LU solve.  Where
dgbtrf swapped no rows, that solve is two triangular band solves (dtbsv),
L from one copy of the multiplier rows made per LocalJacobian and U read
in place: dgbtrs's arithmetic bit for bit, without its rank-1 update per
column of L.  Factors with an interchange keep dgbtrs, and so do a band
stack's sweep steps: each of their factorizations serves one solve, which
the copy would not repay.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv
from scipy.sparse import _sparsetools

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
    "tridiagonal_index",
    "tridiagonal_solve",
    "csr_apply",
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
    """Tolerances and iteration budgets shared across the solver stack.

    A budget counts steps, and every Newton loop tests the iterate after
    its last allowed step: inner Newton in the sweep and coarse Newton
    take at most max_inner steps, outer_newton and direct_newton at most
    max_outer, and a run is out of budget only when that last iterate
    misses its tolerance too.  fixed_point_solve tests each of its at most
    max_fixed_point steps' results.
    """

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
    read-only, its exterior the base state u.  correction stacks each
    subdomain's correction; inner_counts holds each subdomain's inner
    Newton count and inner_iterations their sum.
    """

    positions: object = field(repr=False)
    X: np.ndarray = field(repr=False)
    correction: np.ndarray = field(repr=False)
    inner_counts: tuple
    inner_iterations: int


@dataclass(frozen=True, eq=False)
class PositionStack:
    """Where every subdomain's block sits, and what their solves share.

    Block b has sizes[b] stacked rows from block_starts[b]; kernels are the
    row kernels on the stacked rows.  The jacobian kernel's output, R_i J's
    entries, lies on the CSR pattern (columns, indptr) of one index dtype,
    so a CSR matrix on it copies neither.  diag(A_ii) has bandwidths kl and
    ku, the blocks' largest: the entries at block go to the flat indices
    slots of a C-order (rows, 2*kl+ku+1) array, whose transpose is LAPACK's
    band storage (A[r, c] at row kl+ku+r-c of column c).  halo is h (module
    docstring).  Only a tridiagonal stack sets the rest, in the kernels'
    values: diagonals, A's tridiagonal_index; outside, the values going to
    halo_slots of a C-order (halo, rows) array, a block's halo cells in
    column order; response, a CSR matrix on the pattern of each row's own
    cell and its block's halo cells, whose data are where the solved rows
    A^{-1} R_i J take that array's solve, flattened with a 1.0 appended;
    and owned, response[layout.owner], its owned rows in cell order.  The
    arrays and matrices above are read-only, the matrices' arrays included.
    """

    problem: object = field(repr=False)
    kernels: object = field(repr=False)
    layout: object = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    block_starts: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    kl: int
    ku: int
    halo: int
    diagonals: np.ndarray = field(default=None, repr=False)
    outside: np.ndarray = field(default=None, repr=False)
    halo_slots: np.ndarray = field(default=None, repr=False)
    response: sp.csr_matrix = field(default=None, repr=False)
    owned: sp.csr_matrix = field(default=None, repr=False)

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
    """The operators a local Jacobian action applies (module docstring).

    On a tridiagonal stack rows is A^{-1} R_i J on its response pattern and
    owned, the owned operator, is -rows[layout.owner] as a CSR matrix; else
    rows is the stacked R_i J, owned is None and lu is (band factors,
    pivots, L) of A = diag(A_ii): dgbtrf's output and, when it swapped no
    rows, a Fortran-ordered copy of the band storage of L (else None).
    """

    positions: object = field(repr=False)
    rows: sp.csr_matrix = field(repr=False)
    lu: tuple = field(default=None, repr=False)
    owned: sp.csr_matrix = field(default=None, repr=False)


def block_positions(problem, layout):
    """The PositionStack of problem's subdomains on layout (module docstring).

    problem.pattern must be a CSR matrix with sorted, unique indices.  An
    entry's column lies in its block's overlap when its (block, column) key
    is one of the overlap's, which a binary search finds: the layout's
    (block, cell) keys ascend (decomposition), else ValueError.
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
    if (np.diff(keys) <= 0).any():
        raise ValueError("each overlap must list its cells in ascending order")
    col = np.minimum(np.searchsorted(keys, entry_keys), size - 1)
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
        block=block, slots=col * (2 * kl + ku + 1) + kl + ku + offset)
    kernels = problem.row_kernels(ov, entries)
    # an entry absent from A reads the values' trailing 0.0, at -1
    diagonals = tridiagonal_index(entry_row[block], col, kernels.take[block], -1, size)
    if diagonals is not None:  # dgtsv solves for the halo response as well
        first, per_row = np.cumsum(halos) - halos, halos[row_block]
        r = np.repeat(np.arange(size), per_row)  # row r's j-th halo cell
        j = np.arange(len(r)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        row = np.append(np.arange(size), r)
        cell = np.append(ov, cells[first[row_block[r]] + j] % n)
        order = np.argsort(row * n + cell)
        response = sp.csr_matrix(
            (np.append(np.full(size, h * size), j * size + r)[order],
             cell[order].astype(columns.dtype),
             np.append(0, np.cumsum(per_row + 1)).astype(indptr.dtype)), shape=(size, n))
        stacked.update(
            diagonals=diagonals, outside=kernels.take[outside],
            halo_slots=(at - first[cells[at] // n]) * size + entry_row[outside],
            response=response, owned=response[layout.owner])
    read_only(*stacked.values())
    return PositionStack(problem, kernels, layout, kl=kl, ku=ku, halo=h, **stacked)


def _band_lu(stack, entries, rows=slice(None)):
    """dgbtrf's (lu, ipiv, info) of diag(A_ii), A_ii's entries among entries.

    rows, a mask of whole blocks' band rows, factors those blocks only:
    band row c holds column c of A and the blocks share no coupling, so
    their rows are a band at the stack's kl and ku, and info counts in it.
    """
    band = np.zeros((stack.size, 2 * stack.kl + stack.ku + 1))
    band.reshape(-1)[stack.slots] = entries[stack.block]
    return dgbtrf(band[rows].T, stack.kl, stack.ku, overwrite_ab=True)


def local_jacobian(positions, X):
    """The LocalJacobian of a PositionStack's blocks at the stacked local vector X.

    LocalSolveError names the first subdomain whose block is singular.
    """
    kernels, shape = positions.kernels, (positions.size, positions.layout.n_cells)
    faces = kernels.faces(X)
    if positions.diagonals is None:
        entries = kernels.jacobian_of(faces)
        lu, ipiv, info = _band_lu(positions, entries)
        swapped = not np.array_equal(ipiv, np.arange(positions.size))  # 0-based
        lower = None if swapped else np.asfortranarray(lu[positions.kl + positions.ku:])
        rows = sp.csr_matrix((entries, positions.columns, positions.indptr), shape=shape)
        block = LocalJacobian(positions, rows, (lu, ipiv, lower))
    else:
        values = kernels.values_of(faces)
        rhs = np.zeros((positions.halo, positions.size))  # rhs.T: LAPACK's order
        rhs.reshape(-1)[positions.halo_slots] = values[positions.outside]
        z, info = tridiagonal_solve(values, positions.diagonals, rhs.T)
        solved, response, owned = np.append(z.T, 1.0), positions.response, positions.owned
        block = LocalJacobian(positions, sp.csr_matrix(
            (solved[response.data], response.indices, response.indptr), shape=shape),
            owned=sp.csr_matrix((-solved[owned.data], owned.indices, owned.indptr),
                                shape=owned.shape))
    if info > 0:
        i = positions.block_of(info - 1)
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian", subdomain=i)
    return block


def tridiagonal_index(rows, columns, at, absent, n):
    """tridiagonal_solve's diagonals of an n x n A, None if A is wider.

    A's entry (rows[k], columns[k]) sits at at[k] of its values;
    diagonals[k, r] is where its entry (r, r + k - 1) sits, else absent,
    where the values hold a 0.0.
    """
    if np.abs(columns - rows).max(initial=0) <= 1:
        diagonals = np.full((3, n), absent)
        diagonals[columns - rows + 1, rows] = at
        return diagonals


def tridiagonal_solve(values, diagonals, rhs):
    """dgtsv's (x, info) for A x = rhs, A's diagonals values[diagonals].

    diagonals is A's tridiagonal_index among values; rhs is a vector, or
    one column per right-hand side.
    """
    t, n = values[diagonals], len(rhs)
    # f2py takes no empty diagonal: a 1 x 1 system passes its zeros; and an
    # empty right-hand side corrupts the heap: one zero column stands in
    b = rhs if rhs.size else np.zeros((n, 1))
    *_, x, info = dgtsv(t[0, min(n - 1, 1):], t[1], t[2, :max(n - 1, 1)], b,
                        overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    return (x if rhs.size else x[:, :0]), info


def csr_apply(A, x):
    """A @ x, bit for bit: scipy's compiled csr_matvec into a zero result.

    Every CSR product of a Jacobian action, an evaluation and a coarse
    Newton iterate is one csr_apply call.  A is a float64 CSR matrix of one
    index dtype and x a float64 vector of its column count, else
    ValueError: the kernel checks nothing.  A @ x ends in the same call,
    after a Python dispatch that costs as much as the kernel on these small
    operators, and no public entry point skips it (CHANGES.md), hence the
    private import.
    """
    n_row, n_col = A.shape
    if (getattr(A, "format", None) != "csr" or A.data.dtype != float
            or A.indices.dtype != A.indptr.dtype or x.dtype != float
            or x.shape != (n_col,)):
        raise ValueError("csr_apply takes a float64 CSR matrix of one index "
                         "dtype and a float64 vector of its column count")
    y = np.zeros(n_row)
    _sparsetools.csr_matvec(n_row, n_col, A.indptr, A.indices, A.data, x, y)
    return y


def read_only(*arrays):
    """Mark each array, and each sparse matrix's data, indices and indptr, read-only."""
    for a in arrays:
        for a in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
            a.flags.writeable = False


def _solve(stack, values, r, rows):
    """diag(A_ii)^{-1} r on rows (whole blocks' rows), and info, both in rows.

    values is the row kernels' values_of output.
    """
    if stack.diagonals is not None:
        diagonals = (stack.diagonals if isinstance(rows, slice)
                     else stack.diagonals.compress(rows, axis=1))
        return tridiagonal_solve(values, diagonals, r[rows])
    lu, ipiv, info = _band_lu(stack, values[stack.kernels.take], rows)
    return dgbtrs(lu, stack.kl, stack.ku, r[rows], ipiv)[0], info


def _step(stack, values, r, active, failures):
    """The active blocks' Newton step x and the rows it solves, (x, rows).

    values and r are the row kernels' output.  rows is every row while no
    block is frozen, else a mask of the active blocks' rows.  A block found
    singular fails (failures maps blocks to their messages) and stops
    being active; when none is left, the step is None.
    """
    while n := np.count_nonzero(active):
        rows = slice(None) if n == len(active) else np.repeat(active, stack.sizes)
        x, info = _solve(stack, values, r, rows)
        if info == 0:
            break
        b = stack.block_of(np.arange(stack.size)[rows][info - 1])
        failures[b] = "singular local Jacobian"
        active[b] = False
    else:
        return None
    if not math.isfinite(np.add.reduce(x)):  # also when finite entries sum to inf
        # 0 * inf spills a non-finite step into the blocks next to it:
        # every block with a non-finite entry is solved again on its own
        # rows, which eliminates it exactly as alone
        step = np.zeros(stack.size)
        step[rows] = x
        finite = np.logical_and.reduceat(np.isfinite(step), stack.block_starts)
        for b in np.flatnonzero(~finite):
            own = np.repeat(np.arange(len(active)) == b, stack.sizes)
            step[own] = _solve(stack, values, r, own)[0]
        x = step[rows]
    return x, rows


def solve_local(positions, u, settings):
    """Solve R_i F(u + P_i c_i) = 0 for every c_i = C_i(u) of a stack's subdomains.

    The sweep (module docstring): inner Newton from the zero corrections
    with full steps, to settings.inner_tol.  A subdomain fails when its
    residual or its residual norm is not finite, the start's included,
    when it runs out of settings.max_inner steps or when its block is
    singular; it then stops, the others run on, and the lowest-index
    subdomain's LocalSolveError is raised.  The result's X is gathered
    from u, so no later change to u reaches it.
    """
    X, size, kernels = positions.gather(u), positions.size, positions.kernels
    overlaps, start = X[:size], X[:size].copy()
    tol, budget = settings.inner_tol, settings.max_inner
    trail, failures = [], {}
    counts = np.zeros(len(positions.sizes), dtype=int)
    active = np.ones(len(positions.sizes), dtype=bool)
    steps = 0  # every active subdomain has taken this many
    # an overflowing step's inf - inf in the next face pass reads nan
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            faces = kernels.faces(X)
            r = kernels.residual_of(faces)
            # each block's norm, inf where its square sum overflows
            norms = np.sqrt(np.add.reduceat(r * r, positions.block_starts))
            trail.append(norms)
            if not math.isfinite(np.add.reduce(norms)):  # or finite norms sum to inf
                finite = np.isfinite(norms)
                rows = np.logical_and.reduceat(np.isfinite(r), positions.block_starts)
                for b in np.flatnonzero(active & ~finite):
                    failures[b] = ("inner Newton's residual is finite, but its norm "
                                   "overflowed" if rows[b] else
                                   "inner Newton produced a non-finite residual")
                active &= finite
            active &= norms > tol
            if not np.count_nonzero(active):
                break
            if steps == budget:
                for b in np.flatnonzero(active):
                    failures[b] = (f"inner Newton did not reach {tol} within "
                                   f"{budget} iterations (residual {norms[b]:.3e})")
                break
            step = _step(positions, kernels.values_of(faces), r, active, failures)
            if step is None:
                break
            x, rows = step
            overlaps[rows] -= x
            steps += 1
            counts += active

    if failures:
        b = int(min(failures))
        raise LocalSolveError(f"subdomain {b}: {failures[b]}", subdomain=b,
                              residuals=[float(n[b]) for n in trail[:counts[b] + 1]])
    X.flags.writeable = False
    return LocalSolveResult(positions=positions, X=X, correction=overlaps - start,
                            inner_counts=tuple(counts.tolist()),
                            inner_iterations=int(counts.sum()))


def local_correction_jacobian_action(block, v):
    """Apply every -A_ii^{-1} R_i J of a LocalJacobian to a global vector v.

    The result is in the stacked overlap space (module docstring).
    """
    w = csr_apply(block.rows, v)
    if block.lu is not None:
        stack, (lu, ipiv, lower) = block.positions, block.lu
        if lower is None:
            w = dgbtrs(lu, stack.kl, stack.ku, w, ipiv)[0]
        else:
            w = dtbsv(stack.kl, lower, w, lower=1, diag=1, overwrite_x=1)
            w = dtbsv(stack.kl + stack.ku, lu, w, overwrite_x=1)
    return -w


def sweep_locals(positions, u, settings):
    """One sweep: solve_local's result as it is, by the name perfbench traces."""
    return solve_local(positions, u, settings)

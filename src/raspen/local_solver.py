"""Subdomain nonlinear solves defining the local corrections C_i(u), all at once.

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
solve_local solves a whole sequence of subdomains together, one sweep,
and returns its one handle, a LocalSolveResult: its PositionStack, the
stacked local vector X at each u^(i) = u + P_i C_i(u), the corrections
and each subdomain's inner Newton count, but no derivative data.

That lives in a LocalJacobian, built on demand by local_jacobian for one
subdomain or for all of them at once: the row blocks R_i J, over the
overlap cells and the frozen exterior, stacked in subdomain order as one
CSR matrix, plus one band LU of the block-diagonal matrix diag(A_ii),
A_ii = R_i J P_i.  Taken at a sweep's solved X, at each u^(i), it applies
the exact derivatives

    dC_i/du = -A_ii^{-1} R_i J(u^(i)),

taken at u[cells], at u, ASPIN's inexact ones; either way one action,
for every subdomain in the block, is one CSR product and one band
back-substitution (dgbtrs), and returns the stacked vector of the
layout's stacked overlap space.

Every problem's Jacobian has a fixed CSR pattern, and it is the only
description of the stencil read here: block_positions reads it once, from
one Jacobian at the problem's initial state, and returns a PositionStack,
computed for all subdomains in one pass of array operations: every
subdomain's overlap cells and halo (the cells outside the overlap its rows
couple to), where the overlap values sit in the stacked local vector
X = (u[cells_1], ..., u[cells_I]), where A_ii's entries go in the LAPACK
band storage of diag(A_ii), and the problem's row kernels on the stacked
rows, fed with where their entries' columns sit in X
(NonlinearProblem.row_kernels).
Every solve and block function takes a PositionStack.

All subdomains take their inner Newton steps together, on X: a step is
one residual-kernel call, one Jacobian-kernel call, one band fill and one
dgbtrf/dgbtrs at the stack's bandwidths, and touches no length-M array,
so a sweep costs O(sum_i m_i), not O(I M).  A subdomain whose residual
norm reaches the tolerance is frozen: its block becomes the identity and
its right-hand side zero, so its step is exactly zero and its values
never change again.  The band has the widest block's bandwidths; its
blocks share no coupling, so band LU eliminates each exactly as it would
alone, and every subdomain's values and count are bit for bit those of a
solve of that subdomain alone.  local_jacobian calls the Jacobian kernel
once, at the X it is given.  _band_lu is the one place a band is filled
and factored, from the Jacobian kernel's R_i J entries.
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
    "StaleCacheError",
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


class StaleCacheError(RuntimeError):
    """A cached factorization was used at a different state than it was built."""


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
    read-only: the solved values on the overlaps, the base state's on the
    halos.  correction stacks, in the order of positions.subdomains, each
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
    """Where a sequence of subdomains' blocks sit, and what their solves share.

    Block b is subdomain subdomains[b].  X, the stacked local vector,
    concatenates each block's values at its cells (global indices cells):
    its overlap cells, then its halo, the cells outside the overlap that
    their rows couple to; residual and jacobian are the problem's row
    kernels on the stacked overlap rows, functions of X.  Block b has
    sizes[b] stacked rows, from block_starts[b], and its overlap values sit
    in X at overlap[block_starts[b]:].  R_i J's entries, stacked, are the
    jacobian kernel's output, in the CSR pattern (columns, indptr) of one
    index dtype, so a CSR matrix on it copies neither.  diag(A_ii) is a
    band matrix with bandwidths kl and ku, the largest of the blocks': the
    stacked entries at block, held[b] of them block b's, go to the flat
    indices slots of a C-order (rows, 2*kl+ku+1) array, whose transpose is
    LAPACK's band storage (A[r, c] at row kl+ku+r-c of column c).
    """

    subdomains: tuple
    problem: object = field(repr=False)
    residual: object = field(repr=False)
    jacobian: object = field(repr=False)
    cells: np.ndarray = field(repr=False)
    overlap: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    block_starts: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)
    held: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    kl: int
    ku: int

    @property
    def size(self):
        """The number of stacked rows, sum_i m_i."""
        return len(self.overlap)

    def block_of(self, row):
        """The block that holds stacked row (or band column) row."""
        return int(np.searchsorted(self.block_starts, row, "right")) - 1


@dataclass(frozen=True, eq=False)
class LocalJacobian:
    """Stacked row blocks R_i J and the band LU of A = diag(A_ii).

    positions is the blocks' PositionStack, matrix the stacked R_i J on its
    CSR pattern and lu dgbtrf's (band factors, pivots) of A, at its bandwidths.
    """

    positions: object = field(repr=False)
    matrix: sp.csr_matrix = field(repr=False)
    lu: tuple = field(repr=False)


def block_positions(problem, layout):
    """Every subdomain's positions in the problem's Jacobian pattern, stacked.

    The pattern is read from one Jacobian at the problem's initial state,
    which must be a CSR matrix with sorted, unique indices; each
    subdomain's halo is read from it, and the problem's row kernels are
    built once, on all overlap rows.
    """
    return _stack(problem, [sub.overlap for sub in layout.subdomains],
                  tuple(range(len(layout.subdomains))))


def _stack(problem, overlaps, subdomains):
    """The PositionStack of blocks with overlap cells overlaps, in one pass.

    Every stacked row's entries are read from the pattern at once; an
    entry's column lies in its block's overlap when its (block, column) key
    is one of the overlap's, and the other keys are the blocks' halos.
    """
    J = problem.jacobian(problem.initial_state())
    if J.format != "csr" or not J.has_canonical_format:
        raise ValueError("block positions need a CSR Jacobian with sorted, "
                         "unique indices")
    n, ov = J.shape[1], np.concatenate(overlaps)
    sizes = np.array([len(cells) for cells in overlaps])
    block_starts = np.cumsum(sizes) - sizes
    rows = J[ov]  # the stacked rows' CSR pattern, in scipy's index dtype
    columns, indptr, counts = rows.indices, rows.indptr, np.diff(rows.indptr)
    row_block = np.repeat(np.arange(len(sizes)), sizes)
    entry_row = np.repeat(np.arange(len(ov)), counts)
    entry_block = row_block[entry_row]
    keys, entry_keys = row_block * n + ov, entry_block * n + columns
    order = np.argsort(keys, kind="stable")
    found = np.searchsorted(keys[order], entry_keys)
    col = order[np.minimum(found, len(ov) - 1)]
    hit = keys[col] == entry_keys
    block, col = np.flatnonzero(hit), col[hit]  # col: the column's stacked row
    offset = entry_row[block] - col
    kl, ku = int(offset.max(initial=0)), int((-offset).max(initial=0))
    halo_keys, halo_entry = np.unique(entry_keys[~hit], return_inverse=True)
    halo_block, halo = np.divmod(halo_keys, n)
    widths = sizes + np.bincount(halo_block, minlength=len(sizes))
    overlap = (np.arange(len(ov))
               + np.repeat(np.cumsum(widths) - widths - block_starts, sizes))
    cells = np.empty(widths.sum(), ov.dtype)
    cells[overlap] = ov
    in_halo = np.ones(len(cells), bool)
    in_halo[overlap] = False
    cells[in_halo] = halo
    entries = np.empty(len(columns), np.intp)  # each entry's column in X
    entries[block] = overlap[col]
    entries[~hit] = np.flatnonzero(in_halo)[halo_entry]
    stacked = dict(
        cells=cells, overlap=overlap, sizes=sizes, block_starts=block_starts,
        columns=columns, indptr=indptr, block=block,
        held=np.bincount(entry_block[block], minlength=len(sizes)),
        slots=col * (2 * kl + ku + 1) + kl + ku + offset,
    )
    for a in stacked.values():
        a.flags.writeable = False
    residual, jacobian = problem.row_kernels(ov, entries)
    return PositionStack(subdomains, problem, residual, jacobian, kl=kl, ku=ku,
                         **stacked)


def _lone(stack, b):
    """Block b of the stack alone: its one-block stack, at its own bandwidths."""
    at = stack.block_starts[b]
    overlap = stack.cells[stack.overlap[at:at + stack.sizes[b]]]
    return _stack(stack.problem, [overlap], (stack.subdomains[b],))


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


def _solve(block, b):
    """A^{-1} b by back-substitution with a LocalJacobian's band LU factors."""
    stack = block.positions
    return dgbtrs(block.lu[0], stack.kl, stack.ku, b, block.lu[1])[0]


def local_jacobian(positions, X):
    """The blocks of a PositionStack's subdomains at the stacked local vector X.

    One Jacobian-kernel call at X gives every R_i J, one band LU factors
    diag(A_ii).  At a sweep's solved X these are the exact blocks, each at
    its u^(i) (not at u + P_i correction, which can differ in the last
    bit); at u[positions.cells] they are the blocks of J(u), bit for bit.
    """
    entries = positions.jacobian(X)
    lu, ipiv, info = _band_lu(positions, entries)
    if info > 0:
        i = positions.subdomains[positions.block_of(info - 1)]
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian",
                              subdomain=i)
    matrix = sp.csr_matrix((entries, positions.columns, positions.indptr),
                           shape=(positions.size, positions.problem.dof_count))
    return LocalJacobian(positions, matrix, (lu, ipiv))


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
        # a non-finite entry takes the step it takes alone
        step[~moving] = 0.0
        finite = np.logical_and.reduceat(np.isfinite(step), stack.block_starts)
        for b in np.flatnonzero(~finite):
            lone, at = _lone(stack, b), stack.block_starts[b]
            rows = slice(at, at + lone.size)
            first, last = stack.indptr[[at, rows.stop]]
            lu, ipiv, _ = _band_lu(lone, entries[first:last])
            step[rows] = dgbtrs(lu, lone.kl, lone.ku, r[rows], ipiv)[0]
    return step


def solve_local(positions, u, settings):
    """Solve R_i F(u + P_i c_i) = 0 for every c_i = C_i(u) of a stack's subdomains.

    Inner Newton from the zero corrections with full steps, on the stacked
    local vector X = (u[cells_1], ...) of the PositionStack positions: each
    step evaluates the stacked row kernels at X and refactorizes diag(A_ii),
    with every block whose residual norm is at or below settings.inner_tol
    frozen, and only X's overlap values change.
    A subdomain fails when it runs out of settings.max_inner steps, its
    block is singular or its residual becomes non-finite; it then stops,
    the others run on, and the failure of the lowest-index subdomain is
    raised.  The result's X is gathered from u, so no later change to u
    reaches it.
    """
    X = np.asarray(u, dtype=float)[positions.cells]
    start = X[positions.overlap]
    tol, budget = settings.inner_tol, settings.max_inner

    r = positions.residual(X)
    norms = _norms(positions, r)
    trail = [norms]
    counts = np.zeros(len(positions.subdomains), dtype=int)
    failures = {}
    active = norms > tol
    steps = 0  # every active subdomain has taken this many
    while active.any():
        if steps == budget:
            for b in np.flatnonzero(active):
                failures[b] = (f"inner Newton did not reach {tol} within {budget} "
                               f"iterations (residual {norms[b]:.3e})")
            break
        step = _step(positions, positions.jacobian(X), r, active, failures)
        if not active.any():
            break
        X[positions.overlap] -= step
        steps += 1
        counts[active] = steps
        r = positions.residual(X)
        norms = _norms(positions, r)
        trail.append(norms)
        finite = np.isfinite(norms)
        if not finite.all():
            for b in np.flatnonzero(active & ~finite):
                failures[b] = "inner Newton produced a non-finite residual"
            active &= finite
        active &= norms > tol

    if failures:
        b = min(failures, key=positions.subdomains.__getitem__)
        i = positions.subdomains[b]
        raise LocalSolveError(f"subdomain {i}: {failures[b]}", subdomain=i,
                              residuals=[float(n[b]) for n in trail[:counts[b] + 1]])
    X.flags.writeable = False
    return LocalSolveResult(
        positions=positions,
        X=X,
        correction=X[positions.overlap] - start,
        inner_counts=tuple(counts.tolist()),
        inner_iterations=int(counts.sum()),
    )


def local_correction_jacobian_action(block, v):
    """Apply every -A_ii^{-1} R_i J of a LocalJacobian to a global vector v.

    The action is one CSR product, every R_i J v at once, and one
    back-substitution with the one band LU; the result is the stacked
    vector of the block's overlaps.
    """
    return -_solve(block, block.matrix @ v)


def sweep_locals(positions, u, settings):
    """Solve all subdomains at u; returns (result, ls_in_max, ls_in_min).

    positions is every subdomain's PositionStack, as block_positions
    returns it, and the one LocalSolveResult stacks every subdomain's
    correction.  The max/min counts model the parallel wait: all
    subdomains wait for the slowest.  Failures propagate with the
    subdomain id attached.
    """
    result = solve_local(positions, u, settings)
    return result, max(result.inner_counts), min(result.inner_counts)

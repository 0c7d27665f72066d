"""Subdomain nonlinear solves defining the local corrections C_i(u), all at once.

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
solve_local solves a whole sequence of subdomains together and keeps, in
one LocalSolveResult, their corrections and the solved overlap values of
each u^(i) = u + P_i C_i(u), stacked in subdomain order, and each
subdomain's inner Newton count, but no derivative data.

That lives in a LocalJacobian, built on demand for one subdomain or for
all of them at once: the entries of the row blocks R_i J, over the
overlap cells and the frozen exterior, stacked in subdomain order, plus
one band LU of the block-diagonal matrix diag(A_ii), A_ii = R_i J P_i.
Taken at each u^(i) (solved_jacobian) it applies the exact derivatives

    dC_i/du = -A_ii^{-1} R_i J(u^(i)),

taken at u (local_jacobian, from a global J(u)) ASPIN's inexact ones;
either way one action, for every subdomain in the block, costs one
gather of v, one np.add.reduceat and one back-substitution (dgbtrs), and
returns the stacked vector of the layout's stacked overlap space.

Every problem's Jacobian has a fixed CSR pattern, and it is the only
description of the stencil read here: block_positions reads it once, from
one Jacobian at the problem's initial state, and returns a PositionStack,
computed for all subdomains in one pass of array operations: every
subdomain's overlap cells and halo (the cells outside the overlap its rows
couple to), where the overlap values sit in the stacked local vector
X = (u[cells_1], ..., u[cells_I]), where every R_i J sits in a Jacobian's
data array, where A_ii's entries go in the LAPACK band storage of
diag(A_ii), and the problem's row kernels on the stacked rows, fed with
where their entries' columns sit in X (NonlinearProblem.row_kernels).
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
solve of that subdomain alone.  solved_jacobian calls the Jacobian kernel
once, at the solved X.  _band_lu is the one place a band is filled and
factored, from R_i J's entries, whether they come from the row kernel or
from a global J.data.
"""

from dataclasses import dataclass, field

import numpy as np
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
    "solved_jacobian",
    "local_correction_jacobian_action",
    "sweep_locals",
]


class SolveError(RuntimeError):
    """A subdomain or coarse nonlinear solve failed to converge."""


class LocalSolveError(SolveError):
    """A subdomain Newton solve failed to converge or became singular.

    subdomain is the failed subdomain's index (None for a failure that is
    no subdomain's); residuals holds its inner residual norms, from the
    first one to the one at the failure (empty when no inner solve failed).
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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True, eq=False)
class LocalSolveResult:
    """Outcome of the local solves of a sequence of subdomains at base_state.

    correction and solved stack, in the order of subdomains, each
    subdomain's correction and the overlap values of its solved state
    u^(i); inner_counts holds each subdomain's inner Newton count and
    inner_iterations their sum.  base_state is read-only.
    """

    subdomains: tuple
    correction: np.ndarray = field(repr=False)
    solved: np.ndarray = field(repr=False)
    inner_counts: tuple
    inner_iterations: int
    base_state: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class PositionStack:
    """Where a sequence of subdomains' blocks sit, and what their solves share.

    Block b is subdomain subdomains[b].  X, the stacked local vector,
    concatenates each block's values at its cells (global indices cells):
    its overlap cells, then its halo, the cells outside the overlap that
    their rows couple to; residual and jacobian are the problem's row
    kernels on the stacked overlap rows, functions of X.  Block b has
    sizes[b] stacked rows, from block_starts[b], and its overlap values sit
    in X at overlap[block_starts[b]:].  R_i J's entries, stacked, are a
    global Jacobian's J.data[rows], at columns columns, row r from
    row_starts[r].  diag(A_ii) is a band matrix with bandwidths kl and ku,
    the largest of the blocks': the stacked entries at block, held[b] of
    them block b's, go to the flat indices slots of a C-order
    (rows, 2*kl+ku+1) array, whose transpose is LAPACK's band storage
    (A[r, c] at row kl+ku+r-c of column c).  The positions fit every
    Jacobian with the pattern they were computed from, which shape and nnz
    identify.
    """

    subdomains: tuple
    problem: object = field(repr=False)
    shape: tuple
    nnz: int
    residual: object = field(repr=False)
    jacobian: object = field(repr=False)
    cells: np.ndarray = field(repr=False)
    overlap: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    block_starts: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    row_starts: np.ndarray = field(repr=False)
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

    positions is the blocks' PositionStack, which places them: rows holds
    every R_i J's entries in turn, at its columns and row_starts.  lu is
    dgbtrf's (band factors, pivots) of A, at the stack's bandwidths.
    """

    positions: object = field(repr=False)
    rows: np.ndarray = field(repr=False)
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
    starts, counts = J.indptr[ov], J.indptr[ov + 1] - J.indptr[ov]
    row_starts = np.cumsum(counts) - counts
    rows = np.arange(counts.sum()) + np.repeat(starts - row_starts, counts)
    columns = J.indices[rows]
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
        rows=rows, columns=columns, row_starts=row_starts, block=block,
        held=np.bincount(entry_block[block], minlength=len(sizes)),
        slots=col * (2 * kl + ku + 1) + kl + ku + offset,
    )
    for a in stacked.values():
        a.flags.writeable = False
    residual, jacobian = problem.row_kernels(ov, entries)
    return PositionStack(subdomains, problem, J.shape, J.nnz, residual, jacobian,
                         kl=kl, ku=ku, **stacked)


def _lone(stack, b):
    """Block b of the stack alone: its one-block stack, at its own bandwidths."""
    at = stack.block_starts[b]
    overlap = stack.cells[stack.overlap[at:at + stack.sizes[b]]]
    return _stack(stack.problem, [overlap], (stack.subdomains[b],))


def _require_problem(problem, stack):
    if problem is not stack.problem:
        raise ValueError(f"subdomain {stack.subdomains[0]}: block positions "
                         "were computed for another problem")


def _frozen(u):
    """A read-only float copy of u, or u itself if it already is one.

    Only an array that owns its data and is read-only is reused: no caller
    can change it afterwards, so the local results can share it.
    """
    if (not isinstance(u, np.ndarray) or u.dtype != float or u.flags.writeable
            or u.base is not None):
        u = np.array(u, dtype=float)
        u.flags.writeable = False
    return u


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


def _factored(stack, entries):
    """One LocalJacobian over the stack, whose row blocks hold entries."""
    lu, ipiv, info = _band_lu(stack, entries)
    if info > 0:
        i = stack.subdomains[stack.block_of(info - 1)]
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian",
                              subdomain=i)
    return LocalJacobian(stack, entries, (lu, ipiv))


def _solve(block, b):
    """A^{-1} b by back-substitution with a LocalJacobian's band LU factors."""
    stack = block.positions
    return dgbtrs(block.lu[0], stack.kl, stack.ku, b, block.lu[1])[0]


def local_jacobian(J, positions):
    """The blocks of the global Jacobian J at a PositionStack's positions."""
    if J.format != "csr" or J.shape != positions.shape or J.nnz != positions.nnz:
        raise ValueError(
            f"subdomain {positions.subdomains[0]}: Jacobian ({J.format}, shape "
            f"{J.shape}, nnz {J.nnz}) does not have the pattern its block "
            f"positions were computed for (csr, shape {positions.shape}, "
            f"nnz {positions.nnz})"
        )
    return _factored(positions, J.data[positions.rows])


def solved_jacobian(problem, positions, result):
    """The blocks of local solves at their solved states u^(i), stacked.

    result must be the LocalSolveResult of a solve of the PositionStack
    positions.  The blocks come from one Jacobian-kernel call at the
    solved X, the base state with the stored solved values on the
    overlaps, not base_state + P_i correction, which can differ in the
    last bit.
    """
    _require_problem(problem, positions)
    if (result.subdomains != positions.subdomains
            or len(result.solved) != positions.size):
        got = result.subdomains + (None,) * len(positions.subdomains)
        i = next(i for i, j in zip(positions.subdomains, got) if i != j)
        raise ValueError(f"subdomain {i}: local results of different sweeps "
                         "cannot be stacked")
    X = result.base_state[positions.cells]
    X[positions.overlap] = result.solved
    return _factored(positions, positions.jacobian(X))


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
            first = stack.row_starts[at]
            lu, ipiv, _ = _band_lu(lone, entries[first:first + len(lone.columns)])
            step[rows] = dgbtrs(lu, lone.kl, lone.ku, r[rows], ipiv)[0]
    return step


def solve_local(problem, positions, u, settings):
    """Solve R_i F(u + P_i c_i) = 0 for every c_i = C_i(u) of a sequence of subdomains.

    positions is a PositionStack computed for problem.  Inner Newton from
    the zero corrections with full steps, on the stacked local vector X =
    (u[cells_1], ...): each step evaluates the stacked row kernels at X
    and refactorizes diag(A_ii), with every block whose residual norm is at
    or below settings.inner_tol frozen, and only X's overlap values change.
    A subdomain fails when it runs out of settings.max_inner steps, its
    block is singular or its residual becomes non-finite; it then stops,
    the others run on, and the failure of the lowest-index subdomain is
    raised.  The result keeps u as its base state, copied unless u already
    is a read-only array of its own.
    """
    _require_problem(problem, positions)
    u = _frozen(u)
    X = u[positions.cells]
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
    solved = X[positions.overlap]
    return LocalSolveResult(
        subdomains=positions.subdomains,
        correction=solved - start,
        solved=solved,
        inner_counts=tuple(counts.tolist()),
        inner_iterations=int(counts.sum()),
        base_state=u,
    )


def local_correction_jacobian_action(block, v):
    """Apply every -A_ii^{-1} R_i J of a LocalJacobian to a global vector v.

    The action gathers v at the stacked columns, sums each row's products
    in one np.add.reduceat and back-substitutes with the one band LU; the
    result is the stacked vector of the block's overlaps.
    """
    stack = block.positions
    Jv = np.add.reduceat(block.rows * v[stack.columns], stack.row_starts)
    return -_solve(block, Jv)


def sweep_locals(problem, positions, u, settings):
    """Solve all subdomains at u; returns (result, ls_in_max, ls_in_min).

    positions is every subdomain's PositionStack, as block_positions
    returns it, and the one LocalSolveResult stacks every subdomain's
    correction.  The max/min counts model the parallel wait: all
    subdomains wait for the slowest.  Failures propagate with the
    subdomain id attached.
    """
    result = solve_local(problem, positions, u, settings)
    return result, max(result.inner_counts), min(result.inner_counts)

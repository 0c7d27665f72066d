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
one Jacobian at the problem's initial state, and returns a PositionStack:
every subdomain's BlockPositions (its overlap cells and halo, the cells
outside the overlap its rows couple to, where R_i J sits in a Jacobian's
data array, and where A_ii's entries go in LAPACK band storage) plus what
their stacked solves share, built once: the problem's row kernels on all
blocks (see NonlinearProblem.row_kernels), where the overlap values sit in
the stacked local vector X = (u[cells_1], ..., u[cells_I]), and the band
geometry of diag(A_ii).  Every solve and block function takes a sequence
of positions and stacks it once (stack_positions), unless it already is a
PositionStack.

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
    "BlockPositions",
    "PositionStack",
    "SolveError",
    "LocalSolveError",
    "StaleCacheError",
    "solve_local",
    "block_positions",
    "stack_positions",
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
class BlockPositions:
    """Subdomain i's blocks in the problem's Jacobian pattern.

    overlap lists the subdomain's m cells; cells lists them followed by
    their halo, the cells outside the overlap that their rows couple to.
    In a global Jacobian R_i J's entries are J.data[rows], at column
    indices columns, row by row, row r from row_indptr[r].  A_ii = R_i J P_i
    has lower and upper bandwidths kl and ku in the overlap's cell order;
    its entries, R_i J's data at block, go to the flat indices slots of a
    C-order (m, 2*kl+ku+1) array, whose transpose is LAPACK's band storage
    (A_ii[r, c] at row kl+ku+r-c of column c).  The positions fit every
    Jacobian with the pattern they were computed from, which shape and nnz
    identify.
    """

    subdomain: int
    problem: object = field(repr=False)
    overlap: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
    shape: tuple
    nnz: int
    rows: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    row_indptr: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    kl: int
    ku: int

    @property
    def size(self):
        """The number m of overlap cells: A_ii is m x m, R_i J is m x n."""
        return len(self.overlap)

    @property
    def halo(self):
        return self.cells[self.size:]


@dataclass(frozen=True, eq=False)
class PositionStack:
    """A sequence of BlockPositions and what their stacked solves share.

    It is the sequence of positions itself (indexing and iteration give
    the BlockPositions).  X, the stacked local vector, concatenates each
    block's values at its cells (global indices cells); residual and
    jacobian are the problem's row kernels on all blocks, functions of X.
    Block b has sizes[b] stacked rows, from block_starts[b], and its
    overlap values sit in X at overlap[block_starts[b]:].  R_i J's
    entries, stacked, are a global Jacobian's J.data[rows], at global
    columns columns, row r from row_starts[r].  diag(A_ii) is a band
    matrix with bandwidths kl and ku, the largest of the blocks': the
    stacked entries at block, held[b] of them block b's, go to the flat
    indices slots of a C-order (rows, 2*kl+ku+1) array, whose transpose is
    LAPACK's band storage.
    """

    positions: tuple = field(repr=False)
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

    def __len__(self):
        return len(self.positions)

    def __getitem__(self, index):
        return self.positions[index]

    def __iter__(self):
        return iter(self.positions)

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

    positions is the blocks' PositionStack.  rows holds every R_i J's
    entries in turn, at global column indices columns; stacked row r starts
    at row_starts[r].  lu is dgbtrf's (band factors, pivots) of A, a band
    matrix with bandwidths kl and ku, the largest of the blocks'.
    base_state is the global u whose derivative the blocks represent;
    actions verify against it.
    """

    positions: object = field(repr=False)
    rows: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    row_starts: np.ndarray = field(repr=False)
    kl: int
    ku: int
    lu: tuple = field(repr=False)
    base_state: np.ndarray = field(default=None, repr=False)


def block_positions(problem, layout):
    """Every subdomain's BlockPositions in the problem's Jacobian pattern, stacked.

    The pattern is read from one Jacobian at the problem's initial state,
    which must be a CSR matrix with sorted, unique indices; each
    subdomain's halo is read from it, and the problem's row kernels are
    built on all overlaps and their halos.
    """
    J = problem.jacobian(problem.initial_state())
    if J.format != "csr" or not J.has_canonical_format:
        raise ValueError("block positions need a CSR Jacobian with sorted, "
                         "unique indices")
    return stack_positions([_subdomain_positions(problem, J, i, sub.overlap)
                            for i, sub in enumerate(layout.subdomains)])


def _subdomain_positions(problem, J, i, ov):
    """The BlockPositions of subdomain i, whose overlap cells are ov."""
    m = len(ov)
    starts, counts = J.indptr[ov], J.indptr[ov + 1] - J.indptr[ov]
    row_indptr = np.concatenate(([0], np.cumsum(counts)))
    rows = np.arange(row_indptr[-1]) + np.repeat(starts - row_indptr[:-1], counts)
    columns = J.indices[rows]
    local = np.full(J.shape[1], -1)
    local[ov] = np.arange(m)
    col = local[columns]
    halo = np.unique(columns[col < 0]).astype(ov.dtype)
    inside = np.flatnonzero(col >= 0)
    col = col[inside]
    offset = np.repeat(np.arange(m), counts)[inside] - col
    kl, ku = int(offset.max(initial=0)), int((-offset).max(initial=0))
    slots = col * (2 * kl + ku + 1) + kl + ku + offset
    cells = np.concatenate((ov, halo))
    for a in (cells, rows, columns, row_indptr, inside, slots):
        a.flags.writeable = False
    return BlockPositions(i, problem, ov, cells, J.shape, J.nnz, rows, columns,
                          row_indptr, inside, slots, kl, ku)


def stack_positions(positions):
    """The PositionStack of a sequence of BlockPositions, in its order.

    A PositionStack is returned as it is.  Otherwise the positions, which
    must belong to one problem, get the problem's row kernels on all their
    blocks, and each block's band slots move to its rows' offset in the
    stack and to the stack's bandwidths.
    """
    if isinstance(positions, PositionStack):
        return positions
    positions = tuple(positions)
    if not positions:
        raise ValueError("no block positions to stack")
    problem = positions[0].problem
    for pos in positions:
        if pos.problem is not problem:
            raise ValueError(f"subdomain {pos.subdomain}: block positions of "
                             "different problems cannot be stacked")
    sizes = np.array([pos.size for pos in positions])
    widths = np.array([len(pos.cells) for pos in positions])
    counts = np.array([len(pos.columns) for pos in positions])
    kls = np.array([pos.kl for pos in positions])
    kus = np.array([pos.ku for pos in positions])
    kl, ku = int(kls.max()), int(kus.max())
    block_starts = np.cumsum(sizes) - sizes
    first_entry = np.cumsum(counts) - counts
    held = np.array([len(pos.slots) for pos in positions])
    entry_block = np.repeat(np.arange(len(positions)), held)
    col, band_row = np.divmod(np.concatenate([pos.slots for pos in positions]),
                              (2 * kls + kus + 1)[entry_block])
    width = 2 * kl + ku + 1
    stacked = dict(
        cells=np.concatenate([pos.cells for pos in positions]),
        overlap=(np.arange(sizes.sum())
                 + np.repeat(np.cumsum(widths) - widths - block_starts, sizes)),
        sizes=sizes,
        block_starts=block_starts,
        rows=np.concatenate([pos.rows for pos in positions]),
        columns=np.concatenate([pos.columns for pos in positions]),
        row_starts=(np.concatenate([pos.row_indptr[:-1] for pos in positions])
                    + np.repeat(first_entry, sizes)),
        block=(np.concatenate([pos.block for pos in positions])
               + first_entry[entry_block]),
        held=held,
        slots=((col + block_starts[entry_block]) * width + band_row
               + (kl + ku - kls - kus)[entry_block]),
    )
    for a in stacked.values():
        a.flags.writeable = False
    residual, jacobian = problem.row_kernels(
        [(pos.overlap, pos.halo) for pos in positions])
    return PositionStack(positions, tuple(pos.subdomain for pos in positions),
                         problem, positions[0].shape, positions[0].nnz,
                         residual, jacobian, kl=kl, ku=ku, **stacked)


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


def _factored(stack, entries, base_state):
    """One LocalJacobian over the stack, whose row blocks hold entries."""
    lu, ipiv, info = _band_lu(stack, entries)
    if info > 0:
        i = stack.subdomains[stack.block_of(info - 1)]
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian",
                              subdomain=i)
    return LocalJacobian(stack, entries, stack.columns, stack.row_starts,
                         stack.kl, stack.ku, (lu, ipiv), base_state)


def _solve(block, b):
    """A^{-1} b by back-substitution with a LocalJacobian's band LU factors."""
    return dgbtrs(block.lu[0], block.kl, block.ku, b, block.lu[1])[0]


def local_jacobian(J, positions, base_state=None):
    """The blocks of the global Jacobian J at a sequence of positions, stacked."""
    stack = stack_positions(positions)
    if J.format != "csr" or J.shape != stack.shape or J.nnz != stack.nnz:
        raise ValueError(
            f"subdomain {stack.subdomains[0]}: Jacobian ({J.format}, shape "
            f"{J.shape}, nnz {J.nnz}) does not have the pattern its block "
            f"positions were computed for (csr, shape {stack.shape}, "
            f"nnz {stack.nnz})"
        )
    return _factored(stack, J.data[stack.rows], base_state)


def solved_jacobian(problem, positions, result):
    """The blocks of local solves at their solved states u^(i), stacked.

    result must be the LocalSolveResult of a solve of the same sequence of
    subdomains.  The blocks come from one Jacobian-kernel call at the
    solved X, the base state with the stored solved values on the
    overlaps, not base_state + P_i correction, which can differ in the
    last bit.
    """
    stack = stack_positions(positions)
    _require_problem(problem, stack)
    if result.subdomains != stack.subdomains or len(result.solved) != stack.size:
        got = result.subdomains + (None,) * len(stack)
        i = next(i for i, j in zip(stack.subdomains, got) if i != j)
        raise ValueError(f"subdomain {i}: local results of different sweeps "
                         "cannot be stacked")
    X = result.base_state[stack.cells]
    X[stack.overlap] = result.solved
    return _factored(stack, stack.jacobian(X), result.base_state)


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
            pos, at = stack[b], stack.block_starts[b]
            band = np.zeros((pos.size, 2 * pos.kl + pos.ku + 1))
            first = stack.held[:b].sum()
            band.flat[pos.slots] = entries[stack.block[first:first + stack.held[b]]]
            lu, ipiv, _ = dgbtrf(band.T, pos.kl, pos.ku, overwrite_ab=True)
            step[at:at + pos.size] = dgbtrs(lu, pos.kl, pos.ku,
                                            r[at:at + pos.size], ipiv)[0]
    return step


def solve_local(problem, positions, u, settings):
    """Solve R_i F(u + P_i c_i) = 0 for every c_i = C_i(u) of a sequence of subdomains.

    positions is a sequence of BlockPositions computed for problem (one
    subdomain's is the one-element case).  Inner Newton from the zero
    corrections with full steps, on the stacked local vector X =
    (u[cells_1], ...): each step evaluates the stacked row kernels at X
    and refactorizes diag(A_ii), with every block whose residual norm is at
    or below settings.inner_tol frozen, and only X's overlap values change.
    A subdomain fails when it runs out of settings.max_inner steps, its
    block is singular or its residual becomes non-finite; it then stops,
    the others run on, and the failure of the lowest-index subdomain is
    raised.  The result keeps u as its base state, copied unless u already
    is a read-only array of its own.
    """
    stack = stack_positions(positions)
    _require_problem(problem, stack)
    u = _frozen(u)
    X = u[stack.cells]
    start = X[stack.overlap]
    tol, budget = settings.inner_tol, settings.max_inner

    r = stack.residual(X)
    norms = _norms(stack, r)
    trail = [norms]
    counts = np.zeros(len(stack), dtype=int)
    failures = {}
    active = norms > tol
    steps = 0  # every active subdomain has taken this many
    while active.any():
        if steps == budget:
            for b in np.flatnonzero(active):
                failures[b] = (f"inner Newton did not reach {tol} within {budget} "
                               f"iterations (residual {norms[b]:.3e})")
            break
        step = _step(stack, stack.jacobian(X), r, active, failures)
        if not active.any():
            break
        X[stack.overlap] -= step
        steps += 1
        counts[active] = steps
        r = stack.residual(X)
        norms = _norms(stack, r)
        trail.append(norms)
        finite = np.isfinite(norms)
        if not finite.all():
            for b in np.flatnonzero(active & ~finite):
                failures[b] = "inner Newton produced a non-finite residual"
            active &= finite
        active &= norms > tol

    if failures:
        b = min(failures, key=stack.subdomains.__getitem__)
        i = stack.subdomains[b]
        raise LocalSolveError(f"subdomain {i}: {failures[b]}", subdomain=i,
                              residuals=[float(n[b]) for n in trail[:counts[b] + 1]])
    solved = X[stack.overlap]
    return LocalSolveResult(
        subdomains=stack.subdomains,
        correction=solved - start,
        solved=solved,
        inner_counts=tuple(counts.tolist()),
        inner_iterations=int(counts.sum()),
        base_state=u,
    )


def local_correction_jacobian_action(block, v, at_state=None):
    """Apply every -A_ii^{-1} R_i J of a LocalJacobian to a global vector v.

    The action gathers v at the stacked columns, sums each row's products
    in one np.add.reduceat and back-substitutes with the one band LU; the
    result is the stacked vector of the block's overlaps.  Passing
    at_state asserts the block belongs to that state; a mismatch raises
    StaleCacheError.
    """
    if at_state is not None and not np.array_equal(at_state, block.base_state):
        raise StaleCacheError("local blocks were factored at a different "
                              "state than the one being differentiated")
    Jv = np.add.reduceat(block.rows * v[block.columns], block.row_starts)
    return -_solve(block, Jv)


def sweep_locals(problem, positions, u, settings):
    """Solve all subdomains at u; returns (result, ls_in_max, ls_in_min).

    positions lists every subdomain's BlockPositions, as block_positions
    returns them, and the one LocalSolveResult stacks every subdomain's
    correction.  The max/min counts model the parallel wait: all
    subdomains wait for the slowest.  Failures propagate with the
    subdomain id attached.
    """
    result = solve_local(problem, positions, u, settings)
    return result, max(result.inner_counts), min(result.inner_counts)

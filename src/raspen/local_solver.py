"""Per-subdomain nonlinear solves defining the local corrections C_i(u).

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
A solve keeps the correction, the solved overlap values of
u^(i) = u + P_i C_i(u) and its inner Newton count, but no derivative data.

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
one Jacobian at the problem's initial state, and returns every
subdomain's BlockPositions: its overlap cells and halo (the cells outside
the overlap its rows couple to), the problem's row kernels on them (see
NonlinearProblem.row_kernels), where R_i J sits in a Jacobian's data
array, and where A_ii's entries go in LAPACK band storage.  Every solve
and block function takes them.  An inner Newton step works on the m + h
values at the overlap and its halo: it calls the row kernels for R_i F and
R_i J and touches no length-M array, so a sweep costs O(sum_i m_i), not
O(I M); solved_jacobian calls the Jacobian kernel once per subdomain at
u^(i).  A_ii is factored by band LU (dgbtrf) in the overlap's cell order
and solved by dgbtrs.  A stacked block uses the widest block's bandwidths
for the whole band, so its cost grows with the largest kl + ku; its
blocks share no coupling, so band LU eliminates each exactly as it would
alone.  _band_lu is the one place a band is filled and factored, from
R_i J's entries, whether they come from the row kernel or from a global
J.data.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

__all__ = [
    "SolverSettings",
    "LocalSolveResult",
    "LocalJacobian",
    "BlockPositions",
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
    """A subdomain Newton solve failed to converge or became singular."""


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
    """Outcome of one local solve at the global state base_state.

    solved holds the overlap values of the solved state u^(i).  base_state
    is read-only, and the results of one sweep share it.
    """

    subdomain: int
    correction: np.ndarray
    solved: np.ndarray = field(repr=False)
    inner_iterations: int
    base_state: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class BlockPositions:
    """Subdomain i's blocks in the problem's Jacobian pattern, and its row kernels.

    overlap lists the subdomain's m cells; cells lists them followed by
    their halo, the cells outside the overlap that their rows couple to.
    residual and jacobian are the problem's row kernels on them
    (NonlinearProblem.row_kernels): at the state whose values at cells are
    x, residual(x) is R_i F and jacobian(x) holds R_i J's entries.  In a
    global Jacobian those are J.data[rows], at column indices columns, row
    by row, row r from row_indptr[r].  A_ii = R_i J P_i has lower and upper
    bandwidths kl and ku in the overlap's cell order; its entries, R_i J's
    data at block, go to the flat indices slots of a C-order (m, 2*kl+ku+1)
    array, whose transpose is LAPACK's band storage (A_ii[r, c] at row
    kl+ku+r-c of column c).  The positions fit every Jacobian with the
    pattern they were computed from, which shape and nnz identify.
    """

    subdomain: int
    problem: object = field(repr=False)
    overlap: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
    residual: object = field(repr=False)
    jacobian: object = field(repr=False)
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


@dataclass(frozen=True, eq=False)
class LocalJacobian:
    """Stacked row blocks R_i J and the band LU of A = diag(A_ii).

    positions lists the blocks' BlockPositions in stacking order.  rows
    holds every R_i J's entries in turn, at global column indices columns;
    stacked row r starts at row_starts[r].  lu is dgbtrf's (band factors,
    pivots) of A, a band matrix with bandwidths kl and ku, the largest of
    the blocks'.  base_state is the global u whose derivative the blocks
    represent; actions verify against it.
    """

    positions: tuple = field(repr=False)
    rows: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    row_starts: np.ndarray = field(repr=False)
    kl: int
    ku: int
    lu: tuple = field(repr=False)
    base_state: np.ndarray = field(default=None, repr=False)

def block_positions(problem, layout):
    """Every subdomain's BlockPositions in the problem's Jacobian pattern.

    The pattern is read from one Jacobian at the problem's initial state,
    which must be a CSR matrix with sorted, unique indices; each
    subdomain's halo is read from it, and the problem's row kernels are
    built on the overlap and that halo.
    """
    J = problem.jacobian(problem.initial_state())
    if J.format != "csr" or not J.has_canonical_format:
        raise ValueError("block positions need a CSR Jacobian with sorted, "
                         "unique indices")
    return [_subdomain_positions(problem, J, i, sub.overlap)
            for i, sub in enumerate(layout.subdomains)]


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
    return BlockPositions(i, problem, ov, cells, *problem.row_kernels(ov, halo),
                          J.shape, J.nnz, rows, columns, row_indptr, inside,
                          slots, kl, ku)


def _require_problem(problem, positions):
    if problem is not positions.problem:
        raise ValueError(f"subdomain {positions.subdomain}: block positions "
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


def _band_lu(n, kl, ku, slots, entries):
    """dgbtrf's (lu, ipiv, info) of the n x n band matrix with entries at slots.

    slots are flat indices of a C-order (n, 2*kl+ku+1) array, whose
    transpose is LAPACK's band storage (A[r, c] at row kl+ku+r-c of column c).
    """
    band = np.zeros((n, 2 * kl + ku + 1))
    band.flat[slots] = entries
    return dgbtrf(band.T, kl, ku, overwrite_ab=True)


def _stacked(positions, entries, base_state):
    """One LocalJacobian over positions, whose row blocks hold entries in turn.

    Each block's band slots move to its cells' offset in the stack and to
    the stack's bandwidths; a zero pivot is mapped back to its subdomain.
    """
    positions = tuple(positions)
    sizes = np.array([pos.size for pos in positions])
    counts = np.array([len(pos.columns) for pos in positions])
    kls = np.array([pos.kl for pos in positions])
    kus = np.array([pos.ku for pos in positions])
    kl, ku = int(kls.max()), int(kus.max())
    ends = np.cumsum(sizes)
    first_entry = np.cumsum(counts) - counts
    of_slot = np.repeat(np.arange(len(positions)),
                        [len(pos.slots) for pos in positions])
    rows = np.concatenate(entries)
    row_starts = (np.concatenate([pos.row_indptr[:-1] for pos in positions])
                  + np.repeat(first_entry, sizes))
    block = np.concatenate([pos.block for pos in positions]) + first_entry[of_slot]
    col, band_row = np.divmod(np.concatenate([pos.slots for pos in positions]),
                              (2 * kls + kus + 1)[of_slot])
    slots = ((col + (ends - sizes)[of_slot]) * (2 * kl + ku + 1) + band_row
             + (kl + ku - kls - kus)[of_slot])
    lu, ipiv, info = _band_lu(int(ends[-1]), kl, ku, slots, rows[block])
    if info > 0:
        i = positions[np.searchsorted(ends, info - 1, "right")].subdomain
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian")
    columns = np.concatenate([pos.columns for pos in positions])
    return LocalJacobian(positions, rows, columns, row_starts, kl, ku,
                         (lu, ipiv), base_state)


def _solve(block, b):
    """A^{-1} b by back-substitution with a LocalJacobian's band LU factors."""
    return dgbtrs(block.lu[0], block.kl, block.ku, b, block.lu[1])[0]


def local_jacobian(J, positions, base_state=None):
    """The blocks of the global Jacobian J at a sequence of positions, stacked."""
    for pos in positions:
        if J.format != "csr" or J.shape != pos.shape or J.nnz != pos.nnz:
            raise ValueError(
                f"subdomain {pos.subdomain}: Jacobian ({J.format}, shape "
                f"{J.shape}, nnz {J.nnz}) does not have the pattern its block "
                f"positions were computed for (csr, shape {pos.shape}, "
                f"nnz {pos.nnz})"
            )
    return _stacked(positions, [J.data[pos.rows] for pos in positions],
                    base_state)


def solved_jacobian(problem, positions, results):
    """The blocks of local solves at their solved states u^(i), stacked.

    positions and results are sequences in the same order; the results
    must share one base state, as the results of one sweep do.  Each block
    comes from its row kernel at u^(i), the base state with the stored
    solved values on the overlap, not base_state + P_i correction, which
    can differ in the last bit.
    """
    base = results[0].base_state
    entries = []
    for pos, res in zip(positions, results, strict=True):
        _require_problem(problem, pos)
        if res.base_state is not base:
            raise ValueError(f"subdomain {pos.subdomain}: local results of "
                             "different sweeps cannot be stacked")
        x = base[pos.cells]
        x[:pos.size] = res.solved
        entries.append(pos.jacobian(x))
    return _stacked(positions, entries, base)


def solve_local(problem, positions, u, settings):
    """Solve R_i F(u + P_i c) = 0 for the local correction c = C_i(u).

    positions are subdomain i's BlockPositions, computed for problem.
    Inner Newton from the zero correction with full steps on the local
    vector x = u[positions.cells]: each step evaluates the row kernels at x
    and refactorizes A_ii, and only x's overlap part changes.  Convergence
    means the local residual norm is at or below settings.inner_tol.  The
    result keeps u as its base state, copied unless u already is a
    read-only array of its own.
    """
    _require_problem(problem, positions)
    i, m = positions.subdomain, positions.size
    kl, ku = positions.kl, positions.ku
    u = _frozen(u)
    x = u[positions.cells]

    iterations = 0
    r = positions.residual(x)
    rnorm = np.linalg.norm(r)
    while rnorm > settings.inner_tol:
        if iterations >= settings.max_inner:
            raise LocalSolveError(
                f"subdomain {i}: inner Newton did not reach {settings.inner_tol} "
                f"within {settings.max_inner} iterations (residual {rnorm:.3e})"
            )
        lu, ipiv, info = _band_lu(m, kl, ku, positions.slots,
                                  positions.jacobian(x)[positions.block])
        if info > 0:
            raise LocalSolveError(f"subdomain {i}: singular local Jacobian")
        x[:m] -= dgbtrs(lu, kl, ku, r, ipiv)[0]
        iterations += 1
        r = positions.residual(x)
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise LocalSolveError(
                f"subdomain {i}: inner Newton produced a non-finite residual"
            )

    solved = x[:m].copy()
    return LocalSolveResult(
        subdomain=i,
        correction=solved - u[positions.overlap],
        solved=solved,
        inner_iterations=iterations,
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
    """Solve all subdomains at u; returns (results, ls_in_max, ls_in_min).

    positions lists every subdomain's BlockPositions, as block_positions
    returns them.  u is copied once, not per subdomain, and every result
    shares the read-only copy as its base state.  The per-subdomain solves
    are independent (the max/min counts model the parallel wait: all
    subdomains wait for the slowest).  Failures propagate with the
    subdomain id attached.
    """
    u = _frozen(u)
    results = [solve_local(problem, pos, u, settings) for pos in positions]
    counts = [r.inner_iterations for r in results]
    return results, max(counts), min(counts)

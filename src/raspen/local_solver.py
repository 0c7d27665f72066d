"""Per-subdomain nonlinear solves defining the local corrections C_i(u).

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
A solve keeps the correction, the solved overlap values of
u^(i) = u + P_i C_i(u) and its inner Newton count, but no derivative data.

That lives in a LocalJacobian, built on demand: the entries of the row
block R_i J, over the overlap cells and the frozen exterior, plus the LU
factors of A_ii = R_i J P_i.  Taken at u^(i) (solved_jacobian) the block
applies the exact derivative

    dC_i/du = -A_ii^{-1} R_i J(u^(i)),

taken at u (local_jacobian, from a global J(u)) it applies ASPIN's
inexact one; either costs one gathered row-block product and one
back-substitution.

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
O(I M); solved_jacobian calls the Jacobian kernel once at u^(i).  A_ii is
factored by band LU (dgbtrf) in the overlap's cell order, so its cost
grows with the block's bandwidth, and solved by dgbtrs.  _factor is the
one place a local block is factored, from R_i J's entries, whether they
come from the row kernel or from a global J.data.
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
    """Row block R_i J of a global Jacobian and the band LU of R_i J P_i.

    rows holds R_i J's entries in the order of positions.columns; lu is
    dgbtrf's (band factors, pivots) of A_ii.  base_state is the global u
    whose derivative the block represents; actions verify against it.
    """

    positions: BlockPositions = field(repr=False)
    rows: np.ndarray = field(repr=False)
    lu: tuple = field(repr=False)
    base_state: np.ndarray = field(default=None, repr=False)

    @property
    def subdomain(self):
        return self.positions.subdomain


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


def _factor(positions, rows):
    """Band LU factors (dgbtrf's lu, ipiv) of A_ii, from R_i J's entries rows."""
    kl, ku = positions.kl, positions.ku
    band = np.zeros((positions.size, 2 * kl + ku + 1))
    band.flat[positions.slots] = rows[positions.block]
    lu, ipiv, info = dgbtrf(band.T, kl, ku, overwrite_ab=True)
    if info > 0:
        raise LocalSolveError(
            f"subdomain {positions.subdomain}: singular local Jacobian"
        )
    return lu, ipiv


def _solve(positions, lu, b):
    """A_ii^{-1} b by back-substitution with _factor's band LU factors."""
    return dgbtrs(lu[0], positions.kl, positions.ku, b, lu[1])[0]


def local_jacobian(J, positions, base_state=None):
    """The block of the global Jacobian J at positions, factored."""
    if J.format != "csr" or J.shape != positions.shape or J.nnz != positions.nnz:
        raise ValueError(
            f"subdomain {positions.subdomain}: Jacobian ({J.format}, shape "
            f"{J.shape}, nnz {J.nnz}) does not have the pattern its block "
            f"positions were computed for (csr, shape {positions.shape}, "
            f"nnz {positions.nnz})"
        )
    rows = J.data[positions.rows]
    return LocalJacobian(positions, rows, _factor(positions, rows), base_state)


def solved_jacobian(problem, positions, result):
    """The block of a local solve at its solved state u^(i), from the row kernel.

    u^(i) is the base state with the stored solved values on the overlap,
    not base_state + P_i correction, which can differ in the last bit.
    """
    _require_problem(problem, positions)
    x = result.base_state[positions.cells]
    x[:positions.size] = result.solved
    rows = positions.jacobian(x)
    return LocalJacobian(positions, rows, _factor(positions, rows),
                         result.base_state)


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
        x[:m] -= _solve(positions, _factor(positions, positions.jacobian(x)), r)
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
    """Apply -A_ii^{-1} R_i J to a global vector v with a LocalJacobian.

    The action gathers v at the row block's columns, sums each row's
    products in one np.add.reduceat and back-substitutes with the band LU.
    Passing at_state asserts the block belongs to that state; a mismatch
    raises StaleCacheError.
    """
    if at_state is not None and not np.array_equal(at_state, block.base_state):
        raise StaleCacheError(
            f"subdomain {block.subdomain}: factorization was built at a "
            "different state than the one being differentiated"
        )
    pos = block.positions
    Jv = np.add.reduceat(block.rows * v[pos.columns], pos.row_indptr[:-1])
    return -_solve(pos, block.lu, Jv)


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

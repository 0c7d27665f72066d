"""Per-subdomain nonlinear solves defining the local corrections C_i(u).

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
A solve keeps the correction, the solved overlap values of
u^(i) = u + P_i C_i(u) and its inner Newton count, but no derivative data.

That lives in a LocalJacobian, built on demand by local_jacobian: the row
block R_i J of a global Jacobian, over the overlap cells and the frozen
exterior, plus the LU factors of A_ii = R_i J P_i.  Taken at u^(i)
(solved_jacobian) the block applies the exact derivative

    dC_i/du = -A_ii^{-1} R_i J(u^(i)),

taken at u it applies ASPIN's inexact one; either costs one sparse product
and one back-substitution.

Every problem's Jacobian has a fixed CSR pattern, so block_positions
computes once per subdomain where A_ii (in CSC order) and R_i J (in CSR
order) sit in the Jacobian's data array.  A block is then gathered by index
from J.data into a matrix sharing precomputed index arrays; an inner Newton
step gathers and factors A_ii alone (in _factor, the one place a local block
is factored), and only local_jacobian also gathers R_i J.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_inner", "max_outer", "max_fixed_point"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True, eq=False)
class LocalSolveResult:
    """Outcome of one local solve at the global state base_state.

    solved holds the overlap values of the solved state u^(i).
    """

    subdomain: int
    correction: np.ndarray
    solved: np.ndarray = field(repr=False)
    inner_iterations: int
    base_state: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class LocalJacobian:
    """Row block R_i J of a global Jacobian and the LU factors of R_i J P_i.

    Both are gathered from J.data at the subdomain's BlockPositions.
    base_state is the global u whose derivative the block represents;
    actions verify against it.
    """

    subdomain: int
    rows: object = field(repr=False)
    lu: object = field(repr=False)
    base_state: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class BlockPositions:
    """Where subdomain i's blocks sit in the data array of a global Jacobian.

    block and rows are (positions, indices, indptr): J.data[positions] with
    the index arrays forms A_ii = R_i J P_i in CSC form and R_i J in CSR
    form.  They fit every Jacobian with the pattern they were computed from,
    which shape and nnz identify.
    """

    subdomain: int
    shape: tuple
    nnz: int
    block: tuple = field(repr=False)
    rows: tuple = field(repr=False)

    @property
    def size(self):
        """The number m of overlap cells: A_ii is m x m, R_i J is m x n."""
        return len(self.rows[2]) - 1


def block_positions(J, layout, i):
    """The BlockPositions of subdomain i in the canonical CSR Jacobian J."""
    if J.format != "csr" or not J.has_canonical_format:
        raise ValueError("block positions need a CSR Jacobian with sorted, "
                         "unique indices")
    ov = layout.subdomains[i].overlap
    m = len(ov)
    starts, ends = J.indptr[ov], J.indptr[ov + 1]
    rows = np.concatenate([np.arange(a, b) for a, b in zip(starts, ends)])
    row_indptr = np.concatenate(([0], np.cumsum(ends - starts)))
    local = np.full(J.shape[1], -1)
    local[ov] = np.arange(m)
    col = local[J.indices[rows]]
    row = np.repeat(np.arange(m), ends - starts)
    # rows already run in order, so a stable sort by column gives CSC order
    inside = np.flatnonzero(col >= 0)
    inside = inside[np.argsort(col[inside], kind="stable")]
    block_indptr = np.concatenate(([0], np.cumsum(np.bincount(col[inside],
                                                              minlength=m))))

    def frozen(positions, indices, indptr):
        arrays = (positions, indices.astype(np.int32), indptr.astype(np.int32))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    return BlockPositions(i, J.shape, J.nnz,
                          frozen(rows[inside], row[inside], block_indptr),
                          frozen(rows, J.indices[rows], row_indptr))


def _gather(J, positions, part, fmt, shape):
    """One block of J as a sparse matrix, its data taken from J.data."""
    if J.format != "csr" or J.shape != positions.shape or J.nnz != positions.nnz:
        raise ValueError(
            f"subdomain {positions.subdomain}: Jacobian ({J.format}, shape "
            f"{J.shape}, nnz {J.nnz}) does not have the pattern its block "
            f"positions were computed for (csr, shape {positions.shape}, "
            f"nnz {positions.nnz})"
        )
    index, indices, indptr = part
    return fmt((J.data[index], indices, indptr), shape=shape)


def _factor(J, positions):
    """LU factors of A_ii = R_i J P_i, gathered from J."""
    m = positions.size
    A_ii = _gather(J, positions, positions.block, sp.csc_matrix, (m, m))
    try:
        return spla.splu(A_ii)
    except RuntimeError as exc:  # scipy reports singular factors this way
        raise LocalSolveError(
            f"subdomain {positions.subdomain}: singular local Jacobian"
        ) from exc


def local_jacobian(J, layout, i, base_state=None, positions=None):
    """The block of subdomain i of the global Jacobian J, factored.

    positions are subdomain i's BlockPositions for J's pattern; when
    omitted they are computed from J.
    """
    if positions is None:
        positions = block_positions(J, layout, i)
    rows = _gather(J, positions, positions.rows, sp.csr_matrix,
                   (positions.size, J.shape[1]))
    return LocalJacobian(i, rows, _factor(J, positions), base_state)


def solved_jacobian(problem, layout, result, positions=None):
    """The block of a local solve at its solved state u^(i).

    u^(i) is rebuilt from the stored solved values rather than as
    base_state + P_i correction, which can differ in the last bit.
    """
    state = result.base_state.copy()
    state[layout.subdomains[result.subdomain].overlap] = result.solved
    return local_jacobian(problem.jacobian(state), layout, result.subdomain,
                          result.base_state, positions)


def solve_local(problem, layout, i, u, settings, positions=None):
    """Solve R_i F(u + P_i c) = 0 for the local correction c = C_i(u).

    Inner Newton from the zero correction with full steps; A_ii is gathered
    and refactorized at every step.  Convergence means the local residual
    norm is at or below settings.inner_tol.  positions are subdomain i's
    BlockPositions; when omitted they are computed from the first Jacobian.
    """
    ov = layout.subdomains[i].overlap
    u = np.asarray(u, dtype=float)
    v = u.copy()

    iterations = 0
    r = problem.residual(v)[ov]
    rnorm = np.linalg.norm(r)
    while rnorm > settings.inner_tol:
        if iterations >= settings.max_inner:
            raise LocalSolveError(
                f"subdomain {i}: inner Newton did not reach {settings.inner_tol} "
                f"within {settings.max_inner} iterations (residual {rnorm:.3e})"
            )
        J = problem.jacobian(v)
        if positions is None:
            positions = block_positions(J, layout, i)
        v[ov] -= _factor(J, positions).solve(r)
        iterations += 1
        r = problem.residual(v)[ov]
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise LocalSolveError(
                f"subdomain {i}: inner Newton produced a non-finite residual"
            )

    return LocalSolveResult(
        subdomain=i,
        correction=v[ov] - u[ov],
        solved=v[ov],
        inner_iterations=iterations,
        base_state=u.copy(),
    )


def local_correction_jacobian_action(block, v, at_state=None):
    """Apply -A_ii^{-1} R_i J to a global vector v with a LocalJacobian.

    The action costs one sparse product with the row block and one
    back-substitution with its factors.  Passing at_state asserts the
    block belongs to that state; a mismatch raises StaleCacheError.
    """
    if at_state is not None and not np.array_equal(at_state, block.base_state):
        raise StaleCacheError(
            f"subdomain {block.subdomain}: factorization was built at a "
            "different state than the one being differentiated"
        )
    return -block.lu.solve(block.rows @ v)


def sweep_locals(problem, layout, u, settings, positions=None):
    """Solve all subdomains at u; returns (results, ls_in_max, ls_in_min).

    The per-subdomain solves are independent (the max/min counts model the
    parallel wait: all subdomains wait for the slowest).  Failures propagate
    with the subdomain id attached.  positions, if given, lists every
    subdomain's BlockPositions.
    """
    if positions is None:
        positions = [None] * layout.n_subdomains
    results = [
        solve_local(problem, layout, i, u, settings, positions[i])
        for i in range(layout.n_subdomains)
    ]
    counts = [r.inner_iterations for r in results]
    return results, max(counts), min(counts)

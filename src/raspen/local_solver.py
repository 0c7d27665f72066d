"""Per-subdomain nonlinear solves defining the local corrections C_i(u).

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
A solve keeps the correction, the solved overlap values of
u^(i) = u + P_i C_i(u) and its inner Newton count, but no derivative data.

That lives in a LocalJacobian, built on demand by local_jacobian (the one
place a local block is factored; every inner Newton step uses it too): the
row block R_i J of a global Jacobian, over the overlap cells and the frozen
exterior, plus the LU factors of A_ii = R_i J P_i.  Taken at u^(i)
(solved_jacobian) the block applies the exact derivative

    dC_i/du = -A_ii^{-1} R_i J(u^(i)),

taken at u it applies ASPIN's inexact one; either costs one sparse product
and one back-substitution.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

__all__ = [
    "SolverSettings",
    "LocalSolveResult",
    "LocalJacobian",
    "SolveError",
    "LocalSolveError",
    "StaleCacheError",
    "solve_local",
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

    base_state is the global u whose derivative the block represents (None
    for the blocks of inner Newton steps); actions verify against it.
    """

    subdomain: int
    rows: object = field(repr=False)
    lu: object = field(repr=False)
    base_state: np.ndarray = field(default=None, repr=False)


def local_jacobian(J, layout, i, base_state=None):
    """The block of subdomain i of the global Jacobian J, factored."""
    ov = layout.subdomains[i].overlap
    rows = J.tocsr()[ov]
    try:
        lu = spla.splu(rows[:, ov].tocsc())
    except RuntimeError as exc:  # scipy reports singular factors this way
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian") from exc
    return LocalJacobian(i, rows, lu, base_state)


def solved_jacobian(problem, layout, result):
    """The block of a local solve at its solved state u^(i).

    u^(i) is rebuilt from the stored solved values rather than as
    base_state + P_i correction, which can differ in the last bit.
    """
    state = result.base_state.copy()
    state[layout.subdomains[result.subdomain].overlap] = result.solved
    return local_jacobian(problem.jacobian(state), layout, result.subdomain,
                          result.base_state)


def solve_local(problem, layout, i, u, settings):
    """Solve R_i F(u + P_i c) = 0 for the local correction c = C_i(u).

    Inner Newton from the zero correction with full steps; the local block
    is refactorized at every step.  Convergence means the local residual
    norm is at or below settings.inner_tol.
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
        v[ov] -= local_jacobian(problem.jacobian(v), layout, i).lu.solve(r)
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


def sweep_locals(problem, layout, u, settings):
    """Solve all subdomains at u; returns (results, ls_in_max, ls_in_min).

    The per-subdomain solves are independent (the max/min counts model the
    parallel wait: all subdomains wait for the slowest).  Failures propagate
    with the subdomain id attached.
    """
    results = [
        solve_local(problem, layout, i, u, settings)
        for i in range(layout.n_subdomains)
    ]
    counts = [r.inner_iterations for r in results]
    return results, max(counts), min(counts)

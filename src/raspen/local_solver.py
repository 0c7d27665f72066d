"""Per-subdomain nonlinear solves defining the local corrections C_i(u).

C_i(u) is the overlap-local vector solving R_i F(u + P_i C_i(u)) = 0 with
the exterior of the subdomain frozen at u (homogeneous correction outside).
Each solve retains the row block R_i J(u^(i)) of the global Jacobian at
the solved state u^(i) = u + P_i C_i(u), whose columns cover the overlap
cells and the frozen exterior alike, plus the LU factorization of its
overlap columns A_ii = R_i J(u^(i)) P_i.  Together these give the exact
derivative of the correction,

    dC_i/du = -A_ii^{-1} R_i J(u^(i)),

applied matrix-free as one sparse product plus one back-substitution.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverSettings",
    "LocalSolveResult",
    "SolveError",
    "LocalSolveError",
    "StaleCacheError",
    "solve_local",
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
    """Outcome of one local solve, immutable afterward.

    base_state is the global u the solve was performed at; Jacobian actions
    verify against it so factorizations from an earlier outer iterate cannot
    be reused silently.
    """

    subdomain: int
    correction: np.ndarray
    rows: sp.csr_matrix = field(repr=False)
    factorization: object = field(repr=False)
    inner_iterations: int
    base_state: np.ndarray = field(repr=False)


def solve_local(problem, layout, i, u, settings):
    """Solve R_i F(u + P_i c) = 0 for the local correction c = C_i(u).

    Inner Newton from the zero correction with full steps; the local block
    is refactorized at every step.  Convergence means the local residual
    norm is at or below settings.inner_tol; the row block and its
    factorization retained on the result are assembled at the final iterate.
    """
    sub = layout.subdomains[i]
    ov = sub.overlap
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
        A_ii = J[ov][:, ov].tocsc()
        try:
            delta = spla.splu(A_ii).solve(r)
        except RuntimeError as exc:  # scipy reports singular factors this way
            raise LocalSolveError(f"subdomain {i}: singular local Jacobian") from exc
        v[ov] -= delta
        iterations += 1
        r = problem.residual(v)[ov]
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise LocalSolveError(
                f"subdomain {i}: inner Newton produced a non-finite residual"
            )

    rows = problem.jacobian(v).tocsr()[ov]
    try:
        factorization = spla.splu(rows[:, ov].tocsc())
    except RuntimeError as exc:
        raise LocalSolveError(f"subdomain {i}: singular local Jacobian") from exc
    return LocalSolveResult(
        subdomain=i,
        correction=v[ov] - u[ov],
        rows=rows,
        factorization=factorization,
        inner_iterations=iterations,
        base_state=u.copy(),
    )


def local_correction_jacobian_action(result, v, at_state=None):
    """Apply dC_i/du = -A_ii^{-1} R_i J(u^(i)) to a global vector v.

    The action costs one sparse product with the cached row block and one
    back-substitution with the cached factorization.  Passing at_state
    asserts the result belongs to that state; a mismatch raises
    StaleCacheError.
    """
    if at_state is not None and not np.array_equal(at_state, result.base_state):
        raise StaleCacheError(
            f"subdomain {result.subdomain}: factorization was built at a "
            "different state than the one being differentiated"
        )
    return -result.factorization.solve(result.rows @ v)


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

"""Galerkin coarse problem and the two flavors of coarse correction.

The coarse function tests the fine residual against the interpolation
basis: F_0(u_0) = P_0^T F(P_0 u_0), one DOF per subdomain.  The test
space has to match the trial space here: aggregating residuals with
plain per-coarse-cell sums instead (the other natural finite-volume
choice) breaks the Galerkin symmetry, and the resulting two-level
correction amplifies interface modes -- on the linear Darcy problem the
two-level iteration operator then has spectral radius around 5-6 and the
fixed point diverges.

The full-approximation-scheme correction C_0(u) (used by the two-level
Newton solver on the restricted Schwarz function) solves

    F_0(R_0 u + C_0(u)) = F_0(R_0 u) - P_0^T F(u),

by coarse Newton from the initial guess R_0 u, which makes J_0 = F_0'(R_0 u)
a free by-product of the first step.  The additive-Schwarz variant instead
precomputes the coarse solution u_0* (F_0(u_0*) = 0) once and solves

    F_0(C_0^A(u) + u_0*) = -P_0^T F(u)

from the initial guess u_0*.  Both are one coarse Newton solve that differs
only in its start value and right-hand side, as is the base solve for
u_0*.  Coarse Newton factors each iterate's dense coarse Jacobian once, by
LU, steps with those factors and fails with CoarseSolveError on a
non-finite residual (the start's included), a singular Jacobian or a spent
budget.  Both corrections retain the factors at the converged iterate
(J^_0) for the outer Jacobian actions

    dC_0/du   = -R_0 + J^_0^{-1} (J_0 R_0 - P_0^T J(u)),
    dC_0^A/du = -J^_0^{-1} P_0^T J(u).

An action takes the fine Jacobian J(u) from its caller, which assembles it
once per state and makes sure that the correction was solved at u.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrf

from .local_solver import SolveError

__all__ = [
    "CoarseSolveResult",
    "CoarseSolveError",
    "coarse_residual",
    "coarse_jacobian",
    "fas_correction",
    "fas_correction_jacobian_action",
    "aspin_coarse_setup",
    "aspin_coarse_correction",
    "aspin_coarse_jacobian_action",
]


class CoarseSolveError(SolveError):
    """The coarse Newton solve failed to converge or became singular."""


@dataclass(frozen=True, eq=False)
class CoarseSolveResult:
    """Outcome of one coarse correction solve.

    J0 is the coarse Jacobian at the initial guess (read by the FAS action
    only); J0_hat_lu is the LU factorization (lu, piv), as
    scipy.linalg.lu_solve takes it, of the coarse Jacobian at the converged
    iterate.
    """

    correction: np.ndarray
    J0: np.ndarray = field(repr=False)
    J0_hat_lu: tuple = field(repr=False)
    inner_iterations: int


def coarse_residual(problem, layout, u0):
    """F_0(u_0) = P_0^T F(P_0 u_0)."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (layout.n_subdomains,):
        raise ValueError(f"expected coarse vector of length {layout.n_subdomains}")
    return layout.P0.T @ problem.residual(layout.P0 @ u0)


def coarse_jacobian(problem, layout, u0):
    """Dense F_0'(u_0) = P_0^T J(P_0 u_0) P_0 (coarse dimension is small)."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (layout.n_subdomains,):
        raise ValueError(f"expected coarse vector of length {layout.n_subdomains}")
    J = problem.jacobian(layout.P0 @ u0)
    return np.asarray((layout.P0.T @ J @ layout.P0).todense())


def _coarse_newton(problem, layout, start, rhs, settings, what):
    """Solve F_0(start + c) = rhs for c by coarse Newton from start.

    Every iterate, start included, must have a finite residual.  Each
    iterate's coarse Jacobian is factored once, by LU; a step solves with
    those factors.  The result keeps the coarse Jacobian at start and the
    factors of J^_0, the coarse Jacobian at the converged iterate.
    """
    w = np.asarray(start, dtype=float).copy()
    J0, iterations = None, 0
    while True:
        r = coarse_residual(problem, layout, w) - rhs
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise CoarseSolveError(f"{what}: coarse Newton produced non-finite values")
        if rnorm > settings.inner_tol and iterations == settings.max_inner:
            raise CoarseSolveError(
                f"{what}: coarse Newton did not reach {settings.inner_tol} "
                f"within {settings.max_inner} iterations (residual {rnorm:.3e})"
            )
        J = coarse_jacobian(problem, layout, w)
        J0 = J if J0 is None else J0
        lu, piv, info = dgetrf(J)
        if info > 0:
            raise CoarseSolveError(f"{what}: singular coarse Jacobian")
        if rnorm <= settings.inner_tol:
            return CoarseSolveResult(w - start, J0, (lu, piv), iterations)
        w -= sla.lu_solve((lu, piv), r)
        iterations += 1


def fas_correction(problem, layout, u, settings):
    """Full-approximation-scheme coarse correction C_0(u)."""
    u = np.asarray(u, dtype=float)
    u0 = layout.R0 @ u
    rhs = coarse_residual(problem, layout, u0) - layout.P0.T @ problem.residual(u)
    return _coarse_newton(problem, layout, u0, rhs, settings,
                          "FAS coarse correction")


def fas_correction_jacobian_action(result, layout, J_u, v):
    """Apply dC_0/du = -R_0 + J^_0^{-1}(J_0 R_0 - P_0^T J(u)) to v.

    J_u is the fine Jacobian at u, the state result was solved at.
    """
    R0v = layout.R0 @ v
    w = result.J0 @ R0v - layout.P0.T @ (J_u @ v)
    return -R0v + sla.lu_solve(result.J0_hat_lu, w)


def aspin_coarse_setup(problem, layout, settings):
    """Solve the plain coarse problem F_0(u_0*) = 0 once, from zero."""
    zero = np.zeros(layout.n_subdomains)
    return _coarse_newton(problem, layout, zero, zero, settings,
                          "coarse base solve").correction


def aspin_coarse_correction(problem, layout, u, u0_star, settings):
    """Additive-Schwarz coarse correction: F_0(C_0^A + u_0*) = -P_0^T F(u)."""
    u = np.asarray(u, dtype=float)
    rhs = -(layout.P0.T @ problem.residual(u))
    return _coarse_newton(problem, layout, u0_star, rhs, settings,
                          "AS coarse correction")


def aspin_coarse_jacobian_action(result, layout, J_u, v):
    """Apply dC_0^A/du = -J^_0^{-1} P_0^T J(u) to v, J_u the fine J(u)."""
    return -sla.lu_solve(result.J0_hat_lu, layout.P0.T @ (J_u @ v))

"""Shared dense/brute-force reference implementations used by the tests.

Everything here favors directness over speed: dense matrices, explicit
loops, and definitions transcribed literally, so the library code can be
checked against an independent path.
"""

import numpy as np
from scipy.linalg import lapack

from raspen.local_solver import LocalSolveError


def dense_darcy_system(problem):
    """Dense (A, b) with residual(u) = A u - b for a beta=0 1D problem."""
    assert problem.beta == 0.0
    M, T, f = problem.M, problem.transmissibilities, problem.source
    d0, dL = problem.dirichlet
    A = np.zeros((M, M))
    b = f.copy()
    for k in range(M):
        A[k, k] = T[k] + T[k + 1]
        if k > 0:
            A[k, k - 1] = -T[k]
        if k + 1 < M:
            A[k, k + 1] = -T[k + 1]
    b[0] += T[0] * d0
    b[-1] += T[M] * dL
    return A, b


def brute_frozen_newton(problem, layout, i, u, tol=1e-12, maxit=60):
    """Frozen-exterior Newton on subdomain i, dense linear algebra.

    Returns the full state whose overlap cells solve the local system with
    the exterior held at u.
    """
    ov = layout.subdomains[i].overlap
    w = np.asarray(u, dtype=float).copy()
    for _ in range(maxit):
        r = problem.residual(w)[ov]
        if np.linalg.norm(r) <= tol:
            return w
        Jd = problem.jacobian(w).toarray()
        A = Jd[np.ix_(ov, ov)]
        w[ov] -= np.linalg.solve(A, r)
    raise AssertionError(f"brute-force local Newton stalled on subdomain {i}")


def plain_newton(problem, u0, tol=1e-12, maxit=80):
    """Undecomposed dense Newton, used to produce reference solutions."""
    u = np.asarray(u0, dtype=float).copy()
    for _ in range(maxit):
        F = problem.residual(u)
        if np.linalg.norm(F) <= tol:
            return u
        u -= np.linalg.solve(problem.jacobian(u).toarray(), F)
    raise AssertionError("plain Newton oracle failed to converge")


def schwarz_preconditioners(A, layout):
    """Dense one-level Schwarz operators for an affine system.

    Returns (M_ras, M_as): sum_i Ptilde_i A_i^{-1} R_i and
    sum_i P_i A_i^{-1} R_i built explicitly from dense blocks.
    """
    n = A.shape[0]
    M_ras = np.zeros((n, n))
    M_as = np.zeros((n, n))
    for sub in layout.subdomains:
        ov = sub.overlap
        Ainv = np.linalg.inv(A[np.ix_(ov, ov)])
        R = np.zeros((len(ov), n))
        R[np.arange(len(ov)), ov] = 1.0
        P = R.T
        Pt = np.zeros((n, len(ov)))
        Pt[sub.owned, sub.owned_local] = 1.0
        M_ras += Pt @ Ainv @ R
        M_as += P @ Ainv @ R
    return M_ras, M_as


def sequential_local_solve(problem, pos, u, settings, kernels=None):
    """One subdomain's inner Newton, alone: (correction, solved, iterations).

    The per-subdomain loop that solved the subdomains one after another
    before they took their steps together: full Newton steps on the
    subdomain's local vector, with its own band LU, raising LocalSolveError
    on the first failed check.  kernels defaults to the problem's row
    kernels on the subdomain alone.
    """
    residual, jacobian = kernels or problem.row_kernels([(pos.overlap, pos.halo)])
    i, m, kl, ku = pos.subdomain, pos.size, pos.kl, pos.ku
    u = np.asarray(u, dtype=float)
    x = u[pos.cells]
    iterations = 0
    r = residual(x)
    rnorm = np.linalg.norm(r)
    while rnorm > settings.inner_tol:
        if iterations >= settings.max_inner:
            raise LocalSolveError(
                f"subdomain {i}: inner Newton did not reach {settings.inner_tol} "
                f"within {settings.max_inner} iterations (residual {rnorm:.3e})"
            )
        band = np.zeros((m, 2 * kl + ku + 1))
        band.flat[pos.slots] = jacobian(x)[pos.block]
        lu, ipiv, info = lapack.dgbtrf(band.T, kl, ku, overwrite_ab=True)
        if info > 0:
            raise LocalSolveError(f"subdomain {i}: singular local Jacobian")
        x[:m] -= lapack.dgbtrs(lu, kl, ku, r, ipiv)[0]
        iterations += 1
        r = residual(x)
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise LocalSolveError(
                f"subdomain {i}: inner Newton produced a non-finite residual"
            )
    solved = x[:m].copy()
    return solved - u[pos.overlap], solved, iterations

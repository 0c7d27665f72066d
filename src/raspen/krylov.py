"""Matrix-free GMRES for the outer Jacobian systems.

No restarts and a zero initial guess: the iteration count then equals the
number of operator applications, which is the quantity the experiment
harness charges as linear subdomain solves.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["GmresReport", "gmres"]

BREAKDOWN_TOL = 1e-14


@dataclass(frozen=True)
class GmresReport:
    """Outcome of one GMRES solve.

    iterations equals the number of operator applications.  converged is
    true exactly when the relative residual reached the tolerance.  An
    Arnoldi breakdown ends the iteration either way: a lucky one (the
    Krylov space contains the solution) converges, a singular one does not.
    """

    iterations: int
    relative_residual: float
    converged: bool
    residual_history: tuple


def gmres(action, rhs, tol=1e-8, max_iter=None):
    """Solve action(x) = rhs by full GMRES from the zero initial guess.

    `action` must be a linear map on vectors of the same length as rhs.
    Modified Gram-Schmidt orthogonalization with Givens rotations on the
    Hessenberg matrix; the least-squares residual is tracked per iteration
    and compared against tol * ||rhs||.  Returns (solution, GmresReport);
    when max_iter is hit, or a step adds no direction because the operator
    is singular on the Krylov space, the last least-squares iterate is
    returned with converged=False.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    if max_iter is None:
        max_iter = n
    elif max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), GmresReport(0, 0.0, True, ())

    V = [rhs / bnorm]
    Rcols = []          # rotated Hessenberg columns (upper triangular)
    cs, sn = [], []
    g = [bnorm]         # rotated least-squares right-hand side
    history = []
    converged = False

    k = 0
    while k < max_iter:
        w = np.array(action(V[k]), dtype=float)  # our copy, updated in place
        hcol = np.zeros(k + 2)
        for i in range(k + 1):
            hcol[i] = V[i] @ w
            w -= hcol[i] * V[i]
        hcol[k + 1] = np.linalg.norm(w)
        breakdown = hcol[k + 1] < BREAKDOWN_TOL
        if not breakdown:
            w /= hcol[k + 1]
            V.append(w)

        for i in range(k):
            t = cs[i] * hcol[i] + sn[i] * hcol[i + 1]
            hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1]
            hcol[i] = t
        denom = np.hypot(hcol[k], hcol[k + 1])
        # a rotated diagonal that is zero next to the column's norm adds no
        # direction: the least-squares iterate and residual stay as they were
        singular = denom <= BREAKDOWN_TOL * np.linalg.norm(hcol)
        if not singular:
            c, s = hcol[k] / denom, hcol[k + 1] / denom
            cs.append(c)
            sn.append(s)
            hcol[k] = denom
            hcol[k + 1] = 0.0
            Rcols.append(hcol[: k + 1])
            g.append(-s * g[k])
            g[k] = c * g[k]

        k += 1
        rel = abs(g[-1]) / bnorm
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        if breakdown or singular:
            break

    # back-substitute R y = g on the nonsingular least-squares system
    m = len(Rcols)
    y = np.zeros(m)
    for j in range(m - 1, -1, -1):
        acc = g[j] - sum(Rcols[i][j] * y[i] for i in range(j + 1, m))
        y[j] = acc / Rcols[j][j]
    x = np.zeros(n)
    for j in range(m):
        x += y[j] * V[j]
    return x, GmresReport(k, history[-1], converged, tuple(history))

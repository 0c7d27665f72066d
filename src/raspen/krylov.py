"""Matrix-free GMRES for the outer Jacobian systems.

No restarts and a zero initial guess: the iteration count then equals the
number of operator applications, which is the quantity the experiment
harness charges as linear subdomain solves.  The Krylov basis is
orthogonalized by two-pass classical Gram-Schmidt and kept in row blocks of
BLOCK_ROWS vectors, allocated as the iteration reaches them, so its memory
follows the iterations taken, not the length of the vectors.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = ["GmresReport", "gmres"]

BREAKDOWN_TOL = 1e-14
BLOCK_ROWS = 16


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
    Two-pass classical Gram-Schmidt (CGS2, orthogonal to working precision)
    with Givens rotations on the Hessenberg matrix; the least-squares
    residual is tracked per iteration and compared against tol * ||rhs||.
    A step breaks down when its new direction is at most BREAKDOWN_TOL
    times the norm of the action's output, whatever the operator's scale.
    Returns (solution, GmresReport); when max_iter is hit, or a step adds
    no direction because the operator is singular on the Krylov space, the
    last least-squares iterate is returned with converged=False.  An action
    output that is not finite ends the solve so too, with a nan residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    if max_iter is None:
        max_iter = n
    elif max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    bnorm = math.sqrt(rhs @ rhs)
    if bnorm == 0.0:
        return np.zeros(n), GmresReport(0, 0.0, True, ())

    blocks = [np.empty((BLOCK_ROWS, n))]    # basis vector k is row k of them
    blocks[0][0] = rhs / bnorm
    Rcols = []          # rotated Hessenberg columns (upper triangular), concatenated
    cs, sn = [], []
    g = [bnorm]         # rotated least-squares right-hand side
    history = []
    for k in range(max_iter):
        b, r = divmod(k, BLOCK_ROWS)
        w = np.array(action(blocks[b][r]), dtype=float)  # our copy, updated in place
        wnorm = math.sqrt(w @ w)
        if not math.isfinite(wnorm):
            history.append(math.nan)
            break
        basis, hcol = blocks[:b] + [blocks[b][: r + 1]], 0.0
        for _ in range(2):
            h = [V @ w for V in basis]
            for V, hb in zip(basis, h):
                w -= hb @ V
            hcol = hcol + np.concatenate(h)
        hcol = hcol.tolist() + [math.sqrt(w @ w)]
        breakdown = hcol[k + 1] <= BREAKDOWN_TOL * wnorm
        if not breakdown:
            if r + 1 == BLOCK_ROWS:
                blocks.append(np.empty((BLOCK_ROWS, n)))
            blocks[-1][(k + 1) % BLOCK_ROWS] = w / hcol[k + 1]

        for i in range(k):
            t = cs[i] * hcol[i] + sn[i] * hcol[i + 1]
            hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1]
            hcol[i] = t
        denom = float(np.hypot(hcol[k], hcol[k + 1]))
        # a rotated diagonal that is zero next to the column's norm adds no
        # direction: the least-squares iterate and residual stay as they were
        singular = denom <= BREAKDOWN_TOL * np.linalg.norm(hcol)
        if not singular:
            c, s = hcol[k] / denom, hcol[k + 1] / denom
            cs.append(c)
            sn.append(s)
            hcol[k] = denom
            Rcols += hcol[: k + 1]
            g.append(-s * g[k])
            g[k] = c * g[k]

        history.append(abs(g[-1]) / bnorm)
        if history[-1] <= tol or breakdown or singular:
            break

    # the least-squares iterate x = y V, with R y = g
    m = len(cs)
    R = np.zeros((m, m))
    R.T[np.tril_indices(m)] = Rcols
    y = solve_triangular(R, g[:m])
    x = np.zeros(n)
    for i, V in zip(range(0, m, BLOCK_ROWS), blocks):
        x += y[i : i + BLOCK_ROWS] @ V[: m - i]
    rel = history[-1]
    return x, GmresReport(len(history), rel, rel <= tol, tuple(history))

"""Matrix-free GMRES for the outer Jacobian systems.

No restarts and a zero initial guess: the iteration count then equals the
number of operator applications, which is the quantity the experiment
harness charges as linear subdomain solves.  The Krylov basis is the rows
of one C-contiguous array, allocated with FIRST_ROWS rows and doubled as
the iteration fills it, so its memory follows the iterations taken, not the
length of the vectors; the Givens rotations are kept as one matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = ["GmresReport", "gmres"]

BREAKDOWN_TOL = 1e-14
FIRST_ROWS = 16


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


def _grown(A, B):
    """B, a larger array, with A copied into its leading corner."""
    B[: len(A), : A.shape[1]] = A
    return B


def gmres(action, rhs, tol=1e-8, max_iter=None):
    """Solve action(x) = rhs by full GMRES from the zero initial guess.

    `action` must be a linear map on vectors of the same length as rhs,
    which must be finite.
    Step k orthogonalizes the action's output against the basis V[:k+1] by
    two-pass classical Gram-Schmidt (CGS2, orthogonal to working precision:
    h = V w, w -= h V, twice).  The accumulated rotation matrix P, the
    product of all earlier Givens rotations, turns the new Hessenberg column
    into a column of the triangular factor R in one product; the new
    rotation then updates two rows of P, and |P[m, 0]| after m rotations is
    the relative least-squares residual, compared against tol.  A step
    breaks down when its new direction is at most BREAKDOWN_TOL times the
    norm of the action's output, whatever the operator's scale.
    Returns (solution, GmresReport); when max_iter is hit, or a step adds
    no direction because the operator is singular on the Krylov space, the
    last least-squares iterate is returned with converged=False.  An action
    output that is not finite, or whose norm overflows, ends the solve so
    too, with a nan residual; an rhs whose norm overflows raises ValueError.
    """
    if not 0 < tol < np.inf:  # nan fails too
        raise ValueError("tol must be positive and finite")
    rhs = np.asarray(rhs, dtype=float)
    if not np.isfinite(rhs).all():
        raise ValueError("rhs must be finite")
    n = len(rhs)
    if max_iter is None:
        max_iter = n
    elif not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError("max_iter must be an integer of at least 1")
    with np.errstate(over="ignore"):  # an overflow reads inf, tested below
        bnorm = math.sqrt(rhs @ rhs)
    if not math.isfinite(bnorm):
        raise ValueError("rhs norm overflows")
    if bnorm == 0.0:
        return np.zeros(n), GmresReport(0, 0.0, True, ())

    cap = min(max_iter + 1, FIRST_ROWS)
    V = np.empty((cap, n))      # basis vector k is row k
    V[0] = rhs / bnorm
    P = np.eye(cap)             # leading m + 1 rows: the rotations, multiplied
    R = np.zeros((cap, cap))    # R transposed: row k is R's column k
    m, history = 0, []          # m rotations, the order of R
    for k in range(max_iter):
        if k + 1 == cap:        # this step may write basis vector k + 1
            cap = min(2 * cap, max_iter + 1)
            V = _grown(V, np.empty((cap, n)))  # rows past k: written before read
            P, R = _grown(P, np.zeros((cap, cap))), _grown(R, np.zeros((cap, cap)))
        w = np.array(action(V[k]), dtype=float)  # our copy, updated in place
        with np.errstate(over="ignore"):
            wnorm = math.sqrt(w @ w)
        if not math.isfinite(wnorm):
            history.append(math.nan)
            break
        Vk = V[: k + 1]
        h = Vk @ w
        w -= h @ Vk
        h2 = Vk @ w
        w -= h2 @ Vk
        h += h2
        hnext = math.sqrt(w @ w)
        breakdown = hnext <= BREAKDOWN_TOL * wnorm
        if not breakdown:
            np.divide(w, hnext, out=V[k + 1])
        r = P[: k + 1, : k + 1] @ h
        denom = math.hypot(r[k], hnext)
        # a rotated diagonal that is zero next to the column's norm, wnorm
        # (w = h V + hnext v), adds no direction: the least-squares iterate
        # and residual stay as they were
        singular = denom <= BREAKDOWN_TOL * wnorm
        if not singular:
            c, s = r[k] / denom, hnext / denom
            P[k + 1, : k + 1] = -s * P[k, : k + 1]
            P[k, : k + 1] *= c
            P[k, k + 1], P[k + 1, k + 1] = s, c
            R[k, :k], R[k, k] = r[:k], denom
            m += 1

        history.append(float(abs(P[m, 0])))
        if history[-1] <= tol or breakdown or singular:
            break

    # the least-squares iterate x = y V, with R y = ||rhs|| P[:m, 0]
    y = solve_triangular(R[:m, :m], bnorm * P[:m, 0], trans="T", lower=True)
    rel = history[-1]
    return y @ V[:m], GmresReport(len(history), rel, rel <= tol, tuple(history))

"""Shared dense/brute-force reference implementations used by the tests.

Everything here favors directness over speed: dense matrices, explicit
loops, and definitions transcribed literally, so the library code can be
checked against an independent path.
"""

from dataclasses import dataclass, field

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
    on the first failed check; a non-finite start residual fails too.
    kernels defaults to the problem's row kernels on the subdomain alone
    (block_kernels).
    """
    residual, jacobian = kernels or block_kernels(problem, [pos])
    i, m, kl, ku = pos.subdomain, pos.size, pos.kl, pos.ku
    u = np.asarray(u, dtype=float)
    x = u[pos.cells]
    iterations = 0
    r = residual(x)
    rnorm = np.linalg.norm(r)
    while True:
        if not np.isfinite(rnorm):
            raise LocalSolveError(
                f"subdomain {i}: inner Newton produced a non-finite residual"
            )
        if rnorm <= settings.inner_tol:
            break
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
    solved = x[:m].copy()
    return solved - u[pos.overlap], solved, iterations


# ------------------------------------- block positions, one block at a time


@dataclass(frozen=True, eq=False)
class BlockPositions:
    """Subdomain i's blocks in the problem's Jacobian pattern.

    overlap lists the subdomain's m cells; cells lists them followed by
    their halo, the cells outside the overlap that their rows couple to.
    In a global Jacobian R_i J's entries are J.data[rows], at column
    indices columns, row by row, row r from row_indptr[r].  A_ii = R_i J P_i
    has lower and upper bandwidths kl and ku in the overlap's cell order;
    its entries, R_i J's data at block, go to the flat indices slots of a
    C-order (m, 2*kl+ku+1) array, whose transpose is LAPACK's band storage
    (A_ii[r, c] at row kl+ku+r-c of column c).
    """

    subdomain: int
    overlap: np.ndarray = field(repr=False)
    cells: np.ndarray = field(repr=False)
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

    @property
    def halo(self):
        return self.cells[self.size:]


def per_block_positions(problem, layout):
    """Every subdomain's BlockPositions, built one subdomain after another."""
    J = problem.jacobian(problem.initial_state())
    return [subdomain_positions(J, i, sub.overlap)
            for i, sub in enumerate(layout.subdomains)]


def subdomain_positions(J, i, ov):
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
    return BlockPositions(i, ov, cells, rows, columns, row_indptr, inside, slots,
                          kl, ku)


def local_entries(local, columns):
    """Where each of columns sits in the cell list local, which holds them all."""
    order = np.argsort(local, kind="stable")
    at = order[np.searchsorted(local, columns, sorter=order)]
    assert np.array_equal(local[at], columns), "a column is not a local cell"
    return at


def block_kernels(problem, positions):
    """The problem's row kernels on a sequence of BlockPositions, stacked.

    Their local vector X concatenates each block's values at its cells, in
    the sequence's order, and an entry's column sits in X at its place in
    its block's cells.
    """
    starts = np.cumsum([0] + [len(pos.cells) for pos in positions])
    entries = [local_entries(pos.cells, pos.columns) + start
               for pos, start in zip(positions, starts)]
    return problem.row_kernels(np.concatenate([pos.overlap for pos in positions]),
                               np.concatenate(entries))


def stacked_positions(positions):
    """The stacked arrays of a sequence of BlockPositions, in its order.

    Each block's band slots move to its rows' offset in the stack and to
    the stack's bandwidths, the largest of the blocks'.  Returns a dict of
    the PositionStack fields it sets: the index arrays, kl and ku.
    """
    sizes = np.array([pos.size for pos in positions])
    widths = np.array([len(pos.cells) for pos in positions])
    counts = np.array([len(pos.columns) for pos in positions])
    kls = np.array([pos.kl for pos in positions])
    kus = np.array([pos.ku for pos in positions])
    kl, ku = int(kls.max()), int(kus.max())
    block_starts = np.cumsum(sizes) - sizes
    first_entry = np.cumsum(counts) - counts
    held = np.array([len(pos.slots) for pos in positions])
    entry_block = np.repeat(np.arange(len(positions)), held)
    col, band_row = np.divmod(np.concatenate([pos.slots for pos in positions]),
                              (2 * kls + kus + 1)[entry_block])
    width = 2 * kl + ku + 1
    return dict(
        cells=np.concatenate([pos.cells for pos in positions]),
        overlap=(np.arange(sizes.sum())
                 + np.repeat(np.cumsum(widths) - widths - block_starts, sizes)),
        sizes=sizes,
        block_starts=block_starts,
        columns=np.concatenate([pos.columns for pos in positions]),
        indptr=np.append(
            np.concatenate([pos.row_indptr[:-1] for pos in positions])
            + np.repeat(first_entry, sizes), counts.sum()
        ).astype(positions[0].columns.dtype),
        block=(np.concatenate([pos.block for pos in positions])
               + first_entry[entry_block]),
        held=held,
        slots=((col + block_starts[entry_block]) * width + band_row
               + (kl + ku - kls - kus)[entry_block]),
        kl=kl,
        ku=ku,
    )

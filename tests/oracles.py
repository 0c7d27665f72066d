"""Shared dense/brute-force reference implementations used by the tests.

Everything here favors directness over speed: dense matrices, explicit
loops, and definitions transcribed literally, so the library code can be
checked against an independent path.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack, solve_triangular

import raspen.local_solver as local_solver
from raspen.krylov import BREAKDOWN_TOL, FIRST_ROWS, GmresReport
from raspen.local_solver import (LocalSolveError, LocalSolveResult, SolveError,
                                 SolverSettings)
from raspen.newton import IterationLedger, RunResult


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
    ov = layout_blocks(layout)[i].overlap
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


def default_order_newton(problem, u0, settings=None, u_ref=None):
    """direct_newton with SuperLU's default COLAMD order at every step.

    The direct Newton that chose no order of its own: each step factors
    J(u) afresh, splu(J.tocsc()).solve(-r).  Same stopping rules, ledger,
    reasons and singular-Jacobian failure; u_ref is taken and ignored (its
    rows' errors are nan).
    """
    return _newton_oracle(problem, u0, settings,
                          lambda J, rhs: spla.splu(J.tocsc()).solve(rhs))


def tridiagonal_newton(problem, u0, settings=None, u_ref=None):
    """default_order_newton with one dgtsv call per step on J's diagonals.

    The diagonals are read from each J by J.diagonal(k); a zero pivot
    fails as direct_newton's does.  For tridiagonal J of at least 2 rows.
    """
    def solve(J, rhs):
        *_, x, info = lapack.dgtsv(J.diagonal(-1), J.diagonal(), J.diagonal(1), rhs)
        if info:
            raise RuntimeError(f"dgtsv: pivot {info} is exactly zero")
        return x

    return _newton_oracle(problem, u0, settings, solve)


def ordered_newton(problem, u0, settings=None, u_ref=None):
    """default_order_newton with SuperLU's steps in one order per run.

    The first step factors J(u) in the column order of minimum degree on
    A^T + A and keeps q = argsort(perm_c); every later step factors
    J[q][:, q] with no order of its own (NATURAL) and solves for step[q].
    """
    order = []

    def solve(J, rhs):
        if not order:
            lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
            order.append(np.argsort(lu.perm_c))
            return lu.solve(rhs)
        q, step = order[0], np.empty_like(rhs)
        step[q] = spla.splu(J[q][:, q].tocsc(), permc_spec="NATURAL").solve(rhs[q])
        return step

    return _newton_oracle(problem, u0, settings, solve)


def _newton_oracle(problem, u0, settings, solve):
    """Direct Newton's loop, each step solve(J(u), -r) (RuntimeError: singular)."""
    settings = settings or SolverSettings()
    u = np.asarray(u0, dtype=float).copy()
    ledger = IterationLedger()
    for updates in range(settings.max_outer + 1):
        r = problem.residual(u)
        rnorm = np.linalg.norm(r)
        converged = rnorm <= settings.outer_tol
        diverged = not np.isfinite(rnorm) or rnorm > 1e12
        if converged or diverged or updates == settings.max_outer:
            # the iterate after the last allowed step is tested too
            ledger.record(0, np.nan, rnorm)
            reason = ("" if converged else "diverged" if diverged else
                      f"no convergence in {settings.max_outer} Newton steps")
            return RunResult(u, ledger, converged, updates, reason)
        try:
            step = solve(problem.jacobian(u), -r)
        except RuntimeError as exc:
            failure = SolveError(f"singular Jacobian ({exc})")
            return RunResult(u, ledger, False, updates,
                             f"Newton step {updates}: {failure}", failure=failure)
        ledger.record(1, np.nan, rnorm)
        u = u + step


def schwarz_preconditioners(A, layout):
    """Dense one-level Schwarz operators for an affine system.

    Returns (M_ras, M_as): sum_i Ptilde_i A_i^{-1} R_i and
    sum_i P_i A_i^{-1} R_i built explicitly from dense blocks.
    """
    n = A.shape[0]
    M_ras = np.zeros((n, n))
    M_as = np.zeros((n, n))
    for sub in layout_blocks(layout):
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


def band_step(band, kl, ku, r, tridiagonal):
    """(A^{-1} r, LAPACK's info) for A held in band, None for a singular A.

    band is a C-order (m, 2*kl+ku+1) array whose transpose is LAPACK's band
    storage (A[r, c] at [c, kl+ku+r-c]).  With tridiagonal (kl, ku <= 1)
    one dgtsv call solves A's three diagonals, read from band; otherwise
    dgbtrf factors band and dgbtrs solves.
    """
    if not tridiagonal:
        lu, ipiv, info = lapack.dgbtrf(band.T, kl, ku)
        return (None if info else lapack.dgbtrs(lu, kl, ku, r, ipiv)[0]), info
    assert kl <= 1 and ku <= 1
    m, mid = len(r), kl + ku
    lower = band[:-1, mid + 1] if kl else np.zeros(m - 1)  # A[c + 1, c]
    upper = band[1:, mid - 1] if ku else np.zeros(m - 1)   # A[c - 1, c]
    if m == 1:  # f2py takes no empty diagonal
        lower = upper = np.zeros(1)
    *_, x, info = lapack.dgtsv(lower, band[:, mid], upper, r)
    return (None if info else x), info


def sequential_local_solve(problem, pos, u, settings, kernels=None, tridiagonal=None):
    """One subdomain's inner Newton, alone: (correction, solved, iterations).

    The per-subdomain loop that solved the subdomains one after another
    before they took their steps together: full Newton steps on the
    subdomain's local vector, each solved alone by band_step, raising
    LocalSolveError on the first failed check, with solve_local's message;
    a non-finite start residual, or one whose norm overflows, fails too.
    kernels, a (residual, jacobian) pair of functions of the local vector,
    defaults to the problem's row kernels on the subdomain alone
    (block_kernels).  tridiagonal, whether the block's stack solves with
    dgtsv, defaults to the block's own bandwidths being at most 1.
    """
    own = block_kernels(problem, [pos])
    residual, jacobian = kernels or (own.residual, own.jacobian)
    i, m, kl, ku = pos.subdomain, pos.size, pos.kl, pos.ku
    if tridiagonal is None:
        tridiagonal = kl <= 1 and ku <= 1
    u = np.asarray(u, dtype=float)
    x = block_vector([pos], u)
    iterations = 0
    r = residual(x)
    rnorm = np.linalg.norm(r)
    while True:
        if not np.isfinite(rnorm):
            raise LocalSolveError(f"subdomain {i}: " + (
                "inner Newton's residual is finite, but its norm overflowed"
                if np.isfinite(r).all() else
                "inner Newton produced a non-finite residual"))
        if rnorm <= settings.inner_tol:
            break
        if iterations >= settings.max_inner:
            raise LocalSolveError(
                f"subdomain {i}: inner Newton did not reach {settings.inner_tol} "
                f"within {settings.max_inner} iterations (residual {rnorm:.3e})"
            )
        band = np.zeros((m, 2 * kl + ku + 1))
        band.flat[pos.slots] = jacobian(x)[pos.block]
        step, info = band_step(band, kl, ku, r, tridiagonal)
        if info > 0:
            raise LocalSolveError(f"subdomain {i}: singular local Jacobian")
        x[:m] -= step
        iterations += 1
        r = residual(x)
        rnorm = np.linalg.norm(r)
    solved = x[:m].copy()
    return solved - u[pos.overlap], solved, iterations


def masked_band(stack, entries, active):
    """diag(A_ii) in band_step's storage, with every block not active the identity.

    The band is filled through the .flat iterator, an inactive block's
    entries zeroed one by one by np.where and its diagonal set to 1.0.
    """
    width = 2 * stack.kl + stack.ku + 1
    band = np.zeros((stack.size, width))
    held = np.repeat(active, stack.sizes)[stack.slots // width]
    band.flat[stack.slots] = np.where(held, entries[stack.block], 0.0)
    frozen = np.flatnonzero(~np.repeat(active, stack.sizes))
    band.flat[frozen * width + stack.kl + stack.ku] = 1.0
    return band


def two_call_solve_local(positions, u, settings):
    """A sweep as solve_local took it with one kernel call per output.

    The stacked inner loop that preceded the shared face pass: every
    iterate calls the residual kernel, and every step the Jacobian kernel
    too, each with its own face pass; bands are masked_band's, every
    right-hand side is masked, and band_step solves them, by dgtsv on a
    stack whose bandwidths are at most 1.  Returns solve_local's result, or
    raises its LocalSolveError; a residual norm that overflows counts as a
    non-finite residual.
    """
    kernels, stack = positions.kernels, positions
    X, size = positions.gather(u), positions.size
    start = X[:size].copy()
    tol, budget = settings.inner_tol, settings.max_inner
    trail, failures, steps = [], {}, 0
    counts = np.zeros(len(stack.sizes), dtype=int)
    active = np.ones(len(stack.sizes), dtype=bool)
    tridiagonal = stack.kl <= 1 and stack.ku <= 1

    def solve(active, r):
        band = masked_band(stack, entries, active)
        moving = np.repeat(active, stack.sizes)
        return band_step(band, stack.kl, stack.ku, np.where(moving, r, 0.0),
                         tridiagonal)

    while True:
        r = kernels.residual(X)
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.add.reduceat(r * r, stack.block_starts))
        trail.append(norms)
        finite = np.isfinite(norms)
        for b in np.flatnonzero(active & ~finite):
            failures[b] = "inner Newton produced a non-finite residual"
        active &= finite & (norms > tol)
        if not active.any():
            break
        if steps == budget:
            for b in np.flatnonzero(active):
                failures[b] = (f"inner Newton did not reach {tol} within {budget} "
                               f"iterations (residual {norms[b]:.3e})")
            break
        entries = kernels.jacobian(X)
        while True:
            step, info = solve(active, r)
            if info == 0:
                break
            b = stack.block_of(info - 1)
            failures[b] = "singular local Jacobian"
            active[b] = False
        moving = np.repeat(active, stack.sizes)
        if not np.isfinite(step).all():
            step[~moving] = 0.0
            finite = np.logical_and.reduceat(np.isfinite(step), stack.block_starts)
            for b in np.flatnonzero(~finite):
                alone = np.arange(len(active)) == b
                rows = np.repeat(alone, stack.sizes)
                step[rows] = solve(alone, r)[0][rows]
        if not active.any():
            break
        X[:size] -= step
        steps += 1
        counts[active] = steps
    if failures:
        b = int(min(failures))
        raise LocalSolveError(f"subdomain {b}: {failures[b]}", subdomain=b,
                              residuals=[float(n[b]) for n in trail[:counts[b] + 1]])
    X.flags.writeable = False
    return LocalSolveResult(positions, X, X[:size] - start, tuple(counts.tolist()),
                            int(counts.sum()))


# ------------------------------------------ a layout, one subdomain at a time


@dataclass(frozen=True, eq=False)
class Block:
    """Subdomain i's index sets, read off a layout's stacked arrays.

    overlap is cells[start_i : start_i + sizes[i]], start_i the sum of the
    earlier sizes; owned_local are the owned_slots in that range, less
    start_i, and owned is overlap[owned_local].
    """

    owned: np.ndarray
    overlap: np.ndarray
    owned_local: np.ndarray


def layout_blocks(layout):
    """Every subdomain's Block, in subdomain order."""
    ends = np.cumsum(layout.sizes)
    starts, slots = ends - layout.sizes, layout.owned_slots
    assert ends[-1] == len(layout.cells) and (np.diff(slots) > 0).all()
    parts = np.split(slots, np.searchsorted(slots, ends[:-1]))
    return [Block(layout.cells[s], layout.cells[a:b], s - a)
            for a, b, s in zip(starts, ends, parts)]


def loop_glue(lay, x, restricted):
    """sum_i P~_i x_i or sum_i P_i x_i one subdomain at a time, each P_i x_i
    a zeroed length-M vector: the per-subdomain gluing the stacked operators
    replace, kept as their oracle."""
    acc = np.zeros(lay.n_cells)
    start = 0
    for sub in layout_blocks(lay):
        x_i = x[start:start + len(sub.overlap)]
        start += len(sub.overlap)
        out = np.zeros(lay.n_cells)
        if restricted:
            out[sub.owned] = x_i[sub.owned_local]
        else:
            out[sub.overlap] = x_i
        acc += out
    return acc


# ------------------------------------- block positions, one block at a time


@dataclass(frozen=True, eq=False)
class BlockPositions:
    """Subdomain i's blocks in the problem's Jacobian pattern.

    overlap lists the subdomain's m cells.  In a global Jacobian R_i J's
    entries are J.data[rows], at column indices columns, row by row, row r
    from row_indptr[r].  The subdomain's local vector is x = (u[overlap], u),
    and entries gives where each entry's column sits in it: at its row of
    the overlap when the overlap holds it, else at m + column.  A_ii =
    R_i J P_i has lower and upper bandwidths kl and ku in the overlap's cell
    order; its entries, R_i J's data at block, go to the flat indices slots
    of a C-order (m, 2*kl+ku+1) array, whose transpose is LAPACK's band
    storage (A_ii[r, c] at row kl+ku+r-c of column c).
    """

    subdomain: int
    overlap: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    row_indptr: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)
    kl: int
    ku: int

    @property
    def size(self):
        """The number m of overlap cells: A_ii is m x m, R_i J is m x n."""
        return len(self.overlap)


def per_block_positions(problem, layout):
    """Every subdomain's BlockPositions, built one subdomain after another."""
    J = problem.jacobian(problem.initial_state())
    return [subdomain_positions(J, i, sub.overlap)
            for i, sub in enumerate(layout_blocks(layout))]


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
    entries = np.where(col >= 0, col, m + columns)
    inside = np.flatnonzero(col >= 0)
    col = col[inside]
    offset = np.repeat(np.arange(m), counts)[inside] - col
    kl, ku = int(offset.max(initial=0)), int((-offset).max(initial=0))
    slots = col * (2 * kl + ku + 1) + kl + ku + offset
    return BlockPositions(i, ov, rows, columns, row_indptr, entries, inside, slots,
                          kl, ku)


def local_entries(local, columns):
    """Where each of columns sits in the cell list local, which holds them all."""
    order = np.argsort(local, kind="stable")
    at = order[np.searchsorted(local, columns, sorter=order)]
    assert np.array_equal(local[at], columns), "a column is not a local cell"
    return at


def block_vector(positions, u):
    """The local vector of a sequence of BlockPositions at the state u.

    It concatenates each block's overlap values, in the sequence's order,
    and then u itself, the frozen exterior.
    """
    return np.concatenate([u[pos.overlap] for pos in positions] + [u])


def block_kernels(problem, positions):
    """The problem's row kernels on a sequence of BlockPositions, stacked.

    Their local vector is block_vector(positions, u): an entry whose column
    lies in its block's overlap sits at its row there, every other entry
    at the overlaps' total size plus its column.
    """
    sizes = [pos.size for pos in positions]
    starts, size = np.cumsum([0] + sizes), sum(sizes)
    entries = [np.where(pos.entries < pos.size, pos.entries + start,
                        pos.entries - pos.size + size)
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
        sizes=sizes,
        block_starts=block_starts,
        columns=np.concatenate([pos.columns for pos in positions]),
        indptr=np.append(
            np.concatenate([pos.row_indptr[:-1] for pos in positions])
            + np.repeat(first_entry, sizes), counts.sum()
        ).astype(positions[0].columns.dtype),
        block=(np.concatenate([pos.block for pos in positions])
               + first_entry[entry_block]),
        slots=((col + block_starts[entry_block]) * width + band_row
               + (kl + ku - kls - kus)[entry_block]),
        kl=kl,
        ku=ku,
    )


def per_block_action(positions, entries, v, halo=False):
    """Each block's -A_ii^{-1} R_i J v, solved alone, concatenated.

    entries[b] are block b's R_i J entries.  By default each block
    back-substitutes R_i J v with its own band LU.  With halo (tridiagonal
    blocks only), each block instead solves for its halo response
    Z_i = A_ii^{-1} B_i by one dgtsv call (band_step), one right-hand side
    per halo cell (the sorted columns of R_i J outside the overlap, B_i
    those columns of R_i J; none without a halo), and applies the solved
    rows A_ii^{-1} R_i J = [I Z_i], each row's own cell and halo cells in
    column order, by one CSR product.
    """
    out = []
    for pos, rows in zip(positions, entries, strict=True):
        m = pos.size
        band = np.zeros((m, 2 * pos.kl + pos.ku + 1))
        band.flat[pos.slots] = rows[pos.block]
        R = sp.csr_matrix((rows, pos.columns, pos.row_indptr), shape=(m, len(v)))
        if not halo:
            lu, piv, info = lapack.dgbtrf(band.T, pos.kl, pos.ku, overwrite_ab=True)
            assert info == 0
            out.append(-lapack.dgbtrs(lu, pos.kl, pos.ku, R @ v, piv)[0])
            continue
        cells = np.setdiff1d(pos.columns, pos.overlap)
        Z = np.zeros((m, 0))  # dgtsv takes no empty right-hand side
        if len(cells):
            Z, info = band_step(band, pos.kl, pos.ku, R[:, cells].toarray(), True)
            assert info == 0
        columns = np.column_stack((pos.overlap, np.tile(cells, (m, 1))))
        values = np.column_stack((np.ones(m), Z))
        order = np.argsort(columns, axis=1)
        solved = sp.csr_matrix(
            (np.take_along_axis(values, order, 1).ravel(),
             np.take_along_axis(columns, order, 1).ravel(),
             np.arange(m + 1) * (len(cells) + 1)), shape=(m, len(v)))
        out.append(-(solved @ v))
    return np.concatenate(out)


def recorded_calls(monkeypatch, names):
    """Record each call local_solver makes to the named routines, in order.

    Every name (a LAPACK routine such as dgtsv, dgbtrf, dgbtrs or dtbsv)
    is replaced in local_solver, through monkeypatch, by a wrapper that
    appends (name, args) to the returned list, array arguments copied as
    they were passed, and then calls the routine.
    """
    calls = []
    for name in names:
        def record(*args, routine=getattr(local_solver, name), name=name, **kwargs):
            calls.append((name, tuple(np.copy(a) if isinstance(a, np.ndarray) else a
                                      for a in args)))
            return routine(*args, **kwargs)
        monkeypatch.setattr(local_solver, name, record)
    return calls


def call_counts(calls, names):
    """{name: the number of recorded calls to it} for each of names."""
    return {name: sum(called == name for called, _ in calls) for name in names}


def zero_pivot(name, column):
    """local_solver's dgtsv or dgbtrf after zeroing column column of its A.

    Nothing else then reaches that column, so its pivot is exactly zero
    and LAPACK's info is column + 1.  dgtsv's column is d[column] with
    dl[column] below and du[column - 1] above it (0 < column < n - 1);
    band storage keeps A[:, column] in column column of ab.
    """
    routine = getattr(local_solver, name)

    def zeroed(*args, **kwargs):
        if name == "dgtsv":
            dl, d, du = args[:3]
            assert 0 < column < len(d) - 1
            d[column] = dl[column] = du[column - 1] = 0.0
        else:
            args[0][:, column] = 0.0
        return routine(*args, **kwargs)

    return zeroed


# ------------------------------------------- problems with a changed pattern


class Kernels:
    """Row kernels with some of their pieces replaced.

    faces, residual_of and values_of are the given functions and take the
    given gather, else the wrapped kernels' own; residual(X), jacobian_of
    (values_of(faces)[take]) and jacobian(X) compose them as the problems'
    kernels do.  A stack reads the values by its diagonals and outside,
    built on its own kernels' take, so kernels given to a stack by
    dataclasses.replace must lay their values out as its own do.
    """

    def __init__(self, kernels, **pieces):
        for name in ("faces", "residual_of", "values_of", "take"):
            setattr(self, name, pieces.pop(name, getattr(kernels, name)))
        assert not pieces, pieces

    def residual(self, X):
        return self.residual_of(self.faces(X))

    def jacobian(self, X):
        return self.jacobian_of(self.faces(X))

    def jacobian_of(self, faces):
        return self.values_of(faces)[self.take]


class Repatterned:
    """A problem whose pattern and Jacobians are passed through change.

    Its all-rows kernels pass through change too: their values are the
    data of change(J), J the CSR matrix of the wrapped kernels' values on
    the wrapped pattern, and change is called once per derivation.
    """

    def __init__(self, problem, change):
        self.problem, self.change = problem, change
        self.dof_count = problem.dof_count
        self.pattern = change(problem.pattern)

    def residual(self, u):
        return self.problem.residual(u)

    def jacobian(self, u):
        return self.change(self.problem.jacobian(u))

    @cached_property
    def _all_rows(self):
        kernels, theirs = self.problem._all_rows, self.problem.pattern

        def values_of(faces):
            J = sp.csr_matrix((kernels.jacobian_of(faces), theirs.indices,
                               theirs.indptr), shape=theirs.shape)
            return np.append(self.change(J).data, 0.0)

        return Kernels(kernels, values_of=values_of, take=np.arange(self.pattern.nnz))

    def row_kernels(self, rows, entries):
        # the wrapped problem's kernels take the entries of its own pattern;
        # the entries it lacks read the values' trailing 0.0
        extra = self._extra(rows)
        kernels = self.problem.row_kernels(rows, entries[~extra])
        take = np.full(len(extra), -1)
        take[~extra] = kernels.take
        return Kernels(kernels, take=take)

    def _extra(self, rows):
        """Which entries of the rows' pattern the wrapped problem's lacks."""
        ours, theirs = self.pattern, self.problem.pattern
        return np.concatenate([~np.isin(ours[r].indices, theirs[r].indices)
                               for r in rows])

    def initial_state(self):
        return self.problem.initial_state()


def with_entry_above(J):
    # couples cells 3 and 8, the ends of subdomain 1's overlap in
    # build_1d_layout(12, 3, 1)
    extra = J.tolil()
    extra[3, 8] = 0.5
    return extra.tocsr()


class WideBand(Repatterned):
    """with_entry_above's pattern, with row kernels that hold its extra entry.

    Entry (3, 8) is 0.5 in every Jacobian, row kernels included, so the
    inner Newton of subdomain 1 of build_1d_layout(12, 3, 1) runs on a band
    whose upper bandwidth spans the whole block.
    """

    def __init__(self, problem):
        super().__init__(problem, with_entry_above)

    def row_kernels(self, rows, entries):
        kernels = super().row_kernels(rows, entries)
        # the extra entry reads a 0.5 put in front of the values
        take = np.where(self._extra(rows), 0, kernels.take + 1)

        def values_of(faces):
            return np.append(0.5, kernels.values_of(faces))

        return Kernels(kernels, values_of=values_of, take=take)


class ShrunkDiagonal(Repatterned):
    """A problem whose Jacobian entry (cell, cell) is scaled by factor.

    The row kernels scale it too, in every stacked copy of the cell's row;
    the residual is the wrapped problem's.  With the cell first in its
    block and factor small, its column's pivot is smaller than the entries
    below it, so the block's band LU swaps rows.
    """

    def __init__(self, problem, cell, factor=1e-3):
        self.cell, self.factor = cell, factor
        super().__init__(problem, self._shrink)

    def _shrink(self, J):
        J = J.tocsr(copy=True)
        J[self.cell, self.cell] *= self.factor
        return J

    def row_kernels(self, rows, entries):
        kernels = super().row_kernels(rows, entries)
        diagonal = np.concatenate([(self.pattern[r].indices == self.cell)
                                   & (r == self.cell) for r in rows])
        # each copy of the entry reads a value of its own, which no other
        # entry reads
        scaled = kernels.take[diagonal]
        assert not np.isin(kernels.take[~diagonal], scaled).any()

        def values_of(faces):
            out = kernels.values_of(faces)
            out[scaled] = self.factor * out[scaled]
            return out

        return Kernels(kernels, values_of=values_of)


# --------------------------------------- GMRES on 16-row basis blocks


BLOCK_ROWS = 16


def blocked_gmres(action, rhs, tol=1e-8, max_iter=None):
    """Full GMRES as `raspen.krylov.gmres` computes it, step by step.

    The solver that preceded the contiguous basis: CGS2 over a list of
    BLOCK_ROWS-row basis blocks, allocated one at a time, and each new
    Hessenberg column rotated by the earlier Givens rotations one after
    another in a Python loop.  Same breakdown, singular and non-finite
    rules; returns (solution, GmresReport).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    max_iter = n if max_iter is None else max_iter
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
        w = np.array(action(blocks[b][r]), dtype=float)
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

    m = len(cs)
    R = np.zeros((m, m))
    R.T[np.tril_indices(m)] = Rcols
    y = solve_triangular(R, g[:m])
    x = np.zeros(n)
    for i, V in zip(range(0, m, BLOCK_ROWS), blocks):
        x += y[i : i + BLOCK_ROWS] @ V[: m - i]
    rel = history[-1]
    return x, GmresReport(len(history), rel, rel <= tol, tuple(history))


def _grown(A, B):
    """B, a larger array, with A copied into its leading corner."""
    B[: len(A), : A.shape[1]] = A
    return B


def cgs2_gmres(action, rhs, tol=1e-8, max_iter=None):
    """krylov.gmres's CGS2 arithmetic, written out with numpy throughout.

    Each step copies the action's output, takes its norms by matmul under
    np.errstate and keeps the Givens scalars and history entries as numpy
    floats.  Returns (solution, GmresReport), which krylov.gmres must
    match in every byte.
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

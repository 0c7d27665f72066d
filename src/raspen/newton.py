"""Outer Newton driver, plain fixed-point driver and direct Newton.

Iteration accounting follows the parallel-cost convention of the solver
comparison, applied by IterationLedger alone.  One row per residual
evaluation keeps each subdomain's inner Newton count (inner_counts), the
coarse count (coarse_count, 0 for one-level rows) and ls_G, the GMRES
iterations of that row's Jacobian solve (0 for the terminal evaluation
that confirms convergence).  ls_in, derived, is the largest inner count
with the coarse count folded in by the max (the coarse solve sits on the
critical path like the slowest subdomain), ls_min the smallest subdomain
count, and LS_n = sum_{j<=n} (ls_in[j] + ls_G[j]).  A row also keeps its
GMRES residual history (IterationLedger).

The two drivers of a PreconditionedSystem (outer_newton and
fixed_point_solve) run by the system's own settings and return every way
a run ends as a RunResult: a subdomain or coarse solve failure ends it
with that SolveError as its failure, never raised.  All three drivers
reject a start with a non-finite entry (ValueError).

Errors in the ledger are relative l1 distances to a reference iterate,
which callers usually obtain from reference_solution(): flux integration
in 1D, tight-tolerance direct Newton otherwise.

Direct Newton follows local_solver's solver rule, read once per run from
the problem's pattern: on a tridiagonal one (every 1D problem) one LAPACK
dgtsv call factors and solves each step; any wider pattern is factored by
SuperLU in the column order of minimum degree on A^T + A, the order
SuperLU recommends for structurally symmetric matrices.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .krylov import gmres
from .local_solver import SolveError, SolverSettings, tridiagonal_index, tridiagonal_solve

__all__ = [
    "IterationLedger",
    "RunResult",
    "outer_newton",
    "fixed_point_solve",
    "direct_newton",
    "reference_solution",
    "relative_l1_error",
]

DIVERGENCE_ERROR = 1e6
# the residual tolerance of reference_solution's direct Newton
REFERENCE_TOL = 1e-12
# outer_newton's largest ||F(u)|| / ||F(u0)|| at a zero it reports converged
SPURIOUS_RTOL = 1e-4


def relative_l1_error(u, u_ref):
    """||u - u_ref||_1 / ||u_ref||_1 (plain l1 norm for a zero reference)."""
    scale = np.linalg.norm(u_ref, 1)
    err = np.linalg.norm(np.asarray(u) - u_ref, 1)
    return err / scale if scale > 0 else err


@dataclass
class IterationLedger:
    """Per-evaluation iteration records; LS is the running solve total.

    gmres_history holds one tuple per row: the relative residuals of the
    row's GMRES solve, one per GMRES iteration (empty for a row without
    one: the terminal row, fixed-point rows and direct Newton's).  The
    counts come from the row's Evaluation: inner_counts holds one tuple of
    per-subdomain counts per row, coarse_count the coarse count; direct
    Newton's rows have none, so their ls_in and ls_min are 0.
    """

    ls_G: list = field(default_factory=list)
    error: list = field(default_factory=list)
    residual_norm: list = field(default_factory=list)
    gmres_history: list = field(default_factory=list)
    inner_counts: list = field(default_factory=list)
    coarse_count: list = field(default_factory=list)

    def record(self, ls_G, error, residual_norm, gmres_history=(), evaluation=None):
        ev = evaluation
        self.ls_G.append(int(ls_G))
        self.inner_counts.append(tuple(ev.locals_.inner_counts) if ev else ())
        self.coarse_count.append(int(ev.coarse_count) if ev else 0)
        self.error.append(float(error))
        self.residual_norm.append(float(residual_norm))
        self.gmres_history.append(tuple(gmres_history))

    def __len__(self):
        return len(self.ls_G)

    @property
    def ls_in(self):
        """Per row, the critical path: the slowest subdomain or coarse count."""
        return [max((*i, c)) for i, c in zip(self.inner_counts, self.coarse_count)]

    @property
    def ls_min(self):
        """Per row, the smallest subdomain count (0 without subdomains)."""
        return [min(inner, default=0) for inner in self.inner_counts]

    @property
    def LS(self):
        """Cumulative linear-solve totals per row."""
        return np.cumsum(np.asarray(self.ls_in) + np.asarray(self.ls_G))

    @property
    def LS_total(self):
        return int(self.LS[-1]) if len(self) else 0


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final iterate plus the ledger of the run that produced it.

    failure is the SolveError that ended the run, None for a run that
    ended otherwise; reason quotes it after the iteration it ended.
    """

    u: np.ndarray = field(repr=False)
    ledger: IterationLedger = field(repr=False)
    converged: bool
    outer_iterations: int
    reason: str = ""
    failure: SolveError = field(default=None, repr=False)


def _error_of(u, u_ref):
    return relative_l1_error(u, u_ref) if u_ref is not None else np.nan


def _start(u0):
    """A float copy of the initial guess u0, or ValueError if one is not finite."""
    u = np.array(u0, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("initial guess contains non-finite entries")
    return u


def _spurious_zero(problem, u, u0, tol):
    """Why a zero u of the preconditioned function fails F(u) = 0, or "".

    u fails when ||F(u)|| > max(SPURIOUS_RTOL ||F(u0)||, 100 tol): a
    two-level function can vanish where F does not.
    """
    with np.errstate(over="ignore"):  # a finite residual's norm can overflow
        norm, start = (np.linalg.norm(problem.residual(v)) for v in (u, u0))
    if norm <= max(SPURIOUS_RTOL * start, 100 * tol):
        return ""
    return (f"spurious zero: ||F(u)|| = {norm:.3e} against "
            f"||F(u0)|| = {start:.3e}")


def outer_newton(system, u0, *, u_ref=None):
    """Newton on the preconditioned function with full steps.

    Tolerances and budgets are system.settings.  Each iteration evaluates
    the residual as an Evaluation (recording its counts), tests
    ||value||_2 against outer_tol, then solves one Jacobian system with
    GMRES, acting with that evaluation, updates u and drops the
    evaluation, so that one set of local blocks is alive at a time.  A u
    that meets outer_tol is converged only if F(u) = 0 too (_spurious_zero,
    which names both global residual norms otherwise).  GMRES
    nonconvergence is noted in the reason string but the step is still
    taken; a subdomain or coarse solve failure, in the residual or in the
    Jacobian actions, ends the run with the error as its failure, quoted
    in reason after the outer iteration it ended, and the ledger and
    update count up to it.
    """
    settings = system.settings
    u = start = _start(u0)
    ledger = IterationLedger()
    reason = ""
    updates = 0
    for _ in range(settings.max_outer):
        try:
            ev = system.residual(u)
            rnorm = np.linalg.norm(ev.value)
            if rnorm <= settings.outer_tol:
                ledger.record(0, _error_of(u, u_ref), rnorm, evaluation=ev)
                spurious = _spurious_zero(system.problem, u, start, settings.outer_tol)
                return RunResult(u, ledger, not spurious, updates, spurious or reason)
            if not np.isfinite(rnorm):
                ledger.record(0, _error_of(u, u_ref), rnorm, evaluation=ev)
                return RunResult(u, ledger, False, updates,
                                 reason or "non-finite residual")
            delta, report = gmres(lambda v: system.jacobian_action(ev, v),
                                  -ev.value, tol=settings.gmres_tol)
        except SolveError as exc:
            return RunResult(u, ledger, False, updates,
                             f"outer iteration {updates}: {exc}", failure=exc)
        ledger.record(report.iterations, _error_of(u, u_ref), rnorm,
                      report.residual_history, ev)
        del ev
        if not report.converged and not reason:
            reason = (f"gmres stalled at outer iteration {updates} "
                      f"(relative residual {report.relative_residual:.3e})")
        u = u + delta
        updates += 1
    return RunResult(u, ledger, False, updates,
                     reason or f"no convergence in {settings.max_outer} outer iterations")


def fixed_point_solve(system, u0, *, max_steps=None, u_ref=None):
    """Run u <- u + F(u) until the error reference is met or budget runs out.

    Tolerances and budgets are system.settings.  Each step records the
    counts of its Evaluation F(u) and drops it before the next step
    evaluates.  Stops when the relative l1 error against u_ref drops to
    outer_tol; stagnation is reported as converged=False, and so is a
    solve failure (module docstring), quoted in reason: a divergent
    iteration typically leaves the basin of the local solves before the
    error passes the DIVERGENCE_ERROR cutoff.  u_ref defaults to
    reference_solution(system.problem); max_steps replaces
    settings.max_fixed_point.
    """
    settings = system.settings if max_steps is None else replace(
        system.settings, max_fixed_point=max_steps)
    max_steps = settings.max_fixed_point
    u = _start(u0)
    if u_ref is None:
        u_ref = reference_solution(system.problem, settings)
    # relative_l1_error's scale, once: x / 1.0 is x, the zero reference's error
    ledger, scale = IterationLedger(), np.linalg.norm(u_ref, 1) or 1.0
    for step in range(1, max_steps + 1):
        try:
            ev = system.residual(u)
        except SolveError as exc:
            return RunResult(u, ledger, False, step - 1,
                             f"solve failed at step {step}: {exc}", failure=exc)
        u = u + ev.value
        err = np.linalg.norm(u - u_ref, 1) / scale  # relative_l1_error(u, u_ref)
        # the stopping test here is the error itself, so it doubles as the
        # residual column (keeps converged => residual_norm[-1] <= tol)
        ledger.record(0, err, err, evaluation=ev)
        del ev
        if err <= settings.outer_tol:
            return RunResult(u, ledger, True, step, "")
        if not np.isfinite(err) or err > DIVERGENCE_ERROR:
            return RunResult(u, ledger, False, step,
                             f"diverged (error {err:.3e} at step {step})")
    return RunResult(u, ledger, False, max_steps,
                     f"error {ledger.error[-1]:.3e} after {max_steps} steps")


def direct_newton(problem, u0, settings=None, u_ref=None):
    """Plain Newton on F(u) = 0 with one sparse direct solve per step.

    Ledger rows carry ls_in = 0 and ls_G = 1 per update (the single
    global solve), so LS_total equals the number of Newton steps.  A
    Jacobian found exactly singular, at any step, ends the run with a
    SolveError as its failure, quoted in reason after the Newton step.

    On a tridiagonal pattern each step is one dgtsv call on J's diagonals.
    Otherwise the first step factors J with SuperLU in the module
    docstring's order and keeps q = argsort(perm_c) and a gather map from
    J's CSR data on problem.pattern to J(q, q) in CSC.  Every later step
    gathers J(q, q), factors it in that order (NATURAL), solves for step[q]
    and scatters back.  The order lives in this call only, and one factor
    is alive at a time.
    """
    settings = settings or SolverSettings()
    u = _start(u0)
    ledger = IterationLedger()
    updates = 0
    pattern, n = problem.pattern, problem.pattern.shape[0]
    row = np.repeat(np.arange(n), np.diff(pattern.indptr))
    diagonals = tridiagonal_index(row, pattern.indices, np.arange(pattern.nnz),
                                  pattern.nnz, n)  # None beyond bandwidth 1
    ordered = None  # from the first step: q and J(q, q)'s CSC layout and gather
    for _ in range(settings.max_outer):
        r = problem.residual(u)
        with np.errstate(over="ignore"):  # a finite r's norm can overflow: diverged
            rnorm = np.linalg.norm(r)
        if rnorm <= settings.outer_tol:
            ledger.record(0, _error_of(u, u_ref), rnorm)
            return RunResult(u, ledger, True, updates, "")
        if not np.isfinite(rnorm) or rnorm > 1e12:
            ledger.record(0, _error_of(u, u_ref), rnorm)
            return RunResult(u, ledger, False, updates, "diverged")
        try:  # the factors die with the step: one set is alive at a time
            if diagonals is not None:
                data = np.append(problem.jacobian(u).data, 0.0)  # absent: index nnz
                step, info = tridiagonal_solve(data, diagonals, -r)
                if info:
                    raise RuntimeError(f"dgtsv: pivot {info} is exactly zero")
            elif ordered is None:
                step, ordered = _first_step(problem, problem.jacobian(u), -r)
            else:
                q, indices, indptr, gather = ordered
                J = sp.csc_matrix((problem.jacobian(u).data[gather], indices, indptr),
                                  shape=(len(q), len(q)))
                step = np.empty_like(r)
                step[q] = spla.splu(J, permc_spec="NATURAL").solve(-r[q])
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"; dgtsv above
            failure = SolveError(f"singular Jacobian ({exc})")
            return RunResult(u, ledger, False, updates,
                             f"Newton step {updates}: {failure}", failure=failure)
        ledger.record(1, _error_of(u, u_ref), rnorm)
        u = u + step
        updates += 1
    return RunResult(u, ledger, False, updates,
                     f"no convergence in {settings.max_outer} Newton steps")


def _first_step(problem, J, rhs):
    """direct_newton's first SuperLU step and the column order its factor chose.

    Returns the step J^{-1} rhs and (q, indices, indptr, gather): q =
    argsort(perm_c) orders the unknowns, and J(q, q) is the CSC matrix
    (J.data[gather], indices, indptr) for any J on problem.pattern.
    """
    lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    q = np.argsort(lu.perm_c)
    pattern = problem.pattern
    numbered = sp.csr_matrix((np.arange(pattern.nnz), pattern.indices,
                              pattern.indptr), shape=pattern.shape)
    ordered = numbered[q][:, q].tocsc()
    return lu.solve(rhs), (q, ordered.indices, ordered.indptr, ordered.data)


def reference_solution(problem, settings=None):
    """The discrete solution of F(u) = 0 that errors are measured against.

    problem.discrete_solution() if it has one (flux integration in 1D), else
    plain Newton from initial_state() to ||F|| <= REFERENCE_TOL, or SolveError.
    """
    if hasattr(problem, "discrete_solution"):
        return problem.discrete_solution()
    settings = settings or SolverSettings()
    strict = replace(settings, outer_tol=REFERENCE_TOL,
                     max_outer=max(settings.max_outer, 100))
    run = direct_newton(problem, problem.initial_state(), strict)
    if not run.converged:
        raise SolveError(f"reference Newton failed: {run.reason}")
    return run.u

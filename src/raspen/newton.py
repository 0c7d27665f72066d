"""Outer Newton driver, plain fixed-point driver and direct Newton.

The two drivers of a PreconditionedSystem, outer_newton and
fixed_point_solve, run by the system's own settings.  Every driver
returns a RunResult however its run ends, records its cost in an
IterationLedger and rejects a start with a non-finite entry (ValueError).
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
    """Per-evaluation iteration records, and the one place counts become cost.

    The cost follows the parallel convention of the solver comparison.
    Each residual evaluation appends one row: ls_G, the GMRES iterations of
    its Jacobian solve (0 without one, as on the terminal evaluation that
    confirms convergence and on fixed-point rows), and gmres_history, that
    solve's relative residuals, one per iteration (empty without one, as on
    direct Newton's rows, whose ls_G is 1).  From the row's Evaluation,
    inner_counts keeps the tuple of per-subdomain inner Newton counts, in
    subdomain order, and coarse_count the coarse Newton count (0 for
    one-level rows); direct Newton's rows have none.  error is the relative
    l1 distance to the run's reference iterate, nan without one.

    ls_in is the larger of max(inner_counts) and coarse_count: the coarse
    solve sits on the critical path like the slowest subdomain.  ls_min is
    the smallest subdomain count; both are 0 without subdomains.  LS is
    the running total LS_n = sum_{j<=n} (ls_in[j] + ls_G[j]), and
    LS_total, its last value, the cost of the whole run.
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
        """Per row, the slowest subdomain or coarse count."""
        return [max((*i, c)) for i, c in zip(self.inner_counts, self.coarse_count)]

    @property
    def ls_min(self):
        """Per row, the smallest subdomain count."""
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
    """How a run ended: its final iterate, its ledger and why it stopped.

    converged is whether the driver's own test was met (outer_newton's
    includes F(u) = 0); reason says why a run that did not converge ended,
    and may note a GMRES stall in one that did.  A subdomain or coarse
    solve failure is never raised: it ends the run with that SolveError as
    failure (None otherwise), quoted in reason after the iteration it
    ended, and the ledger and outer_iterations count up to it.
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
    """Why u is a spurious zero (outer_newton's rule), or ""."""
    with np.errstate(over="ignore"):  # a finite residual's norm can overflow
        norm, start = (np.linalg.norm(problem.residual(v)) for v in (u, u0))
    if norm <= max(SPURIOUS_RTOL * start, 100 * tol):
        return ""
    return (f"spurious zero: ||F(u)|| = {norm:.3e} against "
            f"||F(u0)|| = {start:.3e}")


def outer_newton(system, u0, *, u_ref=None):
    """Newton on the preconditioned function with full steps.

    Each iteration evaluates the residual as an Evaluation (recording its
    counts), tests ||value||_2 against outer_tol, then solves one Jacobian
    system with GMRES, acting with that evaluation, updates u and drops the
    evaluation, so that one set of local blocks is alive at a time.  GMRES
    nonconvergence is noted in reason but the step is still taken.  A u
    that meets outer_tol is converged only if it also solves F(u) = 0:
    with ||F(u)|| above max(SPURIOUS_RTOL ||F(u0)||, 100 outer_tol) it is a
    spurious zero of the preconditioned function, at which some two-level
    runs on rough fields stop, and the run is not converged, with both
    norms in reason.  A solve failure, in the residual or in the Jacobian
    actions, ends the run (RunResult).
    """
    settings = system.settings
    u = start = _start(u0)
    ledger = IterationLedger()
    reason = ""
    updates = 0
    while True:
        try:
            ev = system.residual(u)
            rnorm = np.linalg.norm(ev.value)
            converged = rnorm <= settings.outer_tol
            if converged or not np.isfinite(rnorm) or updates == settings.max_outer:
                ledger.record(0, _error_of(u, u_ref), rnorm, evaluation=ev)
                if converged:
                    spurious = _spurious_zero(system.problem, u, start,
                                              settings.outer_tol)
                    return RunResult(u, ledger, not spurious, updates, spurious or reason)
                return RunResult(u, ledger, False, updates, reason or (
                    f"no convergence in {updates} outer iterations"
                    if np.isfinite(rnorm) else "non-finite residual"))
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


def fixed_point_solve(system, u0, *, max_steps=None, u_ref=None):
    """Run u <- u + F(u) until the error reference is met or budget runs out.

    Each step records the counts of its Evaluation F(u) and drops it before
    the next step evaluates.  Stops when the relative l1 error against
    u_ref drops to outer_tol; stagnation is reported as converged=False,
    and so is a solve failure (RunResult): a divergent iteration typically
    leaves the basin of the local solves before the error passes the
    DIVERGENCE_ERROR cutoff.  u_ref defaults to
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
    """Plain Newton on F(u) = 0 with one direct solve per step.

    Each iterate is one face pass of the problem's all-rows kernels
    (problem._all_rows), from which F derives and, at an iterate that
    steps, J's values.  Each update's ledger row has ls_G = 1, its one
    global solve, so LS_total equals the number of Newton steps.  A
    Jacobian found exactly singular ends the run with a SolveError as its
    failure (RunResult).

    Steps follow local_solver's solver rule, read once per run from
    problem.pattern.  With SuperLU, _first_step factors J in the column
    order of minimum degree on A^T + A, which SuperLU recommends for
    structurally symmetric matrices; every later step gathers J(q, q) in
    that order from the values, factors it (NATURAL), solves for step[q]
    and scatters back.  The order lives in this call only, and one factor
    is alive at a time.
    """
    settings = settings or SolverSettings()
    u = _start(u0)
    ledger = IterationLedger()
    updates = 0
    kernels, pattern, n = problem._all_rows, problem.pattern, problem.dof_count
    if u.shape != (n,):
        raise ValueError(f"expected state vector of length {n}")
    row = np.repeat(np.arange(n), np.diff(pattern.indptr))
    # None beyond bandwidth 1; an entry absent from J reads the values' 0.0
    diagonals = tridiagonal_index(row, pattern.indices, kernels.take, -1, n)
    ordered = None  # from the first step: q and J(q, q)'s CSC layout and gather
    while True:
        # a finite r's norm can overflow, and a huge u's face pass read inf -
        # inf: both end the run "diverged"
        with np.errstate(over="ignore", invalid="ignore"):
            faces = kernels.faces(u)
            r = kernels.residual_of(faces)
            rnorm = np.linalg.norm(r)
        converged, diverged = bool(rnorm <= settings.outer_tol), not rnorm <= 1e12
        if converged or diverged or updates == settings.max_outer:
            ledger.record(0, _error_of(u, u_ref), rnorm)
            return RunResult(u, ledger, converged, updates, "" if converged else
                             "diverged" if diverged else
                             f"no convergence in {updates} Newton steps")
        try:  # the factors die with the step: one set is alive at a time
            values = kernels.values_of(faces)
            if diagonals is not None:
                step, info = tridiagonal_solve(values, diagonals, -r)
                if info:
                    raise RuntimeError(f"dgtsv: pivot {info} is exactly zero")
            elif ordered is None:
                step, ordered = _first_step(pattern, values, kernels.take, -r)
            else:
                q, indices, indptr, gather = ordered
                J = sp.csc_matrix((values[gather], indices, indptr), shape=(n, n))
                step = np.empty_like(r)
                step[q] = spla.splu(J, permc_spec="NATURAL").solve(-r[q])
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"; dgtsv above
            failure = SolveError(f"singular Jacobian ({exc})")
            return RunResult(u, ledger, False, updates,
                             f"Newton step {updates}: {failure}", failure=failure)
        ledger.record(1, _error_of(u, u_ref), rnorm)
        u = u + step
        updates += 1


def _first_step(pattern, values, take, rhs):
    """direct_newton's first SuperLU step and the column order its factor chose.

    J is the CSR matrix (values[take], pattern.indices, pattern.indptr).
    Returns the step J^{-1} rhs and (q, indices, indptr, gather): q =
    argsort(perm_c) orders the unknowns, and J(q, q) is the CSC matrix
    (values[gather], indices, indptr) for the values of any face pass.
    """
    structure = pattern.indices, pattern.indptr
    J = sp.csr_matrix((values[take], *structure), shape=pattern.shape)
    lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    q = np.argsort(lu.perm_c)
    ordered = sp.csr_matrix((take, *structure), shape=pattern.shape)[q][:, q].tocsc()
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

"""Outer Newton driver, plain fixed-point driver, and continuation in beta.

Iteration accounting follows the parallel-cost convention of the solver
comparison: one ledger row per residual evaluation, where ls_in is the
largest inner Newton count over the subdomains (two-level runs fold the
coarse solve's count in via the max, since the coarse solve sits on the
critical path like the slowest subdomain), ls_min the smallest subdomain
count, and ls_G the GMRES iterations spent on that row's Jacobian solve.
The terminal evaluation that confirms convergence gets ls_G = 0.  The
running total is LS_n = sum_{j<=n} (ls_in[j] + ls_G[j]).  An outer Newton
row also keeps its GMRES solve's relative residual history, ls_G values
long; rows that solve no GMRES system keep an empty one.

Errors in the ledger are relative l1 distances to a reference iterate,
which callers usually obtain from reference_solution(): a tight-tolerance
direct Newton solve, falling back to continuation in beta when the cold
start diverges.
"""

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .krylov import gmres
from .local_solver import LocalSolveError, SolveError, SolverSettings

__all__ = [
    "IterationLedger",
    "RunResult",
    "ContinuationError",
    "outer_newton",
    "fixed_point_solve",
    "continuation_solve",
    "direct_newton",
    "reference_solution",
    "relative_l1_error",
]

DIVERGENCE_ERROR = 1e6


class ContinuationError(RuntimeError):
    """A continuation stage raised; .completed holds the finished runs."""

    def __init__(self, message, completed):
        super().__init__(message)
        self.completed = completed


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
    one: the terminal row, fixed-point rows and direct Newton's).
    """

    ls_G: list = field(default_factory=list)
    ls_in: list = field(default_factory=list)
    ls_min: list = field(default_factory=list)
    error: list = field(default_factory=list)
    residual_norm: list = field(default_factory=list)
    gmres_history: list = field(default_factory=list)

    def record(self, ls_G, ls_in, ls_min, error, residual_norm, gmres_history=()):
        self.ls_G.append(int(ls_G))
        self.ls_in.append(int(ls_in))
        self.ls_min.append(int(ls_min))
        self.error.append(float(error))
        self.residual_norm.append(float(residual_norm))
        self.gmres_history.append(tuple(gmres_history))

    def __len__(self):
        return len(self.ls_G)

    @property
    def LS(self):
        """Cumulative linear-solve totals per row."""
        return np.cumsum(np.asarray(self.ls_in) + np.asarray(self.ls_G))

    @property
    def LS_total(self):
        return int(self.LS[-1]) if len(self) else 0


@dataclass(frozen=True, eq=False)
class RunResult:
    """Final iterate plus the ledger of the run that produced it."""

    u: np.ndarray = field(repr=False)
    ledger: IterationLedger = field(repr=False)
    converged: bool
    outer_iterations: int
    reason: str = ""


def _error_of(u, u_ref):
    return relative_l1_error(u, u_ref) if u_ref is not None else np.nan


def _in_context(exc, context):
    """A copy of exc, attributes included, whose message starts with context."""
    wrapped = copy.copy(exc)
    wrapped.args = (f"{context}: {exc}",)
    return wrapped


def outer_newton(system, u0, settings=None, u_ref=None):
    """Newton on the preconditioned function with full steps.

    Each iteration evaluates the residual (recording the inner counts),
    tests ||residual||_2 against outer_tol, then solves one Jacobian
    system with GMRES and updates u.  GMRES nonconvergence is noted in
    the reason string but the step is still taken; subdomain or coarse
    solve failures, in the residual or in the Jacobian actions, propagate
    with outer-iteration context, keep their attributes (a LocalSolveError's
    subdomain and residuals) and carry the run's ledger and update count up
    to the failure, as ledger and outer_iterations.
    """
    settings = settings or SolverSettings()
    u = np.asarray(u0, dtype=float).copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("initial guess contains non-finite entries")
    ledger = IterationLedger()
    reason = ""
    updates = 0
    for _ in range(settings.max_outer):
        try:
            r = system.residual(u)
            rnorm = np.linalg.norm(r)
            ls_in, ls_min = system.last_counts
            if rnorm <= settings.outer_tol:
                ledger.record(0, ls_in, ls_min, _error_of(u, u_ref), rnorm)
                return RunResult(u, ledger, True, updates, reason)
            if not np.isfinite(rnorm):
                ledger.record(0, ls_in, ls_min, _error_of(u, u_ref), rnorm)
                return RunResult(u, ledger, False, updates,
                                 reason or "non-finite residual")
            delta, report = gmres(lambda v: system.jacobian_action(u, v), -r,
                                  tol=settings.gmres_tol)
        except SolveError as exc:
            wrapped = _in_context(exc, f"outer iteration {updates}")
            wrapped.ledger, wrapped.outer_iterations = ledger, updates
            raise wrapped from exc
        ledger.record(report.iterations, ls_in, ls_min,
                      _error_of(u, u_ref), rnorm, report.residual_history)
        if not report.converged and not reason:
            reason = (
                f"gmres stalled at outer iteration {updates} "
                f"(relative residual {report.relative_residual:.3e})"
            )
        u = u + delta
        updates += 1
    return RunResult(u, ledger, False, updates,
                     reason or f"no convergence in {settings.max_outer} outer iterations")


def fixed_point_solve(system, u0, settings=None, max_steps=None, u_ref=None):
    """Run u <- u + F(u) until the error reference is met or budget runs out.

    Stops when the relative l1 error against u_ref drops to outer_tol;
    stagnation is reported as converged=False, never an exception, and a
    subdomain or coarse solve failure along the way likewise ends the run
    with the failure quoted in reason (a divergent iteration typically
    leaves the basin of the local solves before the error passes the
    DIVERGENCE_ERROR cutoff).  u_ref defaults to
    reference_solution(system.problem).
    """
    settings = settings or SolverSettings()
    if max_steps is None:
        max_steps = settings.max_fixed_point
    if u_ref is None:
        u_ref = reference_solution(system.problem, settings)
    u = np.asarray(u0, dtype=float).copy()
    ledger = IterationLedger()
    for step in range(1, max_steps + 1):
        try:
            u_next = system.fixed_point_step(u)
        except SolveError as exc:
            return RunResult(u, ledger, False, step - 1,
                             f"solve failed at step {step}: {exc}")
        ls_in, ls_min = system.last_counts
        err = relative_l1_error(u_next, u_ref)
        # the stopping test here is the error itself, so it doubles as the
        # residual column (keeps converged => residual_norm[-1] <= tol)
        ledger.record(0, ls_in, ls_min, err, err)
        u = u_next
        if err <= settings.outer_tol:
            return RunResult(u, ledger, True, step, "")
        if not np.isfinite(err) or err > DIVERGENCE_ERROR:
            return RunResult(u, ledger, False, step,
                             f"diverged (error {err:.3e} at step {step})")
    return RunResult(u, ledger, False, max_steps,
                     f"error {ledger.error[-1]:.3e} after {max_steps} steps")


def continuation_solve(system_factory, betas, u0, settings=None, u_ref=None):
    """Chain outer_newton runs over increasing beta with warm starts.

    Returns the list of RunResults, one per beta, stopping at the first
    beta whose run does not converge (that run is included).  A raising
    stage is wrapped in ContinuationError carrying the completed runs.
    """
    betas = list(betas)
    if not betas:
        raise ValueError("betas must be nonempty")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be strictly increasing")
    results = []
    u = np.asarray(u0, dtype=float)
    for beta in betas:
        system = system_factory(beta)
        try:
            run = outer_newton(system, u, settings, u_ref=u_ref)
        except SolveError as exc:
            raise ContinuationError(f"beta={beta}: {exc}", results) from exc
        results.append(run)
        if not run.converged:
            break
        u = run.u
    return results


def direct_newton(problem, u0, settings=None, u_ref=None):
    """Plain Newton on F(u) = 0 with one sparse direct solve per step.

    Ledger rows carry ls_in = 0 and ls_G = 1 per update (the single
    global solve), so LS_total equals the number of Newton steps.
    """
    settings = settings or SolverSettings()
    u = np.asarray(u0, dtype=float).copy()
    ledger = IterationLedger()
    updates = 0
    for _ in range(settings.max_outer):
        r = problem.residual(u)
        rnorm = np.linalg.norm(r)
        if rnorm <= settings.outer_tol:
            ledger.record(0, 0, 0, _error_of(u, u_ref), rnorm)
            return RunResult(u, ledger, True, updates, "")
        if not np.isfinite(rnorm) or rnorm > 1e12:
            ledger.record(0, 0, 0, _error_of(u, u_ref), rnorm)
            return RunResult(u, ledger, False, updates, "diverged")
        ledger.record(1, 0, 0, _error_of(u, u_ref), rnorm)
        u = u + spla.factorized(problem.jacobian(u).tocsc())(-r)
        updates += 1
    return RunResult(u, ledger, False, updates,
                     f"no convergence in {settings.max_outer} Newton steps")


def reference_solution(problem, settings=None, tol=1e-12,
                       betas=(0.0, 0.1, 0.2, 0.5, 1.0)):
    """Tight-tolerance discrete reference solution of F(u) = 0.

    Plain Newton from the problem's cold-start iterate; if that diverges
    on a Forchheimer problem, retries by continuation, solving for an
    increasing beta ladder (scaled to end at the problem's beta) and
    warm-starting each stage.
    """
    settings = settings or SolverSettings()
    strict = replace(settings, outer_tol=tol,
                     max_outer=max(settings.max_outer, 100))
    run = direct_newton(problem, problem.initial_state(), strict)
    if run.converged:
        return run.u
    beta = getattr(problem, "beta", None)
    if beta is None or beta <= 0:
        raise LocalSolveError(f"reference Newton failed: {run.reason}")
    u = problem.initial_state()
    for b in sorted({min(f * beta, beta) for f in betas}):
        stage = type(problem)(
            problem.lambda_field, problem.source, b,
            L=problem.L, dirichlet=problem.dirichlet,
        )
        run = direct_newton(stage, u, strict)
        if not run.converged:
            raise LocalSolveError(
                f"reference continuation failed at beta={b}: {run.reason}"
            )
        u = run.u
    return u

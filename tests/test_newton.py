"""Tests for the outer drivers: Newton, fixed point, and continuation."""

import dataclasses

import numpy as np
import pytest
from oracles import plain_newton

import raspen.local_solver as local_solver_mod
import raspen.newton as newton_mod
from raspen.coarse import CoarseSolveError
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.krylov import GmresReport
from raspen.local_solver import LocalSolveError, SolveError, SolverSettings
from raspen.newton import (
    ContinuationError,
    continuation_solve,
    direct_newton,
    fixed_point_solve,
    outer_newton,
    reference_solution,
    relative_l1_error,
)
from raspen.precond import PreconditionedSystem
from raspen.problems import DiffusionProblem2D, hard_forchheimer, smooth_forchheimer


def _system(kind, M=60, I=6, k=2, beta=1.0, settings=None):
    prob = smooth_forchheimer(M, beta=beta)
    lay = build_1d_layout(M, I, k, dirichlet=prob.dirichlet)
    return PreconditionedSystem(kind, prob, lay, settings)


def test_relative_l1_error_values():
    assert relative_l1_error([1.0, 2.0], np.array([2.0, 2.0])) == 0.25
    assert relative_l1_error([0.0, 0.0], np.array([1.0, 3.0])) == 1.0
    # zero reference falls back to the plain l1 norm
    assert relative_l1_error([0.5, -0.5], np.zeros(2)) == 1.0


def test_ledger_consistency():
    system = _system("RASPEN1")
    run = outer_newton(system, np.zeros(60))
    led = run.ledger
    assert run.converged
    assert len(led) == len(led.ls_in) == len(led.ls_min) == len(led.error)
    assert len(led.residual_norm) == len(led)
    LS = led.LS
    assert LS[0] == led.ls_in[0] + led.ls_G[0]
    assert np.all(np.diff(LS) == np.asarray(led.ls_in[1:]) + np.asarray(led.ls_G[1:]))
    assert np.all(np.diff(LS) >= 0)
    assert led.LS_total == LS[-1]
    # the terminal evaluation only confirms convergence, no Jacobian solve
    assert led.ls_G[-1] == 0
    assert led.residual_norm[-1] <= SolverSettings().outer_tol


def test_start_at_solution_is_immediate():
    system = _system("RASPEN1")
    ustar = plain_newton(system.problem, np.zeros(60))
    run = outer_newton(system, ustar, u_ref=ustar)
    assert run.converged
    assert run.outer_iterations <= 1
    assert run.ledger.LS_total <= 2 * SolverSettings().max_inner


def test_affine_problem_takes_one_outer():
    system = _system("RASPEN1", beta=0.0)
    run = outer_newton(system, np.zeros(60))
    assert run.converged
    assert run.outer_iterations == 1


def test_outer_counts_match_published_subdomain_sweep():
    # cells per subdomain fixed at 20, overlap three mesh layers
    for I in (10, 20, 40):
        system = _system("RASPEN1", M=20 * I, I=I, k=3)
        run = outer_newton(system, np.zeros(20 * I))
        assert run.converged
        assert run.outer_iterations == 4, f"I={I}: {run.outer_iterations}"


def test_quadratic_residual_tail():
    # tight inner/linear tolerances so the final residuals are not noise
    tight = SolverSettings(inner_tol=1e-13, outer_tol=1e-10, gmres_tol=1e-12)
    system = _system("RASPEN1", M=100, I=10, k=3, settings=tight)
    run = outer_newton(system, np.zeros(100), tight)
    assert run.converged
    r = np.asarray(run.ledger.residual_norm)
    assert len(r) >= 3
    slope = np.log(r[-1] / r[-2]) / np.log(r[-2] / r[-3])
    assert slope >= 1.8, f"tail slope {slope:.2f}"


def test_nonfinite_initial_guess_rejected():
    system = _system("RASPEN1", M=24, I=3, k=1)
    u0 = np.zeros(24)
    u0[3] = np.nan
    with pytest.raises(ValueError):
        outer_newton(system, u0)


def test_gmres_stall_sets_reason(monkeypatch):
    system = _system("RASPEN1", M=24, I=3, k=1)

    def stalled(action, rhs, tol=1e-8, max_iter=None):
        return np.zeros_like(rhs), GmresReport(5, 1.0, False, (1.0,))

    monkeypatch.setattr(newton_mod, "gmres", stalled)
    run = outer_newton(system, np.zeros(24),
                       SolverSettings(max_outer=3))
    assert not run.converged
    assert "gmres stalled" in run.reason



def test_nonfinite_jacobian_action_stalls_gmres_with_nan():
    system = _system("RASPEN1", M=24, I=3, k=1)
    exact, calls = system.jacobian_action, []

    def action(u, v):
        calls.append(v)
        return exact(u, v) if len(calls) < 3 else np.full(len(v), np.nan)

    system.jacobian_action = action
    run = outer_newton(system, np.zeros(24), SolverSettings(max_outer=1))
    assert not run.converged
    assert run.reason == "gmres stalled at outer iteration 0 (relative residual nan)"
    assert run.ledger.ls_G == [3]
    assert np.isnan(run.ledger.gmres_history[0][-1])
    assert np.all(np.isfinite(run.u))

class _BoomSystem:
    """Stub whose residual always fails like a subdomain or coarse solve."""

    def __init__(self, error=LocalSolveError):
        self.error = error

    def residual(self, u):
        raise self.error("synthetic solve failure")


@pytest.mark.parametrize("error", [LocalSolveError, CoarseSolveError])
def test_solve_failure_aborts_with_context(error):
    with pytest.raises(error, match="outer iteration 0"):
        outer_newton(_BoomSystem(error), np.zeros(4))


def _failing_sweep(system, kernel, fail_from):
    """Make subdomain 1's kernel output fail from the fail_from-th call on.

    kernel "jacobian" zeros subdomain 1's entries (a singular block),
    "residual" turns its rows into nan.
    """
    stack = system._positions
    rows = slice(stack.block_starts[1], stack.block_starts[2])
    entries = slice(*stack.indptr[stack.block_starts[1:3]])
    calls = [0]

    def failing(X):
        calls[0] += 1
        out = getattr(stack, kernel)(X)
        if calls[0] >= fail_from:
            out[rows if kernel == "residual" else entries] *= (
                np.nan if kernel == "residual" else 0.0)
        return out

    system._positions = dataclasses.replace(stack, **{kernel: failing})


@pytest.mark.parametrize("failure, message, trail", [
    ("budget", "inner Newton did not reach 1e-08 within 1 iterations", 2),
    ("singular", "singular local Jacobian", 2),
    ("nonfinite", "inner Newton produced a non-finite residual", 3),
])
def test_local_failure_keeps_subdomain_and_trail_through_outer_context(
        failure, message, trail):
    # outer_newton prefixes the outer iteration; the error's subdomain and
    # inner residual trail survive, as they are on the sweep's own error
    settings = SolverSettings(max_inner=1) if failure == "budget" else None
    errors = []
    for through_newton in (False, True):
        system = _system("RASPEN1", settings=settings)
        if failure == "singular":
            _failing_sweep(system, "jacobian", 2)
        elif failure == "nonfinite":
            _failing_sweep(system, "residual", 3)
        u = system.problem.initial_state()
        with pytest.raises(LocalSolveError) as caught:
            if through_newton:
                outer_newton(system, u)
            else:
                system.residual(u)
        errors.append(caught.value)
    direct, wrapped = errors
    named = 0 if failure == "budget" else 1
    assert str(direct).startswith(f"subdomain {named}: {message}")
    assert str(wrapped) == f"outer iteration 0: {direct}"
    assert type(wrapped) is LocalSolveError and wrapped.__cause__ is not None
    for err in errors:
        assert err.subdomain == named
        assert len(err.residuals) == trail
    assert np.array_equal(wrapped.residuals, direct.residuals, equal_nan=True)


def test_gmres_histories_are_kept_per_row():
    run = outer_newton(_system("RASPEN1"), np.zeros(60))
    led = run.ledger
    assert run.converged and len(led.gmres_history) == len(led)
    for ls_G, history in zip(led.ls_G, led.gmres_history):
        assert len(history) == ls_G
    assert led.gmres_history[-1] == ()
    assert all(0.0 < h[-1] <= SolverSettings().gmres_tol
               for h in led.gmres_history[:-1])
    fp = fixed_point_solve(_system("RASPEN1"), np.zeros(60), max_steps=3,
                           u_ref=np.zeros(60))
    assert fp.ledger.gmres_history == [()] * len(fp.ledger)


def test_singular_block_at_first_action_gets_outer_context(monkeypatch):
    # the local blocks are factored at the first Jacobian action, inside
    # GMRES; a singular one must carry the same context as a failure in
    # the residual evaluation
    system = _system("RASPEN1")
    residual = system.residual

    def residual_then_singular(u):
        r = residual(u)
        monkeypatch.setattr(local_solver_mod, "dgbtrf", _singular_dgbtrf)
        return r

    system.residual = residual_then_singular
    with pytest.raises(LocalSolveError, match="outer iteration 0: subdomain 0: "
                                              "singular local Jacobian"):
        outer_newton(system, system.problem.initial_state())


@pytest.mark.parametrize("first, named", [(True, 3), (False, 2)],
                         ids=["own-first-column", "previous-last-column"])
def test_zero_pivot_in_stacked_block_names_subdomain_with_outer_context(
        first, named, monkeypatch):
    # all local blocks are factored as one band: a zero pivot at subdomain
    # 3's first column, or at subdomain 2's last, names that subdomain
    system = _system("RASPEN1")
    start = sum(len(sub.overlap) for sub in system.layout.subdomains[:3])
    column = start if first else start - 1
    residual = system.residual
    dgbtrf = local_solver_mod.dgbtrf

    def zeroed(ab, kl, ku, **kwargs):
        ab[:, column] = 0.0  # band storage keeps A[:, c] in column c
        return dgbtrf(ab, kl, ku, **kwargs)

    def residual_then_singular(u):
        r = residual(u)
        monkeypatch.setattr(local_solver_mod, "dgbtrf", zeroed)
        return r

    system.residual = residual_then_singular
    with pytest.raises(LocalSolveError, match=f"outer iteration 0: subdomain "
                                              f"{named}: singular local Jacobian"):
        outer_newton(system, system.problem.initial_state())


def _singular_dgbtrf(ab, kl, ku, **kwargs):
    # LAPACK reports an exactly zero pivot U(1,1) as info = 1
    return ab, np.zeros(ab.shape[1], dtype=np.int32), 1


# ---------------------------------------------------------------- fixed point

def _fp_setup(kind, M):
    prob = smooth_forchheimer(M, beta=1.0)
    lay = build_1d_layout(M, 8, 3, dirichlet=prob.dirichlet)
    return PreconditionedSystem(kind, prob, lay), prob


_ONE_LEVEL_SETUPS = {
    "1d": lambda: (smooth_forchheimer(60, beta=1.0), build_1d_layout(60, 6, 2)),
    "2d": lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
}


@pytest.mark.parametrize("kind, setup", [
    ("RASPEN1", "1d"), ("RASPEN1", "2d"), ("ASPIN1", "1d"), ("ASPIN1", "2d"),
], ids=["1d", "2d", "aspin1-1d", "aspin1-2d"])
def test_raspen1_newton_evaluates_no_global_residual_or_jacobian(kind, setup):
    # local solves and their derivative blocks, exact or inexact, read the
    # problem's row kernels only: the one global Jacobian is the pattern
    # that block_positions reads, for all subdomains at once, when the
    # system is built
    prob, lay = _ONE_LEVEL_SETUPS[setup]()
    calls = {"residual": 0, "jacobian": 0}
    for name in calls:
        def spy(u, evaluate=getattr(prob, name), name=name):
            calls[name] += 1
            return evaluate(u)
        setattr(prob, name, spy)
    system = PreconditionedSystem(kind, prob, lay)
    assert outer_newton(system, prob.initial_state()).converged
    assert calls == {"residual": 0, "jacobian": 1}


def test_ras_fixed_point_converges():
    system, prob = _fp_setup("RASPEN1", 32)
    u_ref = reference_solution(prob)
    run = fixed_point_solve(system, prob.initial_state(), max_steps=200,
                            u_ref=u_ref)
    assert run.converged
    assert run.outer_iterations <= 200
    assert run.ledger.error[-1] <= SolverSettings().outer_tol
    # fixed-point rows never spend GMRES iterations
    assert all(g == 0 for g in run.ledger.ls_G)


@pytest.mark.parametrize("max_steps", [0, 2.5])
def test_fixed_point_budget_is_a_positive_integer(max_steps):
    system, prob = _fp_setup("RASPEN1", 32)
    with pytest.raises(ValueError,
                       match="^max_fixed_point must be an integer of at least 1$"):
        fixed_point_solve(system, prob.initial_state(), max_steps=max_steps,
                          u_ref=np.zeros(32))


def test_as_fixed_point_not_convergent():
    # same layout as the convergent restricted variant above: the additive
    # update double-counts the overlap and the iterates leave the basin of
    # the subdomain solves
    system, prob = _fp_setup("ASPIN1", 32)
    u_ref = reference_solution(prob)
    run = fixed_point_solve(system, prob.initial_state(), max_steps=200,
                            u_ref=u_ref)
    assert not run.converged
    assert "solve failed" in run.reason
    assert run.outer_iterations == len(run.ledger)


def test_as_fixed_point_stalls_on_budget():
    # smaller overlap fraction: the additive iteration merely stagnates
    system, prob = _fp_setup("ASPIN1", 64)
    u_ref = reference_solution(prob)
    run = fixed_point_solve(system, prob.initial_state(), max_steps=60,
                            u_ref=u_ref)
    assert not run.converged
    assert "after 60 steps" in run.reason
    assert len(run.ledger) == 60


class _DoublingSystem:
    """Stub fixed point u <- 2u, divergent from any nonzero start."""

    last_counts = (1, 1)

    def fixed_point_step(self, u):
        return 2.0 * u


def test_fixed_point_divergence_cutoff():
    run = fixed_point_solve(_DoublingSystem(), np.ones(4), max_steps=100,
                            u_ref=np.ones(4))
    assert not run.converged
    assert "diverged" in run.reason
    assert run.outer_iterations < 100
    assert run.ledger.error[-1] > newton_mod.DIVERGENCE_ERROR


def test_single_subdomain_fixed_point_is_one_step():
    prob = smooth_forchheimer(32, beta=1.0)
    lay = build_1d_layout(32, 1, 0, dirichlet=prob.dirichlet)
    system = PreconditionedSystem("RASPEN1", prob, lay)
    run = fixed_point_solve(system, prob.initial_state(), max_steps=5,
                            u_ref=reference_solution(prob))
    assert run.converged
    assert run.outer_iterations == 1


# --------------------------------------------------------------- continuation

def _beta_factory(M=60, I=6, k=2, boom_at=None):
    def factory(beta):
        if boom_at is not None and beta == boom_at:
            return _BoomSystem()
        prob = smooth_forchheimer(M, beta=beta)
        lay = build_1d_layout(M, I, k, dirichlet=prob.dirichlet)
        return PreconditionedSystem("RASPEN1", prob, lay)

    return factory


def test_continuation_single_affine_stage():
    results = continuation_solve(_beta_factory(), [0.0], np.zeros(60))
    assert len(results) == 1
    assert results[0].converged
    assert results[0].outer_iterations == 1


def test_continuation_warm_start_benefit():
    factory = _beta_factory()
    chain = continuation_solve(factory, [0.0, 1.0], np.zeros(60))
    cold = outer_newton(factory(1.0), np.zeros(60))
    assert all(r.converged for r in chain)
    assert cold.converged
    assert chain[1].outer_iterations < cold.outer_iterations


def test_continuation_five_stage_ladder():
    factory = _beta_factory()
    betas = [0.0, 0.1, 0.2, 0.5, 1.0]
    results = continuation_solve(factory, betas, np.zeros(60))
    assert len(results) == 5
    assert all(r.converged for r in results)
    stage_LS = [r.ledger.LS_total for r in results]
    assert all(ls >= 1 for ls in stage_LS)
    assert np.all(np.diff(np.cumsum(stage_LS)) > 0)
    u_ref = reference_solution(smooth_forchheimer(60, beta=1.0))
    assert relative_l1_error(results[-1].u, u_ref) <= 1e-6


def test_continuation_validates_betas():
    factory = _beta_factory()
    with pytest.raises(ValueError):
        continuation_solve(factory, [], np.zeros(60))
    with pytest.raises(ValueError):
        continuation_solve(factory, [0.0, 0.5, 0.5], np.zeros(60))
    with pytest.raises(ValueError):
        continuation_solve(factory, [0.5, 0.2], np.zeros(60))


def test_continuation_stops_at_first_nonconverged():
    # max_outer 2 lets the affine stage finish (one update plus the
    # confirming evaluation) but is too small for beta = 0.5 from cold
    settings = SolverSettings(max_outer=2)
    results = continuation_solve(_beta_factory(), [0.0, 0.5, 1.0],
                                 np.zeros(60), settings)
    assert len(results) == 2
    assert results[0].converged
    assert not results[1].converged


def test_continuation_wraps_raising_stage():
    factory = _beta_factory(boom_at=1.0)
    with pytest.raises(ContinuationError) as info:
        continuation_solve(factory, [0.0, 1.0], np.zeros(60))
    assert len(info.value.completed) == 1
    assert info.value.completed[0].converged


# ------------------------------------------------------------------ reference

def test_direct_newton_counts_one_solve_per_step():
    prob = smooth_forchheimer(40, beta=1.0)
    run = direct_newton(prob, np.zeros(40))
    assert run.converged
    assert run.ledger.LS_total == run.outer_iterations
    assert all(i == 0 for i in run.ledger.ls_in)


@pytest.mark.parametrize("make", [
    lambda: smooth_forchheimer(40, beta=1.0),
    lambda: hard_forchheimer(40, beta=1.0, seed=11),
])
def test_reference_solution_solves_problem(make):
    prob = make()
    u = reference_solution(prob)
    assert np.linalg.norm(prob.residual(u), np.inf) <= 1e-11


@pytest.mark.parametrize("beta, reason", [
    (0.0, "reference Newton failed: "),
    (1.0, "reference continuation failed at beta=0.0: "),
], ids=["newton", "continuation"])
def test_reference_failure_is_no_subdomain_failure(beta, reason):
    # on this rough field plain Newton stalls at the roundoff floor at
    # beta = 0, so the beta = 1 continuation fails at its first stage
    with pytest.raises(SolveError, match=f"^{reason}") as caught:
        reference_solution(hard_forchheimer(240, beta=beta, seed=2))
    assert not isinstance(caught.value, LocalSolveError)

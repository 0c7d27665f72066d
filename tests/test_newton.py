"""Tests for the outer drivers: Newton, fixed point, and direct Newton."""

import dataclasses
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from oracles import (Kernels, Repatterned, default_order_newton, layout_blocks,
                     plain_newton, recorded_calls, tridiagonal_newton, zero_pivot)

import raspen.local_solver as local_solver_mod
import raspen.newton as newton_mod
import raspen.precond as precond_mod
from raspen.coarse import CoarseSolveError, coarse_space
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.krylov import GmresReport
from raspen.local_solver import LocalSolveError, SolveError, SolverSettings
from raspen.newton import (
    REFERENCE_TOL,
    IterationLedger,
    direct_newton,
    fixed_point_solve,
    outer_newton,
    reference_solution,
    relative_l1_error,
)
from raspen.precond import KINDS, PreconditionedSystem
from raspen.problems import (
    DISCRETE_RESIDUAL,
    DiffusionProblem2D,
    hard_forchheimer,
    smooth_forchheimer,
)


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


def test_ledger_rows_keep_the_inner_and_coarse_counts():
    # ls_in is the critical path: the slowest subdomain or the coarse solve
    led = outer_newton(_system("RASPEN2"), np.zeros(60)).ledger
    assert len(led.inner_counts) == len(led.coarse_count) == len(led) > 1
    for ls_in, ls_min, inner, coarse in zip(led.ls_in, led.ls_min,
                                            led.inner_counts, led.coarse_count):
        assert len(inner) == 6
        assert ls_in == max(max(inner), coarse) and ls_min == min(inner)
    assert max(led.coarse_count) > 0
    one = outer_newton(_system("RASPEN1"), np.zeros(60)).ledger
    assert one.coarse_count == [0] * len(one)
    assert one.ls_in == [max(inner) for inner in one.inner_counts]


def test_ledger_derives_ls_in_and_ls_min_from_the_stored_counts():
    # the coarse count joins the max of ls_in but never ls_min; a row
    # without an evaluation (direct Newton's) counts 0 for both
    led = IterationLedger()
    for inner, coarse in (((3, 5), 7), ((3, 5), 2)):
        led.record(1, 0.0, 0.0, evaluation=SimpleNamespace(
            locals_=SimpleNamespace(inner_counts=inner), coarse_count=coarse))
    led.record(1, 0.0, 0.0)
    assert (led.ls_in, led.ls_min) == ([7, 5, 0], [3, 3, 0])
    assert led.LS.tolist() == [8, 14, 15] and led.LS_total == 15
    # derived, never stored beside the counts they come from
    assert not {"ls_in", "ls_min"} & {f.name for f in dataclasses.fields(led)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("driver", [
    outer_newton,
    lambda system, u0: fixed_point_solve(system, u0, max_steps=3,
                                         u_ref=np.zeros(60)),
], ids=["outer_newton", "fixed_point_solve"])
def test_drivers_hold_one_evaluation_at_a_time(driver, kind):
    # a driver drops each evaluation, and the local blocks factored on it,
    # before the next sweep, so no two stacked bands are alive at once
    system = _system(kind)
    residual, made, alive = system.residual, [], []

    def tracked(u):
        alive.append(sum(ref() is not None for ref in made))
        ev = residual(u)
        made.append(weakref.ref(ev))
        return ev

    system.residual = tracked
    driver(system, np.zeros(60))
    assert len(made) > 2 and alive == [0] * len(made)


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
    run = outer_newton(system, np.zeros(100))
    assert run.converged
    r = np.asarray(run.ledger.residual_norm)
    assert len(r) >= 3
    slope = np.log(r[-1] / r[-2]) / np.log(r[-2] / r[-3])
    assert slope >= 1.8, f"tail slope {slope:.2f}"


def test_drivers_run_by_the_system_settings():
    # no driver takes settings of its own: a loose outer_tol on the system
    # stops the run early, a one-update budget stops it after one update
    loose = SolverSettings(outer_tol=1e-3)
    run = outer_newton(_system("RASPEN1", settings=loose), np.zeros(60))
    full = outer_newton(_system("RASPEN1"), np.zeros(60))
    r = run.ledger.residual_norm
    assert run.converged and r[-1] <= 1e-3 < r[-2]
    assert run.outer_iterations < full.outer_iterations
    capped = outer_newton(_system("RASPEN1", settings=SolverSettings(max_outer=1)),
                          np.zeros(60))
    assert not capped.converged and capped.outer_iterations == 1
    assert capped.reason == "no convergence in 1 outer iterations"
    u_ref = reference_solution(smooth_forchheimer(60, beta=1.0))
    fp = fixed_point_solve(_system("RASPEN1", settings=loose), np.zeros(60),
                           u_ref=u_ref)
    assert fp.converged and fp.ledger.error[-1] <= 1e-3 < fp.ledger.error[-2]
    capped = fixed_point_solve(
        _system("RASPEN1", settings=SolverSettings(max_fixed_point=2)),
        np.zeros(60), u_ref=u_ref)
    assert not capped.converged and capped.reason.endswith("after 2 steps")


@pytest.mark.parametrize("driver", [outer_newton, fixed_point_solve],
                         ids=["outer_newton", "fixed_point_solve"])
def test_drivers_reject_a_positional_settings(driver):
    with pytest.raises(TypeError):
        driver(_system("RASPEN1"), np.zeros(60), SolverSettings())


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("driver", [
    lambda system, u0: outer_newton(system, u0),
    lambda system, u0: fixed_point_solve(system, u0),
    lambda system, u0: direct_newton(system.problem, u0),
], ids=["outer_newton", "fixed_point_solve", "direct_newton"])
def test_nonfinite_initial_guess_rejected(driver, value):
    # every driver rejects it before any work, with the same error: none
    # lets a warning escape, ends "diverged" or fails in a sweep
    system = _system("RASPEN1", M=24, I=3, k=1)
    u0 = np.zeros(24)
    u0[3] = value
    with pytest.raises(ValueError, match="^initial guess contains non-finite entries$"):
        driver(system, u0)


def test_gmres_stall_sets_reason(monkeypatch):
    system = _system("RASPEN1", M=24, I=3, k=1,
                     settings=SolverSettings(max_outer=3))

    def stalled(action, rhs, tol=1e-8, max_iter=None):
        return np.zeros_like(rhs), GmresReport(5, 1.0, False, (1.0,))

    monkeypatch.setattr(newton_mod, "gmres", stalled)
    run = outer_newton(system, np.zeros(24))
    assert not run.converged
    assert "gmres stalled" in run.reason



def test_nonfinite_jacobian_action_stalls_gmres_with_nan():
    system = _system("RASPEN1", M=24, I=3, k=1,
                     settings=SolverSettings(max_outer=1))
    exact, calls = system.jacobian_action, []

    def action(ev, v):
        calls.append(v)
        return exact(ev, v) if len(calls) < 3 else np.full(len(v), np.nan)

    system.jacobian_action = action
    run = outer_newton(system, np.zeros(24))
    assert not run.converged
    assert run.reason == "gmres stalled at outer iteration 0 (relative residual nan)"
    assert run.ledger.ls_G == [3]
    assert np.isnan(run.ledger.gmres_history[0][-1])
    assert np.all(np.isfinite(run.u))

class _BoomSystem:
    """Stub whose residual always fails like a subdomain or coarse solve."""

    settings = SolverSettings()

    def __init__(self, error):
        self.error = error

    def residual(self, u):
        raise self.error("synthetic solve failure")


@pytest.mark.parametrize("error", [LocalSolveError, CoarseSolveError])
def test_solve_failure_aborts_with_context(error):
    run = outer_newton(_BoomSystem(error), np.zeros(4))
    assert not run.converged and run.outer_iterations == 0
    assert run.reason == "outer iteration 0: synthetic solve failure"
    assert type(run.failure) is error


def _failing_sweep(system, kernel, fail_from):
    """Make subdomain 1's kernel output fail from the fail_from-th call on.

    kernel "jacobian" zeros the values subdomain 1's entries read, which no
    other subdomain's entries read (a singular block), "residual" turns its
    rows into nan; each is derived from a face pass.
    """
    stack = system._positions
    rows = slice(stack.block_starts[1], stack.block_starts[2])
    entries = slice(*stack.indptr[stack.block_starts[1:3]])
    values = np.unique(stack.kernels.take[entries])
    assert not np.isin(np.delete(stack.kernels.take, np.r_[entries]), values).any()
    name = "residual_of" if kernel == "residual" else "values_of"
    calls = [0]

    def failing(faces):
        calls[0] += 1
        out = getattr(stack.kernels, name)(faces)
        if calls[0] >= fail_from:
            out[rows if kernel == "residual" else values] *= (
                np.nan if kernel == "residual" else 0.0)
        return out

    kernels = Kernels(stack.kernels, **{name: failing})
    system._positions = dataclasses.replace(stack, kernels=kernels)


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
    systems = []
    for _ in range(2):
        systems.append(_system("RASPEN1", settings=settings))
        if failure == "singular":
            _failing_sweep(systems[-1], "jacobian", 2)
        elif failure == "nonfinite":
            _failing_sweep(systems[-1], "residual", 3)
    u = systems[0].problem.initial_state()
    with pytest.raises(LocalSolveError) as caught:
        systems[0].residual(u)
    direct = caught.value
    run = outer_newton(systems[1], u)
    named = 0 if failure == "budget" else 1
    assert str(direct).startswith(f"subdomain {named}: {message}")
    assert not run.converged and run.reason == f"outer iteration 0: {direct}"
    assert type(run.failure) is LocalSolveError
    for err in (direct, run.failure):
        assert err.subdomain == named
        assert len(err.residuals) == trail
    assert np.array_equal(run.failure.residuals, direct.residuals, equal_nan=True)


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
        monkeypatch.setattr(local_solver_mod, "dgtsv", _singular_dgtsv)
        return r

    system.residual = residual_then_singular
    run = outer_newton(system, system.problem.initial_state())
    assert run.reason.startswith("outer iteration 0: subdomain 0: "
                                 "singular local Jacobian")
    assert isinstance(run.failure, LocalSolveError)


@pytest.mark.parametrize("first, named", [(True, 3), (False, 2)],
                         ids=["own-first-column", "previous-last-column"])
def test_zero_pivot_in_stacked_block_names_subdomain_with_outer_context(
        first, named, monkeypatch):
    # all local blocks' halo responses are one stacked dgtsv call: a zero
    # pivot at subdomain 3's first column, or at subdomain 2's last, names
    # that subdomain
    system = _system("RASPEN1")
    start = sum(len(sub.overlap) for sub in layout_blocks(system.layout)[:3])
    zeroed = zero_pivot("dgtsv", start if first else start - 1)
    residual = system.residual

    def residual_then_singular(u):
        r = residual(u)
        monkeypatch.setattr(local_solver_mod, "dgtsv", zeroed)
        return r

    system.residual = residual_then_singular
    run = outer_newton(system, system.problem.initial_state())
    assert run.reason.startswith(f"outer iteration 0: subdomain "
                                 f"{named}: singular local Jacobian")
    assert isinstance(run.failure, LocalSolveError)


def _singular_dgtsv(dl, d, du, b, **kwargs):
    # LAPACK reports an exactly zero pivot U(1,1) as info = 1
    return dl, d, du, b, 1


# ---------------------------------------------------------------- fixed point

def _fp_setup(kind, M):
    prob = smooth_forchheimer(M, beta=1.0)
    lay = build_1d_layout(M, 8, 3, dirichlet=prob.dirichlet)
    return PreconditionedSystem(kind, prob, lay), prob


_ONE_LEVEL_SETUPS = {
    "1d": lambda: (smooth_forchheimer(60, beta=1.0), build_1d_layout(60, 6, 2)),
    "2d": lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
}


def _spied(prob):
    """Count prob's global residual and Jacobian evaluations."""
    calls = {"residual": 0, "jacobian": 0}
    for name in calls:
        def spy(u, evaluate=getattr(prob, name), name=name):
            calls[name] += 1
            return evaluate(u)
        setattr(prob, name, spy)
    return calls


@pytest.mark.parametrize("kind, setup", [
    ("RASPEN1", "1d"), ("RASPEN1", "2d"), ("ASPIN1", "1d"), ("ASPIN1", "2d"),
], ids=["1d", "2d", "aspin1-1d", "aspin1-2d"])
def test_raspen1_newton_evaluates_no_global_residual_or_jacobian(kind, setup):
    # local solves and their derivative blocks, exact or inexact, read the
    # problem's row kernels only, and block_positions reads the problem's
    # pattern, for all subdomains at once, when the system is built; the
    # iterations evaluate no global residual, and convergence evaluates
    # exactly two, F(u) and F(u0), to rule out a spurious zero
    prob, lay = _ONE_LEVEL_SETUPS[setup]()
    calls = _spied(prob)
    system = PreconditionedSystem(kind, prob, lay)
    assert outer_newton(system, prob.initial_state()).converged
    assert calls == {"residual": 2, "jacobian": 0}


@pytest.mark.parametrize("setup", _ONE_LEVEL_SETUPS)
@pytest.mark.parametrize("kind", ["RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2"])
def test_building_a_system_evaluates_no_global_residual_or_jacobian(kind, setup):
    prob, lay = _ONE_LEVEL_SETUPS[setup]()
    calls = _spied(prob)
    PreconditionedSystem(kind, prob, lay)
    assert calls == {"residual": 0, "jacobian": 0}


@pytest.mark.parametrize("setup", _ONE_LEVEL_SETUPS)
@pytest.mark.parametrize("kind", ["RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2"])
def test_a_two_level_system_builds_one_coarse_space(kind, setup, monkeypatch):
    # built with the system (which evaluates no Jacobian, as the test above
    # checks), and only read by its solves
    prob, lay = _ONE_LEVEL_SETUPS[setup]()
    spaces = []

    def counted(problem, layout):
        spaces.append(coarse_space(problem, layout))
        return spaces[-1]

    monkeypatch.setattr(precond_mod, "coarse_space", counted)
    system = PreconditionedSystem(kind, prob, lay)
    built = 1 if kind.endswith("2") else 0
    assert len(spaces) == built
    assert outer_newton(system, prob.initial_state()).converged
    assert len(spaces) == built


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
    assert run.reason.endswith(str(run.failure))
    assert isinstance(run.failure, LocalSolveError)
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

    settings = SolverSettings()

    def residual(self, u):
        return SimpleNamespace(value=u, coarse_count=0,
                               locals_=SimpleNamespace(inner_counts=(1,)))


def test_fixed_point_divergence_cutoff():
    run = fixed_point_solve(_DoublingSystem(), np.ones(4), max_steps=100,
                            u_ref=np.ones(4))
    assert not run.converged
    assert "diverged" in run.reason
    assert run.outer_iterations < 100
    assert run.ledger.error[-1] > newton_mod.DIVERGENCE_ERROR


class _IterateRecording:
    """A system whose every evaluation at u records the next iterate u + F(u)."""

    def __init__(self, system):
        self.system, self.settings, self.iterates = system, system.settings, []

    def residual(self, u):
        ev = self.system.residual(u)
        self.iterates.append(u + ev.value)
        return ev


@pytest.mark.parametrize("reference", ["solution", "zero"])
def test_fixed_point_errors_are_the_iterates_relative_l1_errors(reference):
    # the run takes ||u_ref||_1 once; each recorded error is still
    # relative_l1_error's float, the plain l1 norm for a zero reference
    system = _IterateRecording(_system("RASPEN1"))
    u_ref = (reference_solution(system.system.problem) if reference == "solution"
             else np.zeros(60))
    run = fixed_point_solve(system, np.zeros(60), max_steps=6, u_ref=u_ref)
    assert len(run.ledger.error) == len(system.iterates) == 6
    for err, u in zip(run.ledger.error, system.iterates):
        assert err == relative_l1_error(u, u_ref)
        if reference == "zero":
            assert err == np.linalg.norm(u, 1) > 0.0


def test_single_subdomain_fixed_point_is_one_step():
    prob = smooth_forchheimer(32, beta=1.0)
    lay = build_1d_layout(32, 1, 0, dirichlet=prob.dirichlet)
    system = PreconditionedSystem("RASPEN1", prob, lay)
    run = fixed_point_solve(system, prob.initial_state(), max_steps=5,
                            u_ref=reference_solution(prob))
    assert run.converged
    assert run.outer_iterations == 1


# --------------------------------------------------- warm starts along beta

def _ladder(betas):
    """outer_newton along betas, each run started from the last one's u."""
    runs, u = [], np.zeros(60)
    for beta in betas:
        runs.append(outer_newton(_system("RASPEN1", beta=beta), u))
        u = runs[-1].u
    return runs


def test_continuation_single_affine_stage():
    (run,) = _ladder([0.0])
    assert run.converged and run.outer_iterations == 1


def test_continuation_warm_start_benefit():
    chain = _ladder([0.0, 1.0])
    cold = outer_newton(_system("RASPEN1"), np.zeros(60))
    assert all(r.converged for r in chain) and cold.converged
    assert chain[1].outer_iterations < cold.outer_iterations


def test_continuation_five_stage_ladder():
    runs = _ladder([0.0, 0.1, 0.2, 0.5, 1.0])
    assert all(r.converged and r.ledger.LS_total >= 1 for r in runs)
    u_ref = reference_solution(smooth_forchheimer(60, beta=1.0))
    assert relative_l1_error(runs[-1].u, u_ref) <= 1e-6


# ------------------------------------------------------------------ reference

def test_direct_newton_counts_one_solve_per_step():
    prob = smooth_forchheimer(40, beta=1.0)
    run = direct_newton(prob, np.zeros(40))
    assert run.converged
    assert run.ledger.LS_total == run.outer_iterations
    assert all(i == 0 for i in run.ledger.ls_in)
    assert run.ledger.inner_counts == [()] * len(run.ledger)
    assert run.ledger.coarse_count == [0] * len(run.ledger)


def _zero_row(J, row=20):
    # stored zeros: the pattern stays, the row's entries are all 0
    J = J.tocsr(copy=True)
    J.data[J.indptr[row]:J.indptr[row + 1]] = 0.0
    return J


def test_direct_newton_ends_on_a_singular_jacobian():
    # SuperLU's "Factor is exactly singular" ends the run as a failure
    # that names the Newton step, as the other drivers' failures do
    prob = Repatterned(smooth_forchheimer(40, beta=1.0), _zero_row)
    run = direct_newton(prob, prob.initial_state())
    assert not run.converged and run.outer_iterations == 0
    assert isinstance(run.failure, SolveError)
    assert run.reason == f"Newton step 0: {run.failure}"
    assert str(run.failure).startswith("singular Jacobian")
    assert len(run.ledger) == 0 and run.ledger.LS_total == 0


def test_reference_solution_of_a_singular_jacobian_raises_solve_error():
    # the wrapper hides discrete_solution, so the reference is direct Newton's
    prob = Repatterned(smooth_forchheimer(40, beta=1.0), _zero_row)
    with pytest.raises(SolveError, match="^reference Newton failed: "
                                         "Newton step 0: singular Jacobian"):
        reference_solution(prob)


@pytest.mark.parametrize("make, reason", [
    (lambda: Repatterned(smooth_forchheimer(40, beta=1.0), _zero_row),
     "reference Newton failed: "),
    (lambda: smooth_forchheimer(40, beta=1.0, dirichlet=(-1e308, 1e308)),
     "flux integration: "),
], ids=["newton", "flux-integration"])
def test_reference_failure_is_no_subdomain_failure(make, reason):
    # both reference paths fail with a plain SolveError, never with the
    # LocalSolveError that marks a subdomain failure
    with pytest.raises(SolveError, match=f"^{reason}") as caught:
        reference_solution(make())
    assert not isinstance(caught.value, LocalSolveError)


@pytest.mark.parametrize("make", [
    lambda: smooth_forchheimer(40, beta=1.0),
    lambda: hard_forchheimer(40, beta=1.0, seed=11),
])
def test_reference_solution_solves_problem(make):
    prob = make()
    u = reference_solution(prob)
    assert np.linalg.norm(prob.residual(u), np.inf) <= 1e-11


@pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
def test_reference_solution_solves_a_rough_field(beta):
    # undamped direct Newton cycles on this field at every beta
    prob = hard_forchheimer(240, beta=beta, seed=4)
    u = reference_solution(prob)
    assert np.linalg.norm(prob.residual(u)) <= DISCRETE_RESIDUAL


ROUGH_1D = [(seed, beta) for seed in (1, 2, 3) for beta in (0.0, 1.0, 10.0, 100.0)]


@pytest.mark.parametrize("seed, beta", ROUGH_1D,
                         ids=[f"seed{s}-beta{b:g}" for s, b in ROUGH_1D])
def test_reference_solution_agrees_with_tight_direct_newton(seed, beta):
    # where tight direct Newton converges (6 of these 12), it finds the
    # same discrete solution
    prob = hard_forchheimer(240, beta=beta, seed=seed)
    u = reference_solution(prob)
    assert np.linalg.norm(prob.residual(u)) <= DISCRETE_RESIDUAL
    strict = SolverSettings(outer_tol=REFERENCE_TOL, max_outer=100)
    run = direct_newton(prob, prob.initial_state(), strict)
    if run.converged:
        assert relative_l1_error(u, run.u) <= 1e-12


@pytest.mark.parametrize("beta, dirichlet, solved", [
    (1.0, (0.0, 1e300), True), (0.0, (0.0, 1e300), True),
    (0.0, (0.0, 1e308), True), (1.0, (-1e308, 1e308), False),
], ids=["drop-1e300", "darcy-drop-1e300", "darcy-bound-overflows", "drop-overflows"])
def test_reference_solution_of_an_extreme_drop_ends(beta, dirichlet, solved):
    # the bisection ends; a solution within its roundoff bound returns
    # (test_problems checks both drop-1e300 bounds), also where ||u||
    # passes 1.8e308 but the bound, with ||u|| taken scaled, does not
    # (darcy-bound-overflows: 1.16e295), and a nan residual
    # (drop-overflows) raises instead of warning or returning
    prob = smooth_forchheimer(40, beta=beta, dirichlet=dirichlet)
    if solved:
        assert np.isfinite(reference_solution(prob)).all()
        return
    with pytest.raises(SolveError, match="^flux integration: residual norm ") as caught:
        reference_solution(prob)
    assert not isinstance(caught.value, LocalSolveError)


# ------------------------------------------- direct Newton's elimination order


def _reference_or_reason(problem):
    try:
        return reference_solution(problem).tobytes()
    except SolveError as exc:
        return str(exc)


_DIRECT_1D = [lambda: smooth_forchheimer(800, 1.0)] + [
    lambda seed=seed, beta=beta: hard_forchheimer(240, beta, seed=seed)
    for seed, beta in ROUGH_1D]
_DIRECT_1D_IDS = ["smooth-800"] + [f"rough-seed{s}-beta{b:g}" for s, b in ROUGH_1D]


@pytest.mark.parametrize("make", _DIRECT_1D, ids=_DIRECT_1D_IDS)
def test_direct_newton_in_1d_is_one_dgtsv_per_step_bit_for_bit(make):
    # a tridiagonal pattern solves each step by dgtsv on J's diagonals,
    # which the oracle reads from each J by J.diagonal(k)
    problem = make()
    run = direct_newton(problem, problem.initial_state())
    oracle = tridiagonal_newton(problem, problem.initial_state())
    assert run.u.tobytes() == oracle.u.tobytes()
    assert (run.converged, run.outer_iterations, run.reason) == (
        oracle.converged, oracle.outer_iterations, oracle.reason)
    assert run.ledger.residual_norm == oracle.ledger.residual_norm


@pytest.mark.parametrize("make", _DIRECT_1D, ids=_DIRECT_1D_IDS)
def test_direct_newton_in_1d_keeps_the_default_order_outcomes(make, monkeypatch):
    # at default settings dgtsv's steps end every run as SuperLU's
    # default-order (COLAMD) steps did, after as many steps and with the
    # same reason, at roundoff from its iterate: within cond(J) * eps,
    # with cond(J) below 2e7 on these fields; the references, which in 1D
    # take no Newton step, are the same under either
    problem = make()
    run = direct_newton(problem, problem.initial_state())
    oracle = default_order_newton(problem, problem.initial_state())
    assert (run.converged, run.outer_iterations, run.reason) == (
        oracle.converged, oracle.outer_iterations, oracle.reason)
    if run.converged:
        assert relative_l1_error(run.u, oracle.u) <= 2e7 * np.finfo(float).eps
    reference = _reference_or_reason(problem)
    monkeypatch.setattr(newton_mod, "direct_newton", default_order_newton)
    assert reference == _reference_or_reason(problem)


def _counted_splu(monkeypatch):
    """Record (permc_spec, L.nnz + U.nnz) for every splu call, keeping no factor."""
    calls, splu = [], spla.splu

    def counted(A, permc_spec=None, **kwargs):
        lu = splu(A, permc_spec=permc_spec, **kwargs)
        calls.append((permc_spec, lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def test_direct_newton_in_2d_orders_by_minimum_degree(monkeypatch):
    # on the 64 x 64 five-point pattern MMD on A^T + A fills L + U with
    # 126,532 entries against COLAMD's 220,624; the steps agree at roundoff
    problem = DiffusionProblem2D(64, 64)
    u0 = problem.initial_state()
    default = spla.splu(problem.jacobian(u0).tocsc())
    default_fill = default.L.nnz + default.U.nnz
    del default
    oracle = default_order_newton(problem, u0)
    calls = _counted_splu(monkeypatch)
    run = direct_newton(problem, u0)
    assert run.converged and oracle.converged
    assert run.outer_iterations == oracle.outer_iterations
    assert (np.linalg.norm(run.u - oracle.u, np.inf)
            <= 1e-12 * np.linalg.norm(oracle.u, np.inf))
    spec, fill = calls[0]
    assert spec == "MMD_AT_PLUS_A"
    assert fill <= 0.7 * default_fill


@pytest.mark.parametrize("problem", [DiffusionProblem2D(32, 32)], ids=["2d"])
def test_direct_newton_orders_once_per_run(problem, monkeypatch):
    # the first step chooses the order; every later one factors J(q, q)
    # in it, with no ordering of its own
    calls = _counted_splu(monkeypatch)
    jacobian, evaluations = problem.jacobian, []
    monkeypatch.setattr(problem, "jacobian",
                        lambda u: evaluations.append(u) or jacobian(u))
    run = direct_newton(problem, problem.initial_state())
    assert run.converged and run.outer_iterations >= 3
    assert [spec for spec, _ in calls] == (
        ["MMD_AT_PLUS_A"] + ["NATURAL"] * (run.outer_iterations - 1))
    assert len(evaluations) == run.outer_iterations


def test_direct_newton_in_1d_makes_no_splu_call(monkeypatch):
    # newton-1d's problem: every step is one dgtsv call, no SuperLU factor
    problem = smooth_forchheimer(800, 1.0)
    calls = _counted_splu(monkeypatch)
    solves = recorded_calls(monkeypatch, ("dgtsv",))
    run = direct_newton(problem, problem.initial_state())
    assert run.converged and run.outer_iterations == 20
    assert calls == [] and len(solves) == 20


def test_direct_newton_ends_on_a_jacobian_singular_at_a_later_step():
    # the pattern is built from one call of the change and step 0's
    # Jacobian from the second; the third, step 1's, is singular, so the
    # failure comes from the factor in the first step's order
    changes = []

    def zero_row_at_step_1(J):
        changes.append(J)
        return _zero_row(J) if len(changes) == 3 else J

    prob = Repatterned(smooth_forchheimer(40, beta=1.0), zero_row_at_step_1)
    run = direct_newton(prob, prob.initial_state())
    assert not run.converged and run.outer_iterations == 1
    assert isinstance(run.failure, SolveError)
    assert run.reason == f"Newton step 1: {run.failure}"
    assert str(run.failure).startswith("singular Jacobian (")
    assert len(run.ledger) == 1 and run.ledger.LS_total == 1


def test_direct_newton_ends_a_residual_whose_norm_overflows_as_diverged():
    # u(L) = 1e300 makes F(0) finite, up to 4.8e300, but its norm overflows:
    # the run ends diverged, and no overflow warning escapes
    prob = smooth_forchheimer(40, beta=0.0, dirichlet=(0.0, 1e300))
    assert np.isfinite(prob.residual(np.zeros(40))).all()
    run = direct_newton(prob, np.zeros(40))
    assert not run.converged and run.reason == "diverged"
    assert run.outer_iterations == 0 and run.ledger.residual_norm == [np.inf]


def test_direct_newton_ends_a_huge_2d_state_as_diverged_without_a_warning():
    # squaring 1e200 overflows in the face pass, and inf - inf follows: the
    # run ends diverged, and tier-1's filter turns no RuntimeWarning into
    # an error first
    run = direct_newton(DiffusionProblem2D(8, 8), np.full(64, 1e200))
    assert not run.converged and run.reason == "diverged"
    assert run.outer_iterations == 0 and not np.isfinite(run.ledger.residual_norm).any()

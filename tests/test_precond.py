"""Tests for the preconditioned systems against dense and FD oracles."""

import dataclasses

import numpy as np
import pytest
from oracles import dense_darcy_system, plain_newton, schwarz_preconditioners

import raspen.local_solver as local_solver_mod
import raspen.precond as precond_mod
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import SolverSettings, StaleCacheError
from raspen.precond import KINDS, PreconditionedSystem
from raspen.problems import DiffusionProblem2D, smooth_forchheimer

SETTINGS = SolverSettings()


def _forchheimer_setup(M=24, I=4, k=2, beta=1.0):
    return smooth_forchheimer(M, beta=beta), build_1d_layout(M, I, k)


def test_kind_and_mode_validation():
    prob, lay = _forchheimer_setup()
    with pytest.raises(ValueError):
        PreconditionedSystem("RASPEN3", prob, lay)
    with pytest.raises(ValueError):
        PreconditionedSystem("RASPEN1", prob, lay, jacobian_mode="inexact")
    with pytest.raises(ValueError):
        PreconditionedSystem("ASPIN1", prob, lay, jacobian_mode="sort-of")
    # defaults: exact for RASPEN, inexact for ASPIN
    assert PreconditionedSystem("raspen2", prob, lay).jacobian_mode == "exact"
    assert PreconditionedSystem("aspin1", prob, lay).jacobian_mode == "inexact"


@pytest.mark.parametrize("kind", KINDS)
def test_residual_vanishes_at_solution(kind):
    prob, lay = _forchheimer_setup()
    ustar = plain_newton(prob, np.zeros(24))
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    r = system.residual(ustar)
    assert np.linalg.norm(r, np.inf) <= 10 * SETTINGS.inner_tol


def test_affine_one_level_residuals():
    prob, lay = _forchheimer_setup(beta=0.0)
    A, b = dense_darcy_system(prob)
    M_ras, M_as = schwarz_preconditioners(A, lay)
    rng = np.random.default_rng(40)
    u = rng.standard_normal(24)
    got_ras = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS).residual(u)
    got_as = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS).residual(u)
    assert np.allclose(got_ras, M_ras @ (b - A @ u), atol=1e-10)
    assert np.allclose(got_as, M_as @ (b - A @ u), atol=1e-10)


def test_affine_two_level_residual():
    # multiplicative coarse correction: with Q = P_0 A_0^{-1} R~_0 the
    # two-level function is (Q + M_ras (I - A Q))(b - A u)
    prob, lay = _forchheimer_setup(beta=0.0)
    A, b = dense_darcy_system(prob)
    M_ras, _ = schwarz_preconditioners(A, lay)
    P0 = lay.P0.toarray()
    Q = P0 @ np.linalg.solve(P0.T @ A @ P0, P0.T)
    rng = np.random.default_rng(41)
    u = rng.standard_normal(24)
    want = (Q + M_ras @ (np.eye(24) - A @ Q)) @ (b - A @ u)
    got = PreconditionedSystem("RASPEN2", prob, lay, SETTINGS).residual(u)
    assert np.allclose(got, want, atol=1e-9)


def test_restricted_equals_additive_outside_overlap():
    prob, lay = _forchheimer_setup(M=30, I=3, k=2)
    rng = np.random.default_rng(42)
    u = 0.3 * rng.standard_normal(30)
    r_ras = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS).residual(u)
    r_as = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS).residual(u)
    cover = np.zeros(30, dtype=int)
    for sub in lay.subdomains:
        cover[sub.overlap] += 1
    once = cover == 1
    assert once.any() and (~once).any()
    assert np.allclose(r_ras[once], r_as[once], atol=1e-12)
    assert not np.allclose(r_ras[~once], r_as[~once], atol=1e-9)


@pytest.mark.parametrize("kind,mode", [
    ("RASPEN1", "exact"),
    ("ASPIN1", "exact"),
    ("ASPIN1", "inexact"),
    ("RASPEN2", "exact"),
    ("ASPIN2", "exact"),
    ("ASPIN2", "inexact"),
])
def test_action_zero_and_linearity(kind, mode):
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
    rng = np.random.default_rng(43)
    u = 0.2 * rng.standard_normal(24)
    system.residual(u)
    assert np.allclose(system.jacobian_action(u, np.zeros(24)), 0.0)
    v, w = rng.standard_normal(24), rng.standard_normal(24)
    a = system.jacobian_action(u, 1.5 * v - 2.0 * w)
    b = 1.5 * system.jacobian_action(u, v) - 2.0 * system.jacobian_action(u, w)
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("kind", ["RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2"])
def test_exact_action_matches_fd_forchheimer(kind):
    prob, lay = smooth_forchheimer(60, beta=1.0), build_1d_layout(60, 4, 2)
    tight = SolverSettings(inner_tol=1e-12)
    system = PreconditionedSystem(kind, prob, lay, tight, jacobian_mode="exact")
    rng = np.random.default_rng(44)
    u = 0.2 * rng.standard_normal(60)
    system.residual(u)
    for _ in range(5):
        v = rng.standard_normal(60)
        eps = 1e-6
        rp = PreconditionedSystem(kind, prob, lay, tight, "exact")
        rm = PreconditionedSystem(kind, prob, lay, tight, "exact")
        fd = (rp.residual(u + eps * v) - rm.residual(u - eps * v)) / (2 * eps)
        got = system.jacobian_action(u, v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


@pytest.mark.parametrize("kind", ["RASPEN1", "RASPEN2"])
def test_exact_action_matches_fd_diffusion2d(kind):
    prob, lay = DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1)
    tight = SolverSettings(inner_tol=1e-12)
    system = PreconditionedSystem(kind, prob, lay, tight)
    rng = np.random.default_rng(45)
    u = 0.2 * rng.standard_normal(64)
    system.residual(u)
    for _ in range(3):
        v = rng.standard_normal(64)
        eps = 1e-6
        probe = PreconditionedSystem(kind, prob, lay, tight)
        fd = (probe.residual(u + eps * v) - probe.residual(u - eps * v)) / (2 * eps)
        got = system.jacobian_action(u, v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_affine_actions_dense_oracle():
    prob, lay = _forchheimer_setup(beta=0.0)
    A, _ = dense_darcy_system(prob)
    M_ras, M_as = schwarz_preconditioners(A, lay)
    rng = np.random.default_rng(46)
    u = rng.standard_normal(24)

    ras = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS)
    ras.residual(u)
    exact = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS, "exact")
    exact.residual(u)
    inexact = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS, "inexact")
    inexact.residual(u)
    for _ in range(3):
        v = rng.standard_normal(24)
        assert np.allclose(ras.jacobian_action(u, v), -(M_ras @ (A @ v)), atol=1e-10)
        ae = exact.jacobian_action(u, v)
        ai = inexact.jacobian_action(u, v)
        assert np.allclose(ae, -(M_as @ (A @ v)), atol=1e-10)
        assert np.allclose(ae, ai, atol=1e-10)


def test_fixed_point_at_solution_and_single_domain():
    prob, lay = _forchheimer_setup()
    ustar = plain_newton(prob, np.zeros(24))
    system = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS)
    assert np.allclose(system.fixed_point_step(ustar), ustar, atol=1e-7)

    lay1 = build_1d_layout(24, 1, 0)
    one = PreconditionedSystem("RASPEN1", prob, lay1, SETTINGS)
    u1 = one.fixed_point_step(np.zeros(24))
    assert np.allclose(u1, ustar, atol=1e-7)


def test_fixed_point_dichotomy_compact():
    # Restricted gluing converges as a plain iteration, additive stalls.
    # The additive stall level is the rough component of the initial
    # error frozen by the overlap double-count, so the start must be
    # oscillatory for the stall to sit visibly above the noise floor.
    prob = smooth_forchheimer(100, beta=1.0, L=1.0)
    lay = build_1d_layout(100, 8, 3)
    ustar = plain_newton(prob, np.zeros(100))
    scale = np.linalg.norm(ustar, 1)
    x = (np.arange(100) + 0.5) / 100.0
    u0 = 0.5 * np.sin(40 * np.pi * x)

    def run(kind, steps):
        system = PreconditionedSystem(kind, prob, lay, SETTINGS)
        u = u0.copy()
        errs = []
        for _ in range(steps):
            u = system.fixed_point_step(u)
            errs.append(np.linalg.norm(u - ustar, 1) / scale)
        return np.array(errs)

    ras = run("RASPEN1", 60)
    assert ras[-1] < 0.15
    assert np.all(np.diff(ras) < 1e-12)
    as_ = run("ASPIN1", 60)
    assert as_[-1] > 1e-1
    two = run("RASPEN2", 60)
    assert two[-1] < 1e-4
    assert two[-1] < ras[-1]


@pytest.mark.parametrize("kind", ["RASPEN1", "RASPEN2"])
def test_local_blocks_factored_only_for_actions(kind, monkeypatch):
    # a fixed-point step applies no derivative, so its only local
    # factorizations are the inner Newton steps', one stacked band per step
    # of the slowest subdomain; the first Jacobian action then factors all
    # blocks once, as one stacked band, and later actions reuse it
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    factored, solved = [], []
    dgbtrf, sweep = local_solver_mod.dgbtrf, precond_mod.sweep_locals

    def counting_dgbtrf(ab, kl, ku, **kwargs):
        factored.append(ab.shape)
        return dgbtrf(ab, kl, ku, **kwargs)

    def recording_sweep(*args):
        out = sweep(*args)
        solved.append(out[0])
        return out

    monkeypatch.setattr(local_solver_mod, "dgbtrf", counting_dgbtrf)
    monkeypatch.setattr(precond_mod, "sweep_locals", recording_sweep)
    u = 0.2 * np.ones(24)
    system.fixed_point_step(u)
    inner = max(max(res.inner_counts) for res in solved)
    assert inner > 0
    assert len(factored) == inner
    v = np.ones(24)
    system.jacobian_action(u, v)
    system.jacobian_action(u, v)
    assert len(factored) == inner + 1


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
@pytest.mark.parametrize("kind, mode", [
    ("RASPEN1", None), ("ASPIN1", None), ("RASPEN2", None), ("ASPIN2", None),
    ("ASPIN1", "exact"), ("ASPIN2", "exact"),
])
def test_actions_factor_once_and_solve_once(make, kind, mode, monkeypatch):
    # every local derivative of an evaluation lives in one stacked band:
    # the first action factors it once, and each action back-substitutes once
    prob, lay = make()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
    u = prob.initial_state() + 0.1
    system.residual(u)
    calls = {"dgbtrf": 0, "dgbtrs": 0}
    for name in calls:
        def counting(*args, lapack=getattr(local_solver_mod, name), name=name,
                     **kwargs):
            calls[name] += 1
            return lapack(*args, **kwargs)
        monkeypatch.setattr(local_solver_mod, name, counting)
    v = np.random.default_rng(43).standard_normal(prob.dof_count)
    for actions in (1, 2, 3):
        system.jacobian_action(u, v)
        assert calls == {"dgbtrf": 1, "dgbtrs": actions}


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
@pytest.mark.parametrize("kind, mode", [
    ("RASPEN1", None), ("ASPIN1", None), ("RASPEN2", None), ("ASPIN2", "exact"),
])
def test_actions_evaluate_one_jacobian_kernel_on_shared_geometry(make, kind, mode,
                                                                 monkeypatch):
    # the blocks of an evaluation are one Jacobian-kernel call, at the
    # solved stack (exact) or at u (inexact), and one dgbtrf; the stacked
    # geometry is the system's, built once, so two evaluations' blocks
    # share it
    prob, lay = make()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
    stack, calls = system._positions, {"kernel": 0, "dgbtrf": 0}

    def counted_kernel(X):
        calls["kernel"] += 1
        return stack.jacobian(X)

    def counted_dgbtrf(*args, dgbtrf=local_solver_mod.dgbtrf, **kwargs):
        calls["dgbtrf"] += 1
        return dgbtrf(*args, **kwargs)

    system._positions = dataclasses.replace(stack, jacobian=counted_kernel)
    monkeypatch.setattr(local_solver_mod, "dgbtrf", counted_dgbtrf)
    v = np.random.default_rng(44).standard_normal(prob.dof_count)
    blocks = []
    for u in (prob.initial_state() + 0.1, prob.initial_state() + 0.2):
        system.residual(u)
        calls.update(kernel=0, dgbtrf=0)
        for _ in range(3):
            system.jacobian_action(u, v)
        assert calls == {"kernel": 1, "dgbtrf": 1}
        blocks.append(system._cache.block)
    first, second = blocks
    assert first is not second
    assert first.positions is second.positions is system._positions


@pytest.mark.parametrize("kind", KINDS)
def test_vectors_of_another_length_are_rejected(kind):
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    wrong = "^expected state vector of length 40$"
    with pytest.raises(ValueError, match=wrong):
        system.residual(np.zeros(43))
    u = np.zeros(40)
    system.residual(u)
    for x, v in ((np.zeros(43), np.ones(40)), (u, np.ones(43)),
                 (u, np.ones((40, 1)))):
        with pytest.raises(ValueError, match=wrong):
            system.jacobian_action(x, v)


def test_stale_cache_paths():
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS)
    v = np.ones(24)
    with pytest.raises(StaleCacheError):
        system.jacobian_action(np.zeros(24), v)
    with pytest.raises(StaleCacheError):
        system.last_counts
    u = np.zeros(24)
    system.residual(u)
    system.jacobian_action(u, v)
    with pytest.raises(StaleCacheError):
        system.jacobian_action(u + 1e-3, v)


@pytest.mark.parametrize("kind", ["RASPEN2", "ASPIN2"])
def test_two_level_stale_cache(kind, monkeypatch):
    # the coarse actions check no state: the system's one check raises
    # before a coarse or local action runs at a state it was not solved at
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    name = ("fas_correction_jacobian_action" if kind == "RASPEN2"
            else "aspin_coarse_jacobian_action")
    coarse_action, calls = getattr(precond_mod, name), []

    def counted(*args):
        calls.append(args)
        return coarse_action(*args)

    monkeypatch.setattr(precond_mod, name, counted)
    u, v = np.zeros(24), np.ones(24)
    system.residual(u)
    system.jacobian_action(u, v)
    assert len(calls) == 1
    with pytest.raises(StaleCacheError):
        system.jacobian_action(u + 1e-3, v)
    system.residual(u + 1e-3)
    with pytest.raises(StaleCacheError):
        system.jacobian_action(u, v)
    assert len(calls) == 1


def test_last_counts_and_u0_star_cached():
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem("ASPIN2", prob, lay, SETTINGS)
    star1 = system.u0_star
    star2 = system.u0_star
    assert star1 is star2
    system.residual(np.zeros(24))
    mx, mn = system.last_counts
    assert mx >= mn >= 0
    assert mx >= 1

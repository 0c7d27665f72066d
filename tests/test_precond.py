"""Tests for the preconditioned systems against dense and FD oracles."""

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (Kernels, call_counts, dense_darcy_system, layout_blocks,
                     plain_newton, recorded_calls, schwarz_preconditioners)

import raspen.coarse as coarse_mod
import raspen.precond as precond_mod
from raspen.coarse import CoarseSolveError, coarse_residual, coarse_space
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import LocalSolveError, SolverSettings, block_positions
from raspen.newton import outer_newton
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
    r = system.residual(ustar).value
    assert np.linalg.norm(r, np.inf) <= 10 * SETTINGS.inner_tol


def test_affine_one_level_residuals():
    prob, lay = _forchheimer_setup(beta=0.0)
    A, b = dense_darcy_system(prob)
    M_ras, M_as = schwarz_preconditioners(A, lay)
    rng = np.random.default_rng(40)
    u = rng.standard_normal(24)
    got_ras = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS).residual(u).value
    got_as = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS).residual(u).value
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
    got = PreconditionedSystem("RASPEN2", prob, lay, SETTINGS).residual(u).value
    assert np.allclose(got, want, atol=1e-9)


def test_restricted_equals_additive_outside_overlap():
    prob, lay = _forchheimer_setup(M=30, I=3, k=2)
    rng = np.random.default_rng(42)
    u = 0.3 * rng.standard_normal(30)
    r_ras = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS).residual(u).value
    r_as = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS).residual(u).value
    cover = np.zeros(30, dtype=int)
    for sub in layout_blocks(lay):
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
    ev = system.residual(u)
    assert np.allclose(system.jacobian_action(ev, np.zeros(24)), 0.0)
    v, w = rng.standard_normal(24), rng.standard_normal(24)
    a = system.jacobian_action(ev, 1.5 * v - 2.0 * w)
    b = 1.5 * system.jacobian_action(ev, v) - 2.0 * system.jacobian_action(ev, w)
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("kind", ["RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2"])
def test_exact_action_matches_fd_forchheimer(kind):
    prob, lay = smooth_forchheimer(60, beta=1.0), build_1d_layout(60, 4, 2)
    tight = SolverSettings(inner_tol=1e-12)
    system = PreconditionedSystem(kind, prob, lay, tight, jacobian_mode="exact")
    rng = np.random.default_rng(44)
    u = 0.2 * rng.standard_normal(60)
    ev = system.residual(u)
    for _ in range(5):
        v = rng.standard_normal(60)
        eps = 1e-6
        rp = PreconditionedSystem(kind, prob, lay, tight, "exact")
        rm = PreconditionedSystem(kind, prob, lay, tight, "exact")
        fd = (rp.residual(u + eps * v).value
              - rm.residual(u - eps * v).value) / (2 * eps)
        got = system.jacobian_action(ev, v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


@pytest.mark.parametrize("kind", ["RASPEN1", "RASPEN2"])
def test_exact_action_matches_fd_diffusion2d(kind):
    prob, lay = DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1)
    tight = SolverSettings(inner_tol=1e-12)
    system = PreconditionedSystem(kind, prob, lay, tight)
    rng = np.random.default_rng(45)
    u = 0.2 * rng.standard_normal(64)
    ev = system.residual(u)
    for _ in range(3):
        v = rng.standard_normal(64)
        eps = 1e-6
        probe = PreconditionedSystem(kind, prob, lay, tight)
        fd = (probe.residual(u + eps * v).value
              - probe.residual(u - eps * v).value) / (2 * eps)
        got = system.jacobian_action(ev, v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_affine_actions_dense_oracle():
    prob, lay = _forchheimer_setup(beta=0.0)
    A, _ = dense_darcy_system(prob)
    M_ras, M_as = schwarz_preconditioners(A, lay)
    rng = np.random.default_rng(46)
    u = rng.standard_normal(24)

    ras = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS)
    ras_ev = ras.residual(u)
    exact = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS, "exact")
    exact_ev = exact.residual(u)
    inexact = PreconditionedSystem("ASPIN1", prob, lay, SETTINGS, "inexact")
    inexact_ev = inexact.residual(u)
    for _ in range(3):
        v = rng.standard_normal(24)
        assert np.allclose(ras.jacobian_action(ras_ev, v), -(M_ras @ (A @ v)),
                           atol=1e-10)
        ae = exact.jacobian_action(exact_ev, v)
        ai = inexact.jacobian_action(inexact_ev, v)
        assert np.allclose(ae, -(M_as @ (A @ v)), atol=1e-10)
        assert np.allclose(ae, ai, atol=1e-10)


def test_fixed_point_at_solution_and_single_domain():
    prob, lay = _forchheimer_setup()
    ustar = plain_newton(prob, np.zeros(24))
    system = PreconditionedSystem("RASPEN1", prob, lay, SETTINGS)
    assert np.allclose(ustar + system.residual(ustar).value, ustar, atol=1e-7)

    lay1 = build_1d_layout(24, 1, 0)
    one = PreconditionedSystem("RASPEN1", prob, lay1, SETTINGS)
    u1 = one.residual(np.zeros(24)).value
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
            u = u + system.residual(u).value
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
    # a fixed-point step applies no derivative, so its only local solves
    # are the inner Newton steps', one stacked dgtsv call per step of the
    # slowest subdomain on this 1D stack; the first Jacobian action then
    # solves all blocks' halo responses in one more stacked dgtsv call, and
    # later actions reuse them; nothing is band factored
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    names, solved = ("dgbtrf", "dgtsv"), []
    sweep = precond_mod.sweep_locals

    def recording_sweep(*args):
        out = sweep(*args)
        solved.append(out)
        return out

    calls = recorded_calls(monkeypatch, names)
    monkeypatch.setattr(precond_mod, "sweep_locals", recording_sweep)
    u = 0.2 * np.ones(24)
    ev = system.residual(u)
    inner = max(max(res.inner_counts) for res in solved)
    assert inner > 0
    assert call_counts(calls, names) == {"dgbtrf": 0, "dgtsv": inner}
    v = np.ones(24)
    system.jacobian_action(ev, v)
    system.jacobian_action(ev, v)
    assert call_counts(calls, names) == {"dgbtrf": 0, "dgtsv": inner + 1}


@pytest.mark.parametrize("kind", KINDS)
def test_tridiagonal_stack_never_takes_band_lu(kind, monkeypatch):
    # every 1D solve, in sweeps, local derivatives and actions, is a dgtsv
    # call: no band factor is ever made or used
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    calls = recorded_calls(monkeypatch, ("dgtsv", "dgbtrf", "dgbtrs", "dtbsv"))
    assert outer_newton(system, prob.initial_state()).converged
    assert {name for name, _ in calls} == {"dgtsv"}


@pytest.mark.parametrize("kind, LS, ls_G", [
    ("RASPEN1", 85, [25, 27, 27, 0]), ("ASPIN1", 124, [29, 29, 29, 30, 0]),
], ids=["RASPEN1", "ASPIN1"])
def test_wide_band_stack_with_a_small_halo_keeps_its_band_factors(kind, LS, ls_G):
    # 64 x 64 in two subdomains: h = kl + ku = 66, so a halo response would
    # cost h right-hand sides where each action's band solve costs one;
    # the band form halves outer_newton's time here and keeps the counts
    # measured with the halo form: RASPEN1 3/85 and ASPIN1 4/124
    prob = DiffusionProblem2D(64, 64)
    lay = build_2d_layout(64, 64, 2, 1, dirichlet_value=1.0)
    system = PreconditionedSystem(kind, prob, lay)
    stack = system._positions
    assert stack.halo == stack.kl + stack.ku == 66 and stack.diagonals is None
    ev = system.residual(prob.initial_state())
    system.jacobian_action(ev, np.ones(prob.dof_count))
    assert ev.block.lu is not None
    run = outer_newton(system, prob.initial_state())
    assert run.converged and run.ledger.ls_G == ls_G
    assert (run.outer_iterations, run.ledger.LS_total) == (len(ls_G) - 1, LS)


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
@pytest.mark.parametrize("kind, mode", [
    ("RASPEN1", None), ("ASPIN1", None), ("RASPEN2", None), ("ASPIN2", None),
    ("ASPIN1", "exact"), ("ASPIN2", "exact"),
])
def test_actions_factor_once_and_solve_once(make, kind, mode, monkeypatch):
    # every local derivative of an evaluation is one stacked LAPACK call,
    # made by the first action: on the tridiagonal 1D stack one dgtsv call
    # solves for the halo response, with h = 2 right-hand sides, and no
    # action solves again; on the 2D band stack dgbtrf factors once and
    # swaps no rows, so each action solves with L, then with U, two
    # triangular band solves and no dgbtrs
    prob, lay = make()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
    stack = system._positions
    halo = not isinstance(prob, DiffusionProblem2D)
    assert (stack.diagonals is not None) == halo
    assert (stack.halo, stack.kl + stack.ku) == ((2, 2) if halo else (18, 10))
    ev = system.residual(prob.initial_state() + 0.1)
    names = ("dgtsv", "dgbtrf", "dgbtrs", "dtbsv")
    calls = recorded_calls(monkeypatch, names)
    v = np.random.default_rng(43).standard_normal(prob.dof_count)
    for actions in (1, 2, 3):
        system.jacobian_action(ev, v)
        assert call_counts(calls, names) == (
            {"dgtsv": 1, "dgbtrf": 0, "dgbtrs": 0, "dtbsv": 0} if halo
            else {"dgtsv": 0, "dgbtrf": 1, "dgbtrs": 0, "dtbsv": 2 * actions})
    assert [np.shape(args[3])[1:] for name, args in calls if name == "dgtsv"] == (
        [(2,)] if halo else [])


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
@pytest.mark.parametrize("kind, mode", [
    ("RASPEN1", None), ("ASPIN1", None), ("RASPEN2", None), ("ASPIN2", None),
    ("ASPIN1", "exact"), ("ASPIN2", "exact"),
])
def test_live_evaluations_are_independent(make, kind, mode):
    # an evaluation carries everything its actions read: a later evaluation
    # of the same system at another state, or a write into the caller's u,
    # changes no bit of its value or of its actions
    prob, lay = make()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
    fresh = [PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
             for _ in range(2)]
    v = np.random.default_rng(47).standard_normal(prob.dof_count)
    states = [prob.initial_state() + 0.1, prob.initial_state() + 0.2]
    saved = [u.copy() for u in states]
    live = []
    for u in states:
        live.append(system.residual(u))
        u += 1.0
    system.jacobian_action(live[1], v)
    for ev, u, other in zip(live, saved, fresh):
        want = other.residual(u)
        assert not ev.u.flags.writeable and ev.u.tobytes() == u.tobytes()
        assert ev.value.tobytes() == want.value.tobytes()
        for _ in range(2):
            assert (system.jacobian_action(ev, v).tobytes()
                    == other.jacobian_action(want, v).tobytes())


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
    # solved stack (exact) or at u (inexact), and one LAPACK call: dgtsv
    # for the 1D halo response, dgbtrf for the 2D band factors; the
    # stacked geometry is the system's, built once, so two evaluations'
    # blocks share it
    prob, lay = make()
    system = PreconditionedSystem(kind, prob, lay, SETTINGS, jacobian_mode=mode)
    stack, kernel_calls = system._positions, []
    solver = "dgbtrf" if isinstance(prob, DiffusionProblem2D) else "dgtsv"

    def counted_kernel(faces):  # the Jacobian values every derivation reads
        kernel_calls.append(1)
        return stack.kernels.values_of(faces)

    system._positions = dataclasses.replace(
        stack, kernels=Kernels(stack.kernels, values_of=counted_kernel))
    calls = recorded_calls(monkeypatch, ("dgtsv", "dgbtrf"))
    v = np.random.default_rng(44).standard_normal(prob.dof_count)
    blocks = []
    for u in (prob.initial_state() + 0.1, prob.initial_state() + 0.2):
        ev = system.residual(u)
        del kernel_calls[:], calls[:]
        for _ in range(3):
            system.jacobian_action(ev, v)
        assert (len(kernel_calls), [name for name, _ in calls]) == (1, [solver])
        blocks.append(ev.block)
    first, second = blocks
    assert first is not second
    assert first.positions is second.positions is system._positions


@pytest.mark.parametrize("kind", ["ASPIN1", "ASPIN2"])
def test_inexact_blocks_are_taken_at_the_gathered_state(kind):
    # ASPIN's inexact blocks read the same local vector a sweep starts from
    prob, lay = smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    stack, seen = system._positions, []

    def recording(X):
        seen.append(X.copy())
        return stack.kernels.faces(X)

    system._positions = dataclasses.replace(
        stack, kernels=Kernels(stack.kernels, faces=recording))
    u = prob.initial_state() + 0.1
    ev = system.residual(u)
    del seen[:]
    system.jacobian_action(ev, np.ones(24))
    (X,) = seen
    assert X.tobytes() == np.concatenate((u[lay.cells], u)).tobytes()


def _counted_builders(monkeypatch):
    """Count the stack and coarse-space builds precond makes, by name."""
    built = {"block_positions": 0, "coarse_space": 0}
    for name in built:
        def count(problem, layout, build=getattr(precond_mod, name), name=name):
            built[name] += 1
            return build(problem, layout)
        monkeypatch.setattr(precond_mod, name, count)
    return built


@pytest.mark.parametrize("make, lay, other_lay", [
    (lambda: smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2),
     build_1d_layout(24, 3, 1)),
    (lambda: DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1),
     build_2d_layout(8, 8, 4, 1)),
], ids=["1d", "2d"])
def test_systems_on_one_problem_and_layout_share_one_set_up(make, lay, other_lay,
                                                            monkeypatch):
    # the stack and, for the two-level kinds, the coarse space are built
    # once per (problem, layout) and kept on the problem
    built = _counted_builders(monkeypatch)
    prob = make()
    systems = [PreconditionedSystem(kind, prob, lay) for kind in KINDS + KINDS]
    assert built == {"block_positions": 1, "coarse_space": 1}
    assert len({id(s._positions) for s in systems}) == 1
    assert len({id(s._coarse) for s in systems if s.kind.endswith("2")}) == 1
    assert all(s._coarse is None for s in systems if s.kind.endswith("1"))
    # another layout, or another problem, gets its own set-up
    for p, la in ((prob, other_lay), (make(), lay)):
        system = PreconditionedSystem("RASPEN2", p, la)
        assert system._positions is not systems[0]._positions
        assert system._coarse is not systems[2]._coarse
        # the set-up refers to its problem through a weak proxy, equal to it
        assert system._positions.problem == p and system._positions.layout is la
    assert built == {"block_positions": 3, "coarse_space": 3}
    # a one-level kind builds no coarse space, even on a fresh pair
    PreconditionedSystem("RASPEN1", make(), lay)
    assert built == {"block_positions": 4, "coarse_space": 3}


@pytest.mark.parametrize("make, lay, tridiagonal", [
    (lambda: smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2), True),
    (lambda: DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1), False),
], ids=["1d", "2d"])
def test_shared_set_ups_are_read_only(make, lay, tridiagonal):
    # every system on a (problem, layout) reads the layout, the stack and
    # the coarse space, so no array of theirs may be written, a CSR
    # matrix's data, indices and indptr included
    system = PreconditionedSystem("RASPEN2", make(), lay)
    stack = system._positions
    assert (stack.response is not None) is (stack.owned is not None) is tridiagonal
    for held in (lay, stack, system._coarse):
        for f in dataclasses.fields(held):
            value = getattr(held, f.name)
            arrays = ((value.data, value.indices, value.indptr) if sp.issparse(value)
                      else (value,) if isinstance(value, np.ndarray) else ())
            for a in arrays:
                assert not a.flags.writeable, f"{type(held).__name__}.{f.name}"


def test_a_fresh_problem_holds_no_set_up():
    # set-ups are made by the first system on a problem, so a fresh
    # problem pickles as it did, whatever systems other problems hold
    used, (fresh, lay) = _forchheimer_setup()[0], _forchheimer_setup()
    for kind in KINDS:
        PreconditionedSystem(kind, used, lay)
    assert "_setups" not in vars(fresh)
    assert pickle.dumps(fresh) == pickle.dumps(_forchheimer_setup()[0])
    assert "_setups" in vars(used)
    # a used problem pickles and copies without its set-ups, and a copy
    # builds its own
    for twin in (pickle.loads(pickle.dumps(used)), copy.copy(used)):
        assert "_setups" not in vars(twin)
        system = PreconditionedSystem("RASPEN1", twin, lay)
        assert system._positions is not used._setups[lay]["stack"]
        assert outer_newton(system, twin.initial_state()).converged


def test_a_problems_set_ups_are_freed_with_it():
    # a set-up refers to its problem weakly, so no reference cycle keeps
    # either alive once the problem is dropped: no collection is needed
    prob, lay = _forchheimer_setup()
    for kind in KINDS:
        assert outer_newton(PreconditionedSystem(kind, prob, lay),
                            prob.initial_state()).converged
    alive = weakref.ref(prob)
    stack = weakref.ref(prob._setups[lay]["stack"])
    gc.disable()
    try:
        del prob
        assert alive() is None and stack() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cells", [60, 140])
def test_builders_reject_a_layout_of_another_size(cells):
    prob, lay = smooth_forchheimer(100, 1.0), build_1d_layout(cells, 4, 2)
    wrong = "^problem and layout dimensions disagree$"
    for build in (block_positions, coarse_space):
        with pytest.raises(ValueError, match=wrong):
            build(prob, lay)
    for kind in KINDS:
        with pytest.raises(ValueError, match=wrong):
            PreconditionedSystem(kind, prob, lay)


@pytest.mark.parametrize("kind", KINDS)
def test_vectors_of_another_length_are_rejected(kind):
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    wrong = "^expected state vector of length 40$"
    with pytest.raises(ValueError, match=wrong):
        system.residual(np.zeros(43))
    ev = system.residual(np.zeros(40))
    for v in (np.ones(43), np.ones((40, 1))):
        with pytest.raises(ValueError, match=wrong):
            system.jacobian_action(ev, v)


def test_u0_star_cached():
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem("ASPIN2", prob, lay, SETTINGS)
    base1 = system.coarse_base
    base2 = system.coarse_base
    assert base1 is base2
    space = coarse_space(prob, lay)
    assert np.linalg.norm(coarse_residual(space, base1.correction)) <= SETTINGS.inner_tol


@pytest.mark.parametrize("value", [1e308, np.nan], ids=["overflow", "nan"])
@pytest.mark.parametrize("kind, error", [
    ("RASPEN1", LocalSolveError), ("ASPIN1", LocalSolveError),
    ("RASPEN2", CoarseSolveError), ("ASPIN2", CoarseSolveError),
])
def test_nonfinite_state_fails_the_evaluation(kind, error, value):
    # F(u) is non-finite in rows 4-6: no kind may return a finite residual
    # or raise anything but a SolveError, which a harness row records
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    u = np.zeros(40)
    u[5] = value
    with pytest.raises(error) as caught:
        system.residual(u)
    assert "non-finite" in str(caught.value)


_HUGE_STATES = {
    "1d-inf": lambda: (smooth_forchheimer(40, 1.0), build_1d_layout(40, 4, 2), np.inf),
    "2d-inf": lambda: (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1), np.inf),
    "2d-1e200": lambda: (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1), 1e200),
}


@pytest.mark.parametrize("state", _HUGE_STATES)
@pytest.mark.parametrize("kind, what", [("RASPEN2", "FAS coarse correction"),
                                        ("ASPIN2", "AS coarse correction")])
def test_a_two_level_evaluation_at_a_huge_state_fails_without_a_warning(
        kind, what, state):
    # the coarse path's fine face passes read inf - inf (and square 1e200
    # in 2D) as the sweep's do, under its errstate: the evaluation raises
    # its CoarseSolveError, and tier-1's filter turns no RuntimeWarning
    # into an error first
    prob, lay, value = _HUGE_STATES[state]()
    u = prob.initial_state()
    u[5] = value
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    with pytest.raises(CoarseSolveError,
                       match=f"^{what}: coarse Newton produced non-finite values$"):
        system.residual(u)


@pytest.mark.parametrize("kind", KINDS)
def test_nonfinite_direction_gives_a_nonfinite_action(kind):
    # GMRES ends its solve at a non-finite action, so every kind must return
    # one for a nan direction rather than raise; the evaluation stays usable
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    system = PreconditionedSystem(kind, prob, lay, SETTINGS)
    ev = system.residual(prob.initial_state())
    v = np.ones(40)
    v[5] = np.nan
    assert not np.isfinite(system.jacobian_action(ev, v)).all()
    assert np.isfinite(system.jacobian_action(ev, np.ones(40))).all()


def test_aspin2_evaluation_factors_one_coarse_jacobian_per_iterate(monkeypatch):
    # the AS coarse correction starts at u_0*: an evaluation derives and
    # factors one coarse Jacobian per coarse Newton iterate, its start's
    # included, from the values of the problem's all-rows kernels, and
    # evaluates no global Jacobian
    prob, lay = _forchheimer_setup()
    system = PreconditionedSystem("ASPIN2", prob, lay, SETTINGS)
    system.coarse_base
    kernels = system._coarse.kernels
    calls, values_of = [], kernels.values_of
    monkeypatch.setattr(kernels, "values_of", lambda f: calls.append(f) or values_of(f))

    def jacobian(u):
        raise AssertionError("an evaluation evaluated the global Jacobian")
    monkeypatch.setattr(prob, "jacobian", jacobian)
    factored, dgetrf = [], coarse_mod.dgetrf
    monkeypatch.setattr(coarse_mod, "dgetrf", lambda J: factored.append(J) or dgetrf(J))
    for u in (prob.initial_state() + 0.1, np.linspace(0.0, 1.0, 24)):
        del calls[:], factored[:]
        ev = system.residual(u)
        assert ev.coarse_count >= 2
        assert len(calls) == len(factored) == ev.coarse_count + 1

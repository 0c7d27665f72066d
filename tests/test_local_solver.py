"""Tests for the per-subdomain nonlinear solves and their derivatives."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from oracles import brute_frozen_newton, dense_darcy_system, plain_newton

from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import (
    LocalSolveError,
    SolverSettings,
    StaleCacheError,
    block_positions,
    local_correction_jacobian_action,
    local_jacobian,
    solve_local,
    solved_jacobian,
    sweep_locals,
)
from raspen.problems import DiffusionProblem2D, smooth_forchheimer

SETTINGS = SolverSettings()


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_inner=0)


def test_zero_iterations_at_solution():
    prob = smooth_forchheimer(24, beta=1.0)
    ustar = plain_newton(prob, np.zeros(24))
    positions = block_positions(prob, build_1d_layout(24, 3, 2))
    for pos in positions:
        res = solve_local(prob, pos, ustar, SETTINGS)
        assert res.inner_iterations <= 1
        assert np.allclose(res.correction, 0.0, atol=1e-7)


def test_affine_correction_formula():
    prob = smooth_forchheimer(18, beta=0.0)
    A, b = dense_darcy_system(prob)
    positions = block_positions(prob, build_1d_layout(18, 3, 2))
    rng = np.random.default_rng(20)
    u = rng.standard_normal(18)
    for pos in positions:
        ov = pos.overlap
        res = solve_local(prob, pos, u, SETTINGS)
        A_i = A[np.ix_(ov, ov)]
        want = np.linalg.solve(A_i, (b - A @ u)[ov])
        assert np.allclose(res.correction, want, atol=1e-10)
        assert res.inner_iterations == 1


def test_matches_brute_force_local_newton():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 2, 1)
    positions = block_positions(prob, lay)
    rng = np.random.default_rng(21)
    u = rng.standard_normal(12)
    for i in range(2):
        res = solve_local(prob, positions[i], u, SETTINGS)
        want = brute_frozen_newton(prob, lay, i, u)
        got = u.copy()
        got[lay.subdomains[i].overlap] += res.correction
        assert np.max(np.abs(got - want)) < 1e-8


def test_exterior_untouched_and_residual_small():
    prob = DiffusionProblem2D(8, 8)
    lay = build_2d_layout(8, 8, 2, 1)
    rng = np.random.default_rng(22)
    u = rng.standard_normal(64)
    res = solve_local(prob, block_positions(prob, lay)[1], u, SETTINGS)
    ov = lay.subdomains[1].overlap
    v = u.copy()
    v[ov] += res.correction
    outside = np.setdiff1d(np.arange(64), ov)
    assert np.array_equal(v[outside], u[outside])
    assert np.linalg.norm(prob.residual(v)[ov]) <= SETTINGS.inner_tol


def test_factorization_round_trip():
    prob = smooth_forchheimer(30, beta=1.0)
    pos = block_positions(prob, build_1d_layout(30, 3, 2))[0]
    u = np.linspace(0, 1, 30)
    block = solved_jacobian(prob, pos, solve_local(prob, pos, u, SETTINGS))
    A_ii = block.rows[:, pos.overlap]
    rng = np.random.default_rng(23)
    for _ in range(5):
        w = rng.standard_normal(A_ii.shape[0])
        back = A_ii @ block.lu.solve(w)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10


def test_jacobian_action_zero_and_linear():
    prob = smooth_forchheimer(20, beta=1.0)
    pos = block_positions(prob, build_1d_layout(20, 4, 1))[2]
    u = np.linspace(0, 1, 20)
    block = solved_jacobian(prob, pos, solve_local(prob, pos, u, SETTINGS))
    assert np.allclose(local_correction_jacobian_action(block, np.zeros(20)), 0.0)
    rng = np.random.default_rng(24)
    v, w = rng.standard_normal(20), rng.standard_normal(20)
    a = local_correction_jacobian_action(block, 2.0 * v + w)
    b = (2.0 * local_correction_jacobian_action(block, v)
         + local_correction_jacobian_action(block, w))
    assert np.allclose(a, b, atol=1e-12)


def test_jacobian_action_affine_oracle():
    prob = smooth_forchheimer(15, beta=0.0)
    A, _ = dense_darcy_system(prob)
    positions = block_positions(prob, build_1d_layout(15, 3, 1))
    rng = np.random.default_rng(25)
    u = rng.standard_normal(15)
    for pos in positions:
        ov = pos.overlap
        block = solved_jacobian(prob, pos, solve_local(prob, pos, u, SETTINGS))
        A_i = A[np.ix_(ov, ov)]
        for _ in range(3):
            v = rng.standard_normal(15)
            want = -np.linalg.solve(A_i, (A @ v)[ov])
            got = local_correction_jacobian_action(block, v)
            assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(16, beta=1.0), build_1d_layout(16, 2, 2)),
    lambda: (DiffusionProblem2D(6, 6), build_2d_layout(6, 6, 2, 1)),
])
def test_jacobian_action_matches_fd(make):
    prob, lay = make()
    n = prob.dof_count
    tight = SolverSettings(inner_tol=1e-13)
    rng = np.random.default_rng(26)
    u = 0.1 * rng.standard_normal(n)
    for pos in block_positions(prob, lay):
        block = solved_jacobian(prob, pos, solve_local(prob, pos, u, tight))
        for _ in range(2):
            v = rng.standard_normal(n)
            eps = 1e-6
            cp = solve_local(prob, pos, u + eps * v, tight).correction
            cm = solve_local(prob, pos, u - eps * v, tight).correction
            fd = (cp - cm) / (2 * eps)
            got = local_correction_jacobian_action(block, v)
            denom = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(got - fd) / denom < 1e-5


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 8, 3)),
    lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 8, 0)),
    lambda: (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 4, 1)),
    lambda: (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 4, 2)),
], ids=["1d-k3", "1d-k0", "2d-k1", "2d-k2"])
def test_blocks_gathered_by_position_match_slices(make, monkeypatch):
    # the 2D layouts have corner, edge and interior subdomains
    prob, lay = make()
    n = prob.dof_count
    J = prob.jacobian(np.random.default_rng(27).standard_normal(n))
    factored = []
    splu = spla.splu

    def recording_splu(A):
        factored.append(A)
        return splu(A)

    monkeypatch.setattr(spla, "splu", recording_splu)
    for pos in block_positions(prob, lay):
        ov = pos.overlap
        block = local_jacobian(J, pos)
        A_ii = factored[-1]
        assert A_ii.format == "csc" and A_ii.has_canonical_format
        assert np.array_equal(A_ii.toarray(), J[ov][:, ov].toarray())
        assert np.array_equal(block.rows.toarray(), J[ov].toarray())
    assert len(factored) == lay.n_subdomains


class _Repatterned:
    """A problem whose Jacobian is passed through change before it is returned."""

    def __init__(self, problem, change):
        self.problem, self.change = problem, change
        self.dof_count = problem.dof_count

    def residual(self, u):
        return self.problem.residual(u)

    def jacobian(self, u):
        return self.change(self.problem.jacobian(u))

    def initial_state(self):
        return self.problem.initial_state()


def _with_extra_entry(J):
    extra = J.tolil()
    extra[0, 11] = 1.0
    return extra.tocsr()


def test_block_positions_reject_other_patterns():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 3, 1)
    J = prob.jacobian(np.zeros(12))
    pos = block_positions(prob, lay)[1]
    bigger = smooth_forchheimer(13, beta=1.0).jacobian(np.zeros(13))
    for other in (_with_extra_entry(J), bigger, J.tocsc()):
        with pytest.raises(ValueError, match="subdomain 1"):
            local_jacobian(other, pos)
    # positions from a pattern with an extra entry fit no Jacobian of prob
    extra = block_positions(_Repatterned(prob, _with_extra_entry), lay)[1]
    with pytest.raises(ValueError, match="subdomain 1"):
        solve_local(smooth_forchheimer(12, beta=2.0), extra, np.ones(12),
                    SETTINGS)
    with pytest.raises(ValueError, match="CSR"):
        block_positions(_Repatterned(prob, lambda J: J.tocsc()), lay)


def test_stale_cache_guard():
    prob = smooth_forchheimer(12, beta=1.0)
    pos = block_positions(prob, build_1d_layout(12, 2, 1))[0]
    u = np.zeros(12)
    block = solved_jacobian(prob, pos, solve_local(prob, pos, u, SETTINGS))
    local_correction_jacobian_action(block, np.ones(12), at_state=u)
    with pytest.raises(StaleCacheError):
        local_correction_jacobian_action(block, np.ones(12), at_state=u + 0.5)


def test_sweep_counts_and_single_domain():
    prob = smooth_forchheimer(20, beta=1.0)
    ustar = plain_newton(prob, np.zeros(20))
    lay = build_1d_layout(20, 4, 2)
    _, ls_max, ls_min = sweep_locals(prob, block_positions(prob, lay), ustar,
                                     SETTINGS)
    assert ls_max <= 1 and ls_min >= 0

    # one subdomain without overlap degenerates to global Newton
    lay1 = build_1d_layout(20, 1, 0)
    results, _, _ = sweep_locals(prob, block_positions(prob, lay1),
                                 np.zeros(20), SETTINGS)
    assert np.allclose(results[0].correction, ustar, atol=1e-7)


def test_first_sweep_inner_count_smooth_case():
    # published count for the first outer iteration: 4 inner solves.  The
    # subdomain holding the u(L)=1 boundary needs more steps on finer
    # meshes (the cold-start jump steepens with the face transmissibility),
    # so this pins the desk-scale mesh where the published count holds.
    prob = smooth_forchheimer(60, beta=1.0)
    lay = build_1d_layout(60, 10, 3)
    _, ls_max, ls_min = sweep_locals(prob, block_positions(prob, lay),
                                     np.zeros(60), SETTINGS)
    assert abs(ls_max - 4) <= 1
    assert 0 < ls_min <= ls_max


def test_inner_budget_error_names_subdomain():
    prob = smooth_forchheimer(12, beta=1.0)
    pos = block_positions(prob, build_1d_layout(12, 2, 1))[1]
    starved = SolverSettings(max_inner=1)
    with pytest.raises(LocalSolveError, match="subdomain 1"):
        solve_local(prob, pos, 100.0 * np.ones(12), starved)

"""Tests for the per-subdomain nonlinear solves and their derivatives."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from oracles import brute_frozen_newton, dense_darcy_system, plain_newton

import raspen.local_solver as local_solver_mod
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import (
    LocalSolveError,
    SolverSettings,
    StaleCacheError,
    _solve,
    block_positions,
    local_correction_jacobian_action,
    local_jacobian,
    solve_local,
    solved_jacobian,
    sweep_locals,
)
from raspen.problems import DiffusionProblem2D, smooth_forchheimer

SETTINGS = SolverSettings()


def _row_block(block):
    """R_i J of a LocalJacobian as a dense matrix, from its gathered entries."""
    indptr = np.append(block.row_starts, len(block.rows))
    return sp.csr_matrix((block.rows, block.columns, indptr),
                         shape=(len(block.row_starts),
                                block.positions[0].shape[1])).toarray()


def _band_to_dense(ab, kl, ku):
    """The m x m matrix held in LAPACK band storage ab (A[r, c] at kl+ku+r-c, c)."""
    m = ab.shape[1]
    A = np.zeros((m, m))
    for c in range(m):
        for r in range(max(0, c - ku), min(m, c + kl + 1)):
            A[r, c] = ab[kl + ku + r - c, c]
    return A


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(inner_tol=0.0)
    for bad in (np.nan, np.inf):
        for name in ("inner_tol", "outer_tol", "gmres_tol"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                SolverSettings(**{name: bad})
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
    block = solved_jacobian(prob, [pos], [solve_local(prob, pos, u, SETTINGS)])
    A_ii = _row_block(block)[:, pos.overlap]
    rng = np.random.default_rng(23)
    for _ in range(5):
        w = rng.standard_normal(A_ii.shape[0])
        back = A_ii @ _solve(block, w)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10


def test_jacobian_action_zero_and_linear():
    prob = smooth_forchheimer(20, beta=1.0)
    pos = block_positions(prob, build_1d_layout(20, 4, 1))[2]
    u = np.linspace(0, 1, 20)
    block = solved_jacobian(prob, [pos], [solve_local(prob, pos, u, SETTINGS)])
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
        block = solved_jacobian(prob, [pos], [solve_local(prob, pos, u, SETTINGS)])
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
        block = solved_jacobian(prob, [pos], [solve_local(prob, pos, u, tight)])
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
    dgbtrf = local_solver_mod.dgbtrf

    def recording_dgbtrf(ab, kl, ku, **kwargs):
        factored.append((ab.copy(order="F"), kl, ku))  # factored in place
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(local_solver_mod, "dgbtrf", recording_dgbtrf)
    for pos in block_positions(prob, lay):
        ov = pos.overlap
        block = local_jacobian(J, [pos])
        ab, kl, ku = factored[-1]
        # LAPACK's layout: 2*kl+ku+1 rows, the first kl left for fill-in
        assert ab.shape == (2 * kl + ku + 1, pos.size) and not ab[:kl].any()
        assert np.array_equal(_band_to_dense(ab, kl, ku),
                              J[ov][:, ov].toarray())
        assert np.array_equal(_row_block(block), J[ov].toarray())
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

    def row_kernels(self, cells, halo):
        return self.problem.row_kernels(cells, halo)

    def initial_state(self):
        return self.problem.initial_state()


def _with_extra_entry(J):
    extra = J.tolil()
    extra[0, 11] = 1.0
    return extra.tocsr()


def _with_entry_above(J):
    # couples cells 3 and 8, the ends of subdomain 1's overlap in
    # build_1d_layout(12, 3, 1)
    extra = J.tolil()
    extra[3, 8] = 0.5
    return extra.tocsr()


@pytest.mark.parametrize("make, bands", [
    # subdomain 1 is cells 3..8: the extra entry widens its upper band to
    # the whole block, the tridiagonal stencil sets its lower one
    (lambda: (_Repatterned(smooth_forchheimer(12, beta=1.0), _with_entry_above),
              build_1d_layout(12, 3, 1)), [(1, 1), (1, 5), (1, 1)]),
    (lambda: (smooth_forchheimer(6, beta=1.0), build_1d_layout(6, 6, 0)),
     [(0, 0)] * 6),
], ids=["wide-upper-band", "1x1"])
def test_band_factors_match_dense_solve(make, bands):
    prob, lay = make()
    n = prob.dof_count
    positions = block_positions(prob, lay)
    assert [(pos.kl, pos.ku) for pos in positions] == bands
    rng = np.random.default_rng(28)
    J = prob.jacobian(rng.standard_normal(n))
    dense = J.toarray()
    for pos in positions:
        ov = pos.overlap
        A_i = dense[np.ix_(ov, ov)]
        block = local_jacobian(J, [pos])
        w, v = rng.standard_normal(pos.size), rng.standard_normal(n)
        assert np.allclose(_solve(block, w), np.linalg.solve(A_i, w),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(local_correction_jacobian_action(block, v),
                           -np.linalg.solve(A_i, dense[ov] @ v),
                           rtol=1e-12, atol=1e-12)


def test_block_positions_reject_other_patterns():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 3, 1)
    J = prob.jacobian(np.zeros(12))
    pos = block_positions(prob, lay)[1]
    bigger = smooth_forchheimer(13, beta=1.0).jacobian(np.zeros(13))
    for other in (_with_extra_entry(J), bigger, J.tocsc()):
        with pytest.raises(ValueError, match="subdomain 1"):
            local_jacobian(other, [pos])
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
    block = solved_jacobian(prob, [pos], [solve_local(prob, pos, u, SETTINGS)])
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


def test_inner_newton_checks_name_the_subdomain():
    prob = smooth_forchheimer(12, beta=1.0)
    pos = block_positions(prob, build_1d_layout(12, 2, 1))[1]
    u = np.zeros(12)
    singular = dataclasses.replace(pos, jacobian=lambda x: np.zeros(len(pos.rows)))
    with pytest.raises(LocalSolveError,
                       match="subdomain 1: singular local Jacobian"):
        solve_local(prob, singular, u, SETTINGS)
    evaluated = []

    def nan_after_first_step(x):
        evaluated.append(x)
        return pos.residual(x) * (np.nan if len(evaluated) > 1 else 1.0)

    with pytest.raises(LocalSolveError, match="subdomain 1: inner Newton "
                       "produced a non-finite residual"):
        solve_local(prob, dataclasses.replace(pos, residual=nan_after_first_step),
                    u, SETTINGS)


def test_sweep_results_share_one_frozen_base_state():
    prob = smooth_forchheimer(20, beta=1.0)
    positions = block_positions(prob, build_1d_layout(20, 4, 2))
    u = np.linspace(0.0, 1.0, 20)
    results, _, _ = sweep_locals(prob, positions, u, SETTINGS)
    base = results[0].base_state
    assert all(res.base_state is base for res in results)
    assert base is not u and np.array_equal(base, u)
    assert not base.flags.writeable
    u[3] = 7.0  # the caller's array stays the caller's
    assert base[3] != 7.0
    # a standalone solve copies a writable state too
    assert solve_local(prob, positions[0], u, SETTINGS).base_state is not u


def test_positions_serve_only_their_problem():
    prob = smooth_forchheimer(12, beta=1.0)
    pos = block_positions(prob, build_1d_layout(12, 2, 1))[0]
    twin = smooth_forchheimer(12, beta=1.0)
    res = solve_local(prob, pos, np.zeros(12), SETTINGS)
    with pytest.raises(ValueError, match="subdomain 0: block positions were "
                       "computed for another problem"):
        solve_local(twin, pos, np.zeros(12), SETTINGS)
    with pytest.raises(ValueError, match="another problem"):
        solved_jacobian(twin, [pos], [res])


def _per_block_action(positions, entries, v):
    """Each block's -A_ii^{-1} R_i J v with its own band LU, concatenated."""
    out = []
    for pos, rows in zip(positions, entries, strict=True):
        band = np.zeros((pos.size, 2 * pos.kl + pos.ku + 1))
        band.flat[pos.slots] = rows[pos.block]
        lu, piv, info = lapack.dgbtrf(band.T, pos.kl, pos.ku, overwrite_ab=True)
        assert info == 0
        Jv = np.add.reduceat(rows * v[pos.columns], pos.row_indptr[:-1])
        out.append(-lapack.dgbtrs(lu, pos.kl, pos.ku, Jv, piv)[0])
    return np.concatenate(out)


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 4, 0)),
    lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 5, 2)),
    lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 0)),
    lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 1)),
    lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 1, 0)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 2, 2)),
    lambda: (DiffusionProblem2D(8, 12), build_2d_layout(8, 12, 4, 2)),
], ids=["1d-k0", "1d-k2", "1d-1x1", "1d-I=M-k1", "1d-I=1", "2d-12x8-N4-k1",
        "2d-12x8-N2-k2", "2d-8x12-N4-k2"])
@pytest.mark.parametrize("exact", [True, False], ids=["solved", "global-J"])
def test_stacked_action_bit_identical_to_per_block(make, exact):
    # the stacked band pads every block to the widest bandwidths; the
    # blocks share no coupling, so each is eliminated exactly as alone
    prob, lay = make()
    n = prob.dof_count
    positions = block_positions(prob, lay)
    rng = np.random.default_rng(29)
    u = 0.3 * rng.standard_normal(n)
    if exact:
        results, _, _ = sweep_locals(prob, positions, u, SETTINGS)
        block = solved_jacobian(prob, positions, results)
        entries = []
        for pos, res in zip(positions, results):
            x = res.base_state[pos.cells]
            x[:pos.size] = res.solved
            entries.append(pos.jacobian(x))
    else:
        J = prob.jacobian(u)
        block = local_jacobian(J, positions, u)
        entries = [J.data[pos.rows] for pos in positions]
    assert (block.kl, block.ku) == (max(pos.kl for pos in positions),
                                    max(pos.ku for pos in positions))
    for scale in (1.0, 1e3):
        v = scale * rng.standard_normal(n)
        got = local_correction_jacobian_action(block, v)
        assert got.tobytes() == _per_block_action(positions, entries, v).tobytes()


def test_stacked_action_bit_identical_with_padded_bands():
    # subdomain 1's upper band spans its whole block while the others' is
    # 1, so blocks 0 and 2 sit in a band padded to ku = 5
    prob = _Repatterned(smooth_forchheimer(12, beta=1.0), _with_entry_above)
    positions = block_positions(prob, build_1d_layout(12, 3, 1))
    rng = np.random.default_rng(30)
    J = prob.jacobian(rng.standard_normal(12))
    block = local_jacobian(J, positions)
    assert (block.kl, block.ku) == (1, 5)
    entries = [J.data[pos.rows] for pos in positions]
    for _ in range(3):
        v = rng.standard_normal(12)
        got = local_correction_jacobian_action(block, v)
        assert got.tobytes() == _per_block_action(positions, entries, v).tobytes()


def _zeroing_dgbtrf(column):
    """dgbtrf after zeroing the stacked band's column: that pivot is zero."""
    dgbtrf = local_solver_mod.dgbtrf

    def zeroed(ab, kl, ku, **kwargs):
        ab[:, column] = 0.0  # band storage keeps A[:, c] in column c
        return dgbtrf(ab, kl, ku, **kwargs)

    return zeroed


@pytest.mark.parametrize("first, named", [(True, 2), (False, 1)],
                         ids=["own-first-column", "previous-last-column"])
def test_zero_pivot_names_its_subdomain(first, named, monkeypatch):
    prob = smooth_forchheimer(24, beta=1.0)
    positions = block_positions(prob, build_1d_layout(24, 4, 2))
    J = prob.jacobian(np.zeros(24))
    start = positions[0].size + positions[1].size  # subdomain 2's first column
    monkeypatch.setattr(local_solver_mod, "dgbtrf",
                        _zeroing_dgbtrf(start if first else start - 1))
    with pytest.raises(LocalSolveError,
                       match=f"^subdomain {named}: singular local Jacobian$"):
        local_jacobian(J, positions)


def test_stacked_blocks_need_results_of_one_sweep():
    # a stacked block has one base state, which the stale-state guard reads
    prob = smooth_forchheimer(12, beta=1.0)
    positions = block_positions(prob, build_1d_layout(12, 2, 1))
    u = np.zeros(12)
    results = [solve_local(prob, pos, u, SETTINGS) for pos in positions]
    with pytest.raises(ValueError, match="subdomain 1: local results of "
                       "different sweeps cannot be stacked"):
        solved_jacobian(prob, positions, results)
    results, _, _ = sweep_locals(prob, positions, u, SETTINGS)
    block = solved_jacobian(prob, positions, results)
    local_correction_jacobian_action(block, np.ones(12), at_state=u)

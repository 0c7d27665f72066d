"""Tests for the per-subdomain nonlinear solves and their derivatives."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from oracles import (
    block_kernels,
    brute_frozen_newton,
    dense_darcy_system,
    per_block_positions,
    plain_newton,
    sequential_local_solve,
    stacked_positions,
)

import raspen.local_solver as local_solver_mod
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import (
    LocalSolveError,
    SolverSettings,
    _lone,
    _solve,
    block_positions,
    local_correction_jacobian_action,
    local_jacobian,
    solve_local,
    sweep_locals,
)
from raspen.problems import DiffusionProblem2D, hard_forchheimer, smooth_forchheimer

SETTINGS = SolverSettings()


def _per_block(stack, stacked):
    """A stacked overlap vector split into the blocks' parts."""
    return np.split(stacked, stack.block_starts[1:])


def _lones(prob, lay):
    """Every subdomain of the layout alone, as its one-block stack."""
    stack = block_positions(prob, lay)
    return [_lone(stack, b) for b in range(lay.n_subdomains)]


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


@pytest.mark.parametrize("name", ["max_inner", "max_outer", "max_fixed_point"])
def test_settings_budgets_are_integers(name):
    # a sweep stops its subdomains when their step count equals max_inner,
    # which 2.5 never does; outer Newton's range(max_outer) cannot take 2.5
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1$"):
        SolverSettings(**{name: 2.5})
    assert getattr(SolverSettings(**{name: np.int64(3)}), name) == 3


def test_zero_iterations_at_solution():
    prob = smooth_forchheimer(24, beta=1.0)
    ustar = plain_newton(prob, np.zeros(24))
    for lone in _lones(prob, build_1d_layout(24, 3, 2)):
        res = solve_local(lone, ustar, SETTINGS)
        assert res.inner_iterations <= 1
        assert np.allclose(res.correction, 0.0, atol=1e-7)


def test_affine_correction_formula():
    prob = smooth_forchheimer(18, beta=0.0)
    A, b = dense_darcy_system(prob)
    lay = build_1d_layout(18, 3, 2)
    rng = np.random.default_rng(20)
    u = rng.standard_normal(18)
    for sub, lone in zip(lay.subdomains, _lones(prob, lay)):
        ov = sub.overlap
        res = solve_local(lone, u, SETTINGS)
        A_i = A[np.ix_(ov, ov)]
        want = np.linalg.solve(A_i, (b - A @ u)[ov])
        assert np.allclose(res.correction, want, atol=1e-10)
        assert res.inner_iterations == 1


def test_matches_brute_force_local_newton():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 2, 1)
    lones = _lones(prob, lay)
    rng = np.random.default_rng(21)
    u = rng.standard_normal(12)
    for i in range(2):
        res = solve_local(lones[i], u, SETTINGS)
        want = brute_frozen_newton(prob, lay, i, u)
        got = u.copy()
        got[lay.subdomains[i].overlap] += res.correction
        assert np.max(np.abs(got - want)) < 1e-8


def test_exterior_untouched_and_residual_small():
    prob = DiffusionProblem2D(8, 8)
    lay = build_2d_layout(8, 8, 2, 1)
    rng = np.random.default_rng(22)
    u = rng.standard_normal(64)
    res = solve_local(_lones(prob, lay)[1], u, SETTINGS)
    ov = lay.subdomains[1].overlap
    v = u.copy()
    v[ov] += res.correction
    outside = np.setdiff1d(np.arange(64), ov)
    assert np.array_equal(v[outside], u[outside])
    assert np.linalg.norm(prob.residual(v)[ov]) <= SETTINGS.inner_tol


def test_factorization_round_trip():
    prob = smooth_forchheimer(30, beta=1.0)
    lay = build_1d_layout(30, 3, 2)
    lone = _lones(prob, lay)[0]
    u = np.linspace(0, 1, 30)
    block = local_jacobian(lone, solve_local(lone, u, SETTINGS).X)
    A_ii = block.matrix.toarray()[:, lay.subdomains[0].overlap]
    rng = np.random.default_rng(23)
    for _ in range(5):
        w = rng.standard_normal(A_ii.shape[0])
        back = A_ii @ _solve(block, w)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(30, beta=1.0), build_1d_layout(30, 3, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
def test_local_jacobian_copies_no_array(make):
    # the block's CSR matrix is built on the stack's index arrays and on the
    # Jacobian kernel's output, so building it copies none of them
    prob, lay = make()
    stack = block_positions(prob, lay)
    assert stack.indptr.dtype == stack.columns.dtype
    assert len(stack.indptr) == stack.size + 1
    outputs = []

    def recording(X):
        outputs.append(stack.jacobian(X))
        return outputs[-1]

    u = 0.3 * np.random.default_rng(31).standard_normal(prob.dof_count)
    block = local_jacobian(dataclasses.replace(stack, jacobian=recording),
                           u[stack.cells])
    matrix = block.matrix
    assert np.shares_memory(matrix.indices, stack.columns)
    assert np.shares_memory(matrix.indptr, stack.indptr)
    assert len(outputs) == 1 and matrix.data.size == outputs[0].size
    assert np.shares_memory(matrix.data, outputs[0])


def test_jacobian_action_zero_and_linear():
    prob = smooth_forchheimer(20, beta=1.0)
    lone = _lones(prob, build_1d_layout(20, 4, 1))[2]
    u = np.linspace(0, 1, 20)
    block = local_jacobian(lone, solve_local(lone, u, SETTINGS).X)
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
    lay = build_1d_layout(15, 3, 1)
    rng = np.random.default_rng(25)
    u = rng.standard_normal(15)
    for sub, lone in zip(lay.subdomains, _lones(prob, lay)):
        ov = sub.overlap
        block = local_jacobian(lone, solve_local(lone, u, SETTINGS).X)
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
    for lone in _lones(prob, lay):
        block = local_jacobian(lone, solve_local(lone, u, tight).X)
        for _ in range(2):
            v = rng.standard_normal(n)
            eps = 1e-6
            cp = solve_local(lone, u + eps * v, tight).correction
            cm = solve_local(lone, u - eps * v, tight).correction
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
    u = np.random.default_rng(27).standard_normal(n)
    J = prob.jacobian(u)
    factored = []
    dgbtrf = local_solver_mod.dgbtrf

    def recording_dgbtrf(ab, kl, ku, **kwargs):
        factored.append((ab.copy(order="F"), kl, ku))  # factored in place
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(local_solver_mod, "dgbtrf", recording_dgbtrf)
    for sub, lone in zip(lay.subdomains, _lones(prob, lay)):
        ov = sub.overlap
        block = local_jacobian(lone, u[lone.cells])
        ab, kl, ku = factored[-1]
        # LAPACK's layout: 2*kl+ku+1 rows, the first kl left for fill-in
        assert ab.shape == (2 * kl + ku + 1, lone.size) and not ab[:kl].any()
        assert np.array_equal(_band_to_dense(ab, kl, ku),
                              J[ov][:, ov].toarray())
        assert np.array_equal(block.matrix.toarray(), J[ov].toarray())
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

    def row_kernels(self, rows, entries):
        # the wrapped problem's kernels take the entries of its own pattern
        return self.problem.row_kernels(rows, entries[~self._extra(rows)])

    def _extra(self, rows):
        """Which entries of the rows' pattern the wrapped problem's lacks."""
        ours = self.jacobian(self.initial_state())
        theirs = self.problem.jacobian(self.initial_state())
        return np.concatenate([~np.isin(ours[r].indices, theirs[r].indices)
                               for r in rows])

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
    (lambda: (_WideBand(smooth_forchheimer(12, beta=1.0)),
              build_1d_layout(12, 3, 1)), [(1, 1), (1, 5), (1, 1)]),
    (lambda: (smooth_forchheimer(6, beta=1.0), build_1d_layout(6, 6, 0)),
     [(0, 0)] * 6),
], ids=["wide-upper-band", "1x1"])
def test_band_factors_match_dense_solve(make, bands):
    prob, lay = make()
    n = prob.dof_count
    lones = _lones(prob, lay)
    assert [(lone.kl, lone.ku) for lone in lones] == bands
    rng = np.random.default_rng(28)
    u = rng.standard_normal(n)
    dense = prob.jacobian(u).toarray()
    for sub, lone in zip(lay.subdomains, lones):
        ov = sub.overlap
        A_i = dense[np.ix_(ov, ov)]
        block = local_jacobian(lone, u[lone.cells])
        w, v = rng.standard_normal(lone.size), rng.standard_normal(n)
        assert np.allclose(_solve(block, w), np.linalg.solve(A_i, w),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(local_correction_jacobian_action(block, v),
                           -np.linalg.solve(A_i, dense[ov] @ v),
                           rtol=1e-12, atol=1e-12)


def test_block_positions_reject_other_patterns():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 3, 1)
    with pytest.raises(ValueError, match="CSR"):
        block_positions(_Repatterned(prob, lambda J: J.tocsc()), lay)


def test_sweep_counts_and_single_domain():
    prob = smooth_forchheimer(20, beta=1.0)
    ustar = plain_newton(prob, np.zeros(20))
    lay = build_1d_layout(20, 4, 2)
    _, ls_max, ls_min = sweep_locals(block_positions(prob, lay), ustar, SETTINGS)
    assert ls_max <= 1 and ls_min >= 0

    # one subdomain without overlap degenerates to global Newton
    lay1 = build_1d_layout(20, 1, 0)
    result, _, _ = sweep_locals(block_positions(prob, lay1), np.zeros(20), SETTINGS)
    assert np.allclose(result.correction, ustar, atol=1e-7)


def test_first_sweep_inner_count_smooth_case():
    # published count for the first outer iteration: 4 inner solves.  The
    # subdomain holding the u(L)=1 boundary needs more steps on finer
    # meshes (the cold-start jump steepens with the face transmissibility),
    # so this pins the desk-scale mesh where the published count holds.
    prob = smooth_forchheimer(60, beta=1.0)
    lay = build_1d_layout(60, 10, 3)
    _, ls_max, ls_min = sweep_locals(block_positions(prob, lay), np.zeros(60),
                                     SETTINGS)
    assert abs(ls_max - 4) <= 1
    assert 0 < ls_min <= ls_max


def test_inner_budget_error_names_subdomain():
    prob = smooth_forchheimer(12, beta=1.0)
    lone = _lones(prob, build_1d_layout(12, 2, 1))[1]
    starved = SolverSettings(max_inner=1)
    with pytest.raises(LocalSolveError, match="subdomain 1"):
        solve_local(lone, 100.0 * np.ones(12), starved)


def test_inner_newton_checks_name_the_subdomain():
    prob = smooth_forchheimer(12, beta=1.0)
    stack = _lones(prob, build_1d_layout(12, 2, 1))[1]
    u = np.zeros(12)
    singular = dataclasses.replace(stack, jacobian=lambda x: np.zeros(len(stack.columns)))
    with pytest.raises(LocalSolveError,
                       match="subdomain 1: singular local Jacobian"):
        solve_local(singular, u, SETTINGS)
    evaluated = []

    def nan_after_first_step(x):
        evaluated.append(x)
        return stack.residual(x) * (np.nan if len(evaluated) > 1 else 1.0)

    with pytest.raises(LocalSolveError, match="subdomain 1: inner Newton "
                       "produced a non-finite residual"):
        solve_local(dataclasses.replace(stack, residual=nan_after_first_step), u,
                    SETTINGS)


def test_sweep_result_holds_the_solved_local_vector():
    # X is the stacked local vector at the solved states: solved overlap
    # values, the base state's halo values, and no tie to the caller's u
    prob = smooth_forchheimer(20, beta=1.0)
    positions = block_positions(prob, build_1d_layout(20, 4, 2))
    u = np.linspace(0.0, 1.0, 20)
    result, _, _ = sweep_locals(positions, u, SETTINGS)
    X, overlap = result.X, positions.overlap
    assert result.positions is positions and result.inner_iterations > 0
    assert not X.flags.writeable
    halo = np.ones(len(X), bool)
    halo[overlap] = False
    assert halo.any()
    assert np.array_equal(X[halo], u[positions.cells[halo]])
    assert np.allclose(X[overlap] - result.correction, u[positions.cells[overlap]],
                       rtol=0.0, atol=1e-14)
    before = X.copy()
    u[:] = 7.0  # the caller's array stays the caller's
    assert np.array_equal(X, before)


def _per_block_action(positions, entries, v):
    """Each block's -A_ii^{-1} R_i J v with its own band LU, concatenated."""
    out = []
    for pos, rows in zip(positions, entries, strict=True):
        band = np.zeros((pos.size, 2 * pos.kl + pos.ku + 1))
        band.flat[pos.slots] = rows[pos.block]
        lu, piv, info = lapack.dgbtrf(band.T, pos.kl, pos.ku, overwrite_ab=True)
        assert info == 0
        Jv = sp.csr_matrix((rows, pos.columns, pos.row_indptr),
                           shape=(pos.size, len(v))) @ v
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
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    rng = np.random.default_rng(29)
    u = 0.3 * rng.standard_normal(n)
    if exact:
        result, _, _ = sweep_locals(stack, u, SETTINGS)
        block = local_jacobian(result.positions, result.X)
        entries = []
        solved_values = _per_block(stack, result.X[stack.overlap])
        for pos, solved in zip(positions, solved_values):
            x = u[pos.cells]
            x[:pos.size] = solved
            entries.append(block_kernels(prob, [pos])[1](x))
    else:
        J = prob.jacobian(u)
        block = local_jacobian(stack, u[stack.cells])
        entries = [J.data[pos.rows] for pos in positions]
    assert (stack.kl, stack.ku) == (max(pos.kl for pos in positions),
                                    max(pos.ku for pos in positions))
    for scale in (1.0, 1e3):
        v = scale * rng.standard_normal(n)
        got = local_correction_jacobian_action(block, v)
        assert got.tobytes() == _per_block_action(positions, entries, v).tobytes()


def test_stacked_action_bit_identical_with_padded_bands():
    # subdomain 1's upper band spans its whole block while the others' is
    # 1, so blocks 0 and 2 sit in a band padded to ku = 5
    prob = _WideBand(smooth_forchheimer(12, beta=1.0))
    lay = build_1d_layout(12, 3, 1)
    positions, stack = per_block_positions(prob, lay), block_positions(prob, lay)
    rng = np.random.default_rng(30)
    u = rng.standard_normal(12)
    J = prob.jacobian(u)
    block = local_jacobian(stack, u[stack.cells])
    assert (block.positions.kl, block.positions.ku) == (1, 5)
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
    start = positions.block_starts[2]  # subdomain 2's first column
    monkeypatch.setattr(local_solver_mod, "dgbtrf",
                        _zeroing_dgbtrf(start if first else start - 1))
    with pytest.raises(LocalSolveError,
                       match=f"^subdomain {named}: singular local Jacobian$"):
        local_jacobian(positions, np.zeros(len(positions.cells)))


# ------------------------------------------- subdomains solved together


class _WideBand(_Repatterned):
    """_with_entry_above's pattern, with row kernels that hold its extra entry.

    Entry (3, 8) is 0.5 in every Jacobian, row kernels included, so the
    inner Newton of subdomain 1 of build_1d_layout(12, 3, 1) runs on a band
    whose upper bandwidth spans the whole block.
    """

    def __init__(self, problem):
        super().__init__(problem, _with_entry_above)

    def row_kernels(self, rows, entries):
        residual, jacobian = super().row_kernels(rows, entries)
        extra = self._extra(rows)

        def jacobian_rows(X):
            out = np.full(len(extra), 0.5)
            out[~extra] = jacobian(X)
            return out

        return residual, jacobian_rows


_LAYOUTS = {
    "1d-k0": lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 4, 0)),
    "1d-k3": lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 8, 3)),
    "1d-I=M": lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 0)),
    "1d-I=M-k1": lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 1)),
    "1d-I=1": lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 1, 0)),
    "1d-rough": lambda: (hard_forchheimer(30, 10.0, seed=4), build_1d_layout(30, 5, 2)),
    "1d-wide-band": lambda: (_WideBand(smooth_forchheimer(12, beta=1.0)),
                             build_1d_layout(12, 3, 1)),
    "2d-12x8-N4-k1": lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
    "2d-12x8-N2-k2": lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 2, 2)),
    "2d-8x12-N4-k2": lambda: (DiffusionProblem2D(8, 12), build_2d_layout(8, 12, 4, 2)),
}


_STACK_ARRAYS = ("cells", "overlap", "sizes", "block_starts", "columns",
                 "indptr", "block", "held", "slots")


def _assert_matches_per_block_builder(stack, positions):
    """A PositionStack's arrays, bit for bit and dtype for dtype, and bands."""
    want = stacked_positions(positions)
    for name in _STACK_ARRAYS:
        got = getattr(stack, name)
        assert got.dtype == want[name].dtype, name
        assert got.tobytes() == want[name].tobytes(), name
    assert (stack.subdomains, stack.kl, stack.ku) == (
        want["subdomains"], want["kl"], want["ku"])


@pytest.mark.parametrize("make", [*_LAYOUTS.values(),
    lambda: (_Repatterned(smooth_forchheimer(12, beta=1.0), _with_extra_entry),
             build_1d_layout(12, 3, 1)),
    lambda: (_Repatterned(smooth_forchheimer(12, beta=1.0), _with_entry_above),
             build_1d_layout(12, 3, 1)),
    lambda: (DiffusionProblem2D(64, 64), build_2d_layout(64, 64, 8, 1)),
], ids=[*_LAYOUTS, "1d-extra-entry", "1d-entry-above", "2d-64x64-N8-k1"])
def test_stack_bit_identical_to_per_block_builder(make):
    prob, lay = make()
    _assert_matches_per_block_builder(block_positions(prob, lay),
                                      per_block_positions(prob, lay))


def _states(prob, seed):
    rng = np.random.default_rng(seed)
    n = prob.dof_count
    return [prob.initial_state(), 0.3 * rng.standard_normal(n),
            prob.initial_state() + rng.standard_normal(n)]


@pytest.mark.parametrize("name", _LAYOUTS)
def test_batched_sweep_bit_identical_to_sequential_solves(name):
    prob, lay = _LAYOUTS[name]()
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    if name.startswith("2d") and "-N4-" in name:
        # corner, edge and interior blocks: the band pads the narrower ones
        assert len({(pos.kl, pos.ku) for pos in positions}) > 1
    if name == "1d-wide-band":
        assert (stack.kl, stack.ku) == (1, 5)
    for u in _states(prob, 50):
        try:
            want = [sequential_local_solve(prob, pos, u, SETTINGS) for pos in positions]
        except LocalSolveError as exc:
            # the rough field's cold start: the first failure in subdomain
            # order, with its message
            with pytest.raises(LocalSolveError) as caught:
                sweep_locals(stack, u, SETTINGS)
            assert str(caught.value) == str(exc)
            continue
        result, ls_max, ls_min = sweep_locals(stack, u, SETTINGS)
        assert result.correction.tobytes() == np.concatenate(
            [c for c, _, _ in want]).tobytes()
        assert result.X[stack.overlap].tobytes() == np.concatenate(
            [s for _, s, _ in want]).tobytes()
        assert result.inner_counts == tuple(n for _, _, n in want)
        assert result.inner_iterations == sum(result.inner_counts)
        assert (ls_max, ls_min) == (max(result.inner_counts), min(result.inner_counts))
        assert result.positions.subdomains == tuple(range(lay.n_subdomains))


def test_converged_subdomains_keep_their_solo_values():
    # subdomain 3 holds the u(L) = 1 boundary and needs one step more than
    # the others, which are frozen meanwhile
    prob = smooth_forchheimer(40, beta=1.0)
    stack = block_positions(prob, build_1d_layout(40, 4, 2))
    u = np.zeros(40)
    result = solve_local(stack, u, SETTINGS)
    assert min(result.inner_counts) < max(result.inner_counts)
    for b, (correction, solved, count) in enumerate(zip(
            _per_block(stack, result.correction),
            _per_block(stack, result.X[stack.overlap]),
            result.inner_counts)):
        alone = solve_local(_lone(stack, b), u, SETTINGS)
        assert alone.inner_counts == (count,)
        assert correction.tobytes() == alone.correction.tobytes()
        assert solved.tobytes() == alone.X[alone.positions.overlap].tobytes()


def _entry_ranges(stack):
    """Each block's range in the stacked row data."""
    bounds = np.append(stack.indptr[stack.block_starts], len(stack.columns))
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _row_range(stack, b):
    return range(stack.block_starts[b], stack.block_starts[b] + stack.sizes[b])


def _failing(stack, positions, singular=(), nonfinite=(), tiny=()):
    """The stack with failures injected into its kernels.

    singular maps blocks to the Jacobian-kernel call (1 = first) from which
    their entries are zero, nonfinite maps blocks to the residual-kernel
    call from which their rows are nan, and tiny maps blocks to the
    Jacobian-kernel call from which their entries are scaled by 1e-320, so
    that the step overflows.  Returns the failing stack and, per block,
    kernels that fail the same way on that block alone, whose
    BlockPositions positions lists.
    """
    entries, calls = _entry_ranges(stack), {"residual": 0, "jacobian": 0}

    def residual(X):
        calls["residual"] += 1
        r = stack.residual(X)
        for b, at in dict(nonfinite).items():
            if calls["residual"] >= at:
                r[_row_range(stack, b)] = np.nan
        return r

    def jacobian(X):
        calls["jacobian"] += 1
        data = stack.jacobian(X)
        for faults, scale in ((singular, 0.0), (tiny, 1e-320)):
            for b, at in dict(faults).items():
                if calls["jacobian"] >= at:
                    data[entries[b]] *= scale
        return data

    def alone(b):
        pos = positions[b]
        own_residual, own_jacobian = block_kernels(stack.problem, [pos])
        own = {"residual": 0, "jacobian": 0}

        def r(x):
            own["residual"] += 1
            out = own_residual(x)
            if own["residual"] >= dict(nonfinite).get(b, np.inf):
                out = out * np.nan
            return out

        def j(x):
            own["jacobian"] += 1
            out = own_jacobian(x)
            if own["jacobian"] >= dict(singular).get(b, np.inf):
                out = 0.0 * out
            if own["jacobian"] >= dict(tiny).get(b, np.inf):
                out = 1e-320 * out
            return out

        return r, j

    return dataclasses.replace(stack, residual=residual, jacobian=jacobian), alone


def _sequential_error(prob, positions, u, settings, alone):
    """The error the subdomain-by-subdomain loop raises first, or None."""
    for b, pos in enumerate(positions):
        try:
            sequential_local_solve(prob, pos, u, settings, alone(b))
        except LocalSolveError as exc:
            return exc
    return None


@pytest.mark.parametrize("faults, settings, named", [
    # subdomain 3's residual turns nan after its first step; subdomain 1's
    # block turns singular one step later
    (dict(singular={1: 2}, nonfinite={3: 2}), SETTINGS, 1),
    # subdomain 3 is singular at once; subdomain 0 runs out of its two steps
    (dict(singular={3: 1}), SolverSettings(max_inner=2), 0),
    # subdomain 2 turns singular at its second step; subdomain 1's residual
    # turns nan at its third
    (dict(singular={2: 2}, nonfinite={1: 4}), SETTINGS, 1),
], ids=["nonfinite-before-singular", "singular-before-budget",
        "singular-before-nonfinite"])
def test_first_failure_in_subdomain_order_is_raised(faults, settings, named):
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    u = np.zeros(40)
    # every subdomain needs at least four steps from u
    assert min(solve_local(stack, u, SETTINGS).inner_counts) >= 4
    failing, alone = _failing(stack, positions, **faults)
    want = _sequential_error(prob, positions, u, settings, alone)
    with pytest.raises(LocalSolveError) as caught:
        solve_local(failing, u, settings)
    assert str(caught.value) == str(want)
    assert str(caught.value).startswith(f"subdomain {named}: ")
    assert caught.value.subdomain == named


def test_overflowing_step_spills_into_no_other_subdomain():
    # subdomain 2's block is scaled to 1e-320 at its second step, so that
    # step overflows; in the band, 0 * inf would turn the padded neighbours'
    # steps into nan, and subdomain 0 or 1 would be named instead
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    u = np.zeros(40)
    failing, alone = _failing(stack, positions, tiny={2: 2})
    want = _sequential_error(prob, positions, u, SETTINGS, alone)
    assert str(want) == "subdomain 2: inner Newton produced a non-finite residual"
    with pytest.raises(LocalSolveError) as caught:
        solve_local(failing, u, SETTINGS)
    assert str(caught.value) == str(want)
    assert caught.value.subdomain == 2


def test_overflow_resolve_takes_the_block_at_its_own_bands(monkeypatch):
    # subdomain 2's first step overflows and spills into the blocks the
    # band pads; each is re-solved on its one-block stack, at its own bands
    # (subdomain 2's are (1, 1), not the stack's (1, 5))
    prob, lay = _LAYOUTS["1d-wide-band"]()
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    failing, _ = _failing(stack, positions, tiny={2: 1})
    lone, taken = local_solver_mod._lone, []

    def recording_lone(stack, b):
        taken.append((b, lone(stack, b)))
        return taken[-1][1]

    monkeypatch.setattr(local_solver_mod, "_lone", recording_lone)
    with pytest.raises(LocalSolveError, match="subdomain 2"):
        solve_local(failing, np.zeros(12), SETTINGS)
    assert 2 in dict(taken)
    assert (dict(taken)[2].kl, dict(taken)[2].ku) == (1, 1)
    for b, alone in taken:
        _assert_matches_per_block_builder(alone, [positions[b]])


@pytest.mark.parametrize("kind, settings, faults, trail", [
    ("budget", SolverSettings(max_inner=2), {}, 3),
    ("singular", SETTINGS, dict(singular={1: 3}), 3),
    ("nonfinite", SETTINGS, dict(nonfinite={1: 3}), 3),
], ids=["budget", "singular", "nonfinite"])
def test_local_solve_error_carries_subdomain_and_residual_trail(
        kind, settings, faults, trail):
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    u = np.zeros(40)
    failing, alone = _failing(stack, positions, **faults)
    with pytest.raises(LocalSolveError) as caught:
        solve_local(failing, u, settings)
    err = caught.value
    assert err.subdomain == int(str(err).split(":")[0].split()[1])
    assert len(err.residuals) == trail
    assert all(isinstance(r, float) for r in err.residuals)
    # the trail is the failed subdomain's own residual norms
    pos = positions[err.subdomain]
    own_residual = alone(err.subdomain)[0]
    assert np.isclose(err.residuals[0],
                      np.linalg.norm(own_residual(u[pos.cells])), rtol=1e-14)
    if kind == "nonfinite":
        assert not np.isfinite(err.residuals[-1])
        assert np.isfinite(err.residuals[:-1]).all()
    else:
        assert np.isfinite(err.residuals).all()
        assert err.residuals[-1] > settings.inner_tol


def _counting(stack):
    """The stack with its kernels counted, and the counts."""
    calls = {"residual": 0, "jacobian": 0}

    def counted(name):
        kernel = getattr(stack, name)

        def call(X):
            calls[name] += 1
            return kernel(X)

        return call

    return dataclasses.replace(stack, residual=counted("residual"),
                               jacobian=counted("jacobian")), calls


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
def test_sweep_cost_is_set_by_the_slowest_subdomain(make, monkeypatch):
    # one stacked factorization per step of the slowest subdomain, and one
    # residual evaluation more; the solved block is one Jacobian-kernel call
    prob, lay = make()
    stack, calls = _counting(block_positions(prob, lay))
    factored = []
    dgbtrf = local_solver_mod.dgbtrf

    def counting_dgbtrf(ab, kl, ku, **kwargs):
        factored.append(ab.shape)
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(local_solver_mod, "dgbtrf", counting_dgbtrf)
    for u in _states(prob, 51):
        del factored[:]
        calls.update(residual=0, jacobian=0)
        result = solve_local(stack, u, SETTINGS)
        steps = max(result.inner_counts)
        assert steps > 0
        assert len(factored) == steps == calls["jacobian"]
        assert calls["residual"] == steps + 1
        assert set(factored) == {(2 * stack.kl + stack.ku + 1, stack.size)}
        calls.update(jacobian=0)
        local_jacobian(result.positions, result.X)
        assert calls["jacobian"] == 1 and len(factored) == steps + 1


def test_stacks_are_built_once_and_share_their_geometry():
    # every LocalJacobian places its entries by the stack it was built on
    prob = smooth_forchheimer(24, beta=1.0)
    positions = block_positions(prob, build_1d_layout(24, 4, 2))
    u = np.linspace(0.0, 1.0, 24)
    first = local_jacobian(positions, solve_local(positions, u, SETTINGS).X)
    second = local_jacobian(positions, (u + 1.0)[positions.cells])
    assert first.positions is positions and second.positions is positions
    assert not any(getattr(positions, name).flags.writeable for name in _STACK_ARRAYS)

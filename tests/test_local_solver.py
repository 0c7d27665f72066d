"""Tests for the per-subdomain nonlinear solves and their derivatives."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from oracles import (
    Kernels,
    Repatterned,
    ShrunkDiagonal,
    WideBand,
    block_kernels,
    block_vector,
    brute_frozen_newton,
    call_counts,
    dense_darcy_system,
    layout_blocks,
    per_block_action,
    per_block_positions,
    plain_newton,
    recorded_calls,
    sequential_local_solve,
    stacked_positions,
    two_call_solve_local,
    with_entry_above,
    zero_pivot,
)

import raspen.local_solver as local_solver_mod
import raspen.precond as precond_mod
from raspen.coarse import coarse_space
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import (
    LocalSolveError,
    SolverSettings,
    _band_lu,
    _step,
    block_positions,
    csr_apply,
    local_correction_jacobian_action,
    local_jacobian,
    solve_local,
    sweep_locals,
    tridiagonal_solve,
)
from raspen.newton import fixed_point_solve, outer_newton
from raspen.precond import KINDS, PreconditionedSystem
from raspen.problems import (DiffusionProblem2D, ForchheimerProblem1D, hard_forchheimer,
                             smooth_forchheimer)

SETTINGS = SolverSettings()


def _per_block(stack, stacked):
    """A stacked overlap vector split into the blocks' parts."""
    return np.split(stacked, stack.block_starts[1:])


def _block_diagonal(layout, rows):
    """diag(A_ii), A_ii = R_i J P_i, from every subdomain's R_i J stacked in rows."""
    A = np.zeros((len(rows), len(rows)))
    at = 0
    for sub in layout_blocks(layout):
        block = slice(at, at + len(sub.overlap))
        A[block, block] = rows[block][:, sub.overlap]
        at = block.stop
    return A


def _kernel_blocks(stack, X):
    """The Jacobian kernel's stacked R_i J at X, dense, and A^{-1} by the
    band factors of diag(A_ii) that local_jacobian makes from the same
    entries (_band_lu, then dgbtrs)."""
    entries = stack.kernels.jacobian(X)
    rows = sp.csr_matrix((entries, stack.columns, stack.indptr),
                         shape=(stack.size, stack.problem.dof_count))
    lu, ipiv, info = _band_lu(stack, entries)
    assert info == 0
    return rows.toarray(), lambda w: lapack.dgbtrs(lu, stack.kl, stack.ku, w, ipiv)[0]


def _band_to_dense(ab, kl, ku):
    """The m x m matrix held in LAPACK band storage ab (A[r, c] at kl+ku+r-c, c)."""
    m = ab.shape[1]
    A = np.zeros((m, m))
    for c in range(m):
        for r in range(max(0, c - ku), min(m, c + kl + 1)):
            A[r, c] = ab[kl + ku + r - c, c]
    return A


def _dense_to_band(A, kl, ku):
    """LAPACK band storage of the square matrix A (A[r, c] at kl+ku+r-c, c)."""
    m = A.shape[0]
    ab = np.zeros((2 * kl + ku + 1, m))
    for c in range(m):
        for r in range(max(0, c - ku), min(m, c + kl + 1)):
            ab[kl + ku + r - c, c] = A[r, c]
    return ab


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
    res = solve_local(block_positions(prob, build_1d_layout(24, 3, 2)), ustar,
                      SETTINGS)
    assert max(res.inner_counts) <= 1
    assert np.allclose(res.correction, 0.0, atol=1e-7)


def test_affine_correction_formula():
    prob = smooth_forchheimer(18, beta=0.0)
    A, b = dense_darcy_system(prob)
    lay = build_1d_layout(18, 3, 2)
    rng = np.random.default_rng(20)
    u = rng.standard_normal(18)
    stack = block_positions(prob, lay)
    res = solve_local(stack, u, SETTINGS)
    assert res.inner_counts == (1,) * lay.n_subdomains
    for sub, correction in zip(layout_blocks(lay), _per_block(stack, res.correction)):
        ov = sub.overlap
        A_i = A[np.ix_(ov, ov)]
        want = np.linalg.solve(A_i, (b - A @ u)[ov])
        assert np.allclose(correction, want, atol=1e-10)


def test_matches_brute_force_local_newton():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 2, 1)
    stack = block_positions(prob, lay)
    rng = np.random.default_rng(21)
    u = rng.standard_normal(12)
    res = solve_local(stack, u, SETTINGS)
    for i, correction in enumerate(_per_block(stack, res.correction)):
        want = brute_frozen_newton(prob, lay, i, u)
        got = u.copy()
        got[layout_blocks(lay)[i].overlap] += correction
        assert np.max(np.abs(got - want)) < 1e-8


def test_exterior_untouched_and_residual_small():
    prob = DiffusionProblem2D(8, 8)
    lay = build_2d_layout(8, 8, 2, 1)
    rng = np.random.default_rng(22)
    u = rng.standard_normal(64)
    stack = block_positions(prob, lay)
    res = solve_local(stack, u, SETTINGS)
    ov = layout_blocks(lay)[1].overlap
    v = u.copy()
    v[ov] += _per_block(stack, res.correction)[1]
    outside = np.setdiff1d(np.arange(64), ov)
    assert np.array_equal(v[outside], u[outside])
    assert np.linalg.norm(prob.residual(v)[ov]) <= SETTINGS.inner_tol


def test_factorization_round_trip():
    prob = smooth_forchheimer(30, beta=1.0)
    lay = build_1d_layout(30, 3, 2)
    stack = block_positions(prob, lay)
    u = np.linspace(0, 1, 30)
    rows, solve = _kernel_blocks(stack, solve_local(stack, u, SETTINGS).X)
    A = _block_diagonal(lay, rows)
    rng = np.random.default_rng(23)
    for _ in range(5):
        w = rng.standard_normal(stack.size)
        back = A @ solve(w)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(30, beta=1.0), build_1d_layout(30, 3, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
def test_local_jacobian_copies_no_array(make):
    # on a band stack (2D) the block's rows R_i J are built on the stack's
    # index arrays and on the Jacobian kernel's output, so building them
    # copies none of them; a tridiagonal stack (1D) keeps only its solved
    # rows; either derives the Jacobian values once
    prob, lay = make()
    stack = block_positions(prob, lay)
    assert stack.indptr.dtype == stack.columns.dtype
    assert len(stack.indptr) == stack.size + 1
    outputs, derived = [], []

    def values_of(faces):
        derived.append(1)
        return stack.kernels.values_of(faces)

    class Recording(Kernels):
        def jacobian_of(self, faces):
            outputs.append(super().jacobian_of(faces))
            return outputs[-1]

    u = 0.3 * np.random.default_rng(31).standard_normal(prob.dof_count)
    kernels = Recording(stack.kernels, values_of=values_of)
    block = local_jacobian(dataclasses.replace(stack, kernels=kernels),
                           stack.gather(u))
    assert len(derived) == 1
    if stack.response is not None:
        assert block.lu is None and outputs == []
        return
    assert len(outputs) == 1
    rows = block.rows
    assert np.shares_memory(rows.indices, stack.columns)
    assert np.shares_memory(rows.indptr, stack.indptr)
    assert rows.data.size == outputs[0].size
    assert np.shares_memory(rows.data, outputs[0])


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(30, beta=1.0), build_1d_layout(30, 3, 2)),
    lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 0)),
    lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 1, 0)),
], ids=["1d", "1d-1x1", "1d-I=1"])
def test_halo_stack_keeps_only_its_solved_rows(make):
    # a tridiagonal stack (kl, ku <= 1; 1x1 blocks and a lone block with no
    # halo too) takes the halo form: the LocalJacobian holds A^{-1} R_i J
    # on the response pattern, and its owned rows negated in cell order,
    # and nothing else, neither R_i J nor factors
    prob, lay = make()
    stack = block_positions(prob, lay)
    assert stack.kl <= 1 and stack.ku <= 1 and stack.diagonals is not None
    u = 0.3 * np.random.default_rng(32).standard_normal(prob.dof_count)
    X = stack.gather(u)
    block = local_jacobian(stack, X)
    assert [f.name for f in dataclasses.fields(block)] == [
        "positions", "rows", "lu", "owned"]
    assert block.positions is stack and block.lu is None
    rows = block.rows
    assert rows.shape == (stack.size, prob.dof_count)
    assert rows.indices.tobytes() == stack.response.indices.tobytes()
    assert rows.indptr.tobytes() == stack.response.indptr.tobytes()
    assert not np.shares_memory(rows.indices, stack.columns)
    owned, want_owned = block.owned, -rows[lay.owner]
    assert owned.shape == (prob.dof_count, prob.dof_count)
    for a in ("data", "indices", "indptr"):
        assert getattr(owned, a).tobytes() == getattr(want_owned, a).tobytes(), a
    R, solve = _kernel_blocks(stack, X)
    want = solve(R)
    assert np.abs(rows.toarray() - want).max() <= 1e-13 * np.abs(want).max()


def test_jacobian_action_zero_and_linear():
    prob = smooth_forchheimer(20, beta=1.0)
    stack = block_positions(prob, build_1d_layout(20, 4, 1))
    u = np.linspace(0, 1, 20)
    block = local_jacobian(stack, solve_local(stack, u, SETTINGS).X)
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
    stack = block_positions(prob, lay)
    block = local_jacobian(stack, solve_local(stack, u, SETTINGS).X)
    for _ in range(3):
        v = rng.standard_normal(15)
        got = _per_block(stack, local_correction_jacobian_action(block, v))
        for sub, got_i in zip(layout_blocks(lay), got):
            ov = sub.overlap
            want = -np.linalg.solve(A[np.ix_(ov, ov)], (A @ v)[ov])
            assert np.allclose(got_i, want, atol=1e-10)


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
    stack = block_positions(prob, lay)
    block = local_jacobian(stack, solve_local(stack, u, tight).X)
    for _ in range(2):
        v = rng.standard_normal(n)
        eps = 1e-6
        cp = solve_local(stack, u + eps * v, tight).correction
        cm = solve_local(stack, u - eps * v, tight).correction
        fd = (cp - cm) / (2 * eps)
        got = local_correction_jacobian_action(block, v)
        for got_i, fd_i in zip(_per_block(stack, got), _per_block(stack, fd)):
            denom = max(1.0, np.linalg.norm(fd_i))
            assert np.linalg.norm(got_i - fd_i) / denom < 1e-5


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
    calls = recorded_calls(monkeypatch, ("dgbtrf", "dgtsv"))
    stack = block_positions(prob, lay)
    local_jacobian(stack, stack.gather(u))
    # one LAPACK call: dgtsv on the 1D stacks' diagonals, dgbtrf on the 2D band
    [(name, args)] = calls
    assert name == ("dgtsv" if isinstance(prob, ForchheimerProblem1D) else "dgbtrf")
    ov = np.concatenate([sub.overlap for sub in layout_blocks(lay)])
    rows = sp.csr_matrix((stack.kernels.jacobian(stack.gather(u)), stack.columns,
                          stack.indptr), shape=(stack.size, n))
    assert np.array_equal(rows.toarray(), J[ov].toarray())
    if name == "dgtsv":
        dl, d, du = args[:3]
        A = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    else:
        ab, kl, ku = args
        # LAPACK's layout: 2*kl+ku+1 rows, the first kl left for fill-in
        assert ab.shape == (2 * kl + ku + 1, stack.size) and not ab[:kl].any()
        A = _band_to_dense(ab, kl, ku)
    assert np.array_equal(A, _block_diagonal(lay, J[ov].toarray()))


def _with_extra_entry(J):
    extra = J.tolil()
    extra[0, 11] = 1.0
    return extra.tocsr()


@pytest.mark.parametrize("make, bands", [
    # subdomain 1 is cells 3..8: the extra entry widens its upper band to
    # the whole block, the tridiagonal stencil sets its lower one
    (lambda: (WideBand(smooth_forchheimer(12, beta=1.0)),
              build_1d_layout(12, 3, 1)), [(1, 1), (1, 5), (1, 1)]),
    (lambda: (smooth_forchheimer(6, beta=1.0), build_1d_layout(6, 6, 0)),
     [(0, 0)] * 6),
], ids=["wide-upper-band", "1x1"])
def test_band_factors_match_dense_solve(make, bands):
    # the stack's band has the widest block's bandwidths
    prob, lay = make()
    n = prob.dof_count
    assert [(pos.kl, pos.ku) for pos in per_block_positions(prob, lay)] == bands
    stack = block_positions(prob, lay)
    assert (stack.kl, stack.ku) == tuple(np.max(bands, axis=0))
    rng = np.random.default_rng(28)
    u = rng.standard_normal(n)
    dense = prob.jacobian(u).toarray()
    ov = np.concatenate([sub.overlap for sub in layout_blocks(lay)])
    A = _block_diagonal(lay, dense[ov])
    X = stack.gather(u)
    block = local_jacobian(stack, X)
    _, solve = _kernel_blocks(stack, X)
    for _ in range(2):
        w, v = rng.standard_normal(stack.size), rng.standard_normal(n)
        assert np.allclose(solve(w), np.linalg.solve(A, w),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(local_correction_jacobian_action(block, v),
                           -np.linalg.solve(A, dense[ov] @ v),
                           rtol=1e-12, atol=1e-12)


def test_block_positions_reject_other_patterns():
    prob = smooth_forchheimer(12, beta=1.0)
    lay = build_1d_layout(12, 3, 1)
    with pytest.raises(ValueError, match="CSR"):
        block_positions(Repatterned(prob, lambda J: J.tocsc()), lay)


def test_block_positions_reject_an_overlap_whose_cells_do_not_ascend():
    # the search for an entry's stacked row needs each overlap's cells in
    # ascending order, as the builders list them; a hand-built layout with
    # one overlap reversed (owner following its cells) is refused
    prob, lay = smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)
    n = lay.sizes[0]
    perm = np.append(np.arange(n)[::-1], np.arange(n, lay.cells.size))
    reversed_first = dataclasses.replace(lay, cells=lay.cells[perm],
                                         owner=np.argsort(perm)[lay.owner])
    with pytest.raises(ValueError, match="^each overlap must list its cells "
                       "in ascending order$"):
        block_positions(prob, reversed_first)


def test_sweep_counts_and_single_domain():
    prob = smooth_forchheimer(20, beta=1.0)
    ustar = plain_newton(prob, np.zeros(20))
    lay = build_1d_layout(20, 4, 2)
    counts = sweep_locals(block_positions(prob, lay), ustar, SETTINGS).inner_counts
    assert max(counts) <= 1 and min(counts) >= 0

    # one subdomain without overlap degenerates to global Newton
    lay1 = build_1d_layout(20, 1, 0)
    result = sweep_locals(block_positions(prob, lay1), np.zeros(20), SETTINGS)
    assert np.allclose(result.correction, ustar, atol=1e-7)


def test_first_sweep_inner_count_smooth_case():
    # published count for the first outer iteration: 4 inner solves.  The
    # subdomain holding the u(L)=1 boundary needs more steps on finer
    # meshes (the cold-start jump steepens with the face transmissibility),
    # so this pins the desk-scale mesh where the published count holds.
    prob = smooth_forchheimer(60, beta=1.0)
    lay = build_1d_layout(60, 10, 3)
    counts = sweep_locals(block_positions(prob, lay), np.zeros(60),
                          SETTINGS).inner_counts
    assert abs(max(counts) - 4) <= 1
    assert 0 < min(counts) <= max(counts)


def test_inner_budget_error_names_subdomain():
    # u is the solution but at cell 11, which only subdomain 1 sees:
    # subdomain 0 converges at once, subdomain 1 runs out of its one step
    prob, lay = smooth_forchheimer(12, beta=1.0), build_1d_layout(12, 2, 1)
    u = plain_newton(prob, np.zeros(12))
    u[11] += 100.0
    starved = SolverSettings(max_inner=1)
    with pytest.raises(LocalSolveError, match="^subdomain 1: inner Newton did not "
                       "reach") as caught:
        solve_local(block_positions(prob, lay), u, starved)
    assert caught.value.subdomain == 1


def test_inner_newton_checks_name_the_subdomain():
    prob, lay = smooth_forchheimer(12, beta=1.0), build_1d_layout(12, 2, 1)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    for faults, message in (
            (dict(singular={1: 1}), "singular local Jacobian"),
            (dict(nonfinite={1: 2}), "inner Newton produced a non-finite residual")):
        failing, _ = _failing(stack, positions, **faults)
        with pytest.raises(LocalSolveError,
                           match=f"^subdomain 1: {message}$") as caught:
            solve_local(failing, np.zeros(12), SETTINGS)
        assert caught.value.subdomain == 1


def test_sweep_result_holds_the_solved_local_vector():
    # X is the stacked local vector at the solved states: solved overlap
    # values, then the base state itself, and no tie to the caller's u
    prob = smooth_forchheimer(20, beta=1.0)
    lay = build_1d_layout(20, 4, 2)
    positions = block_positions(prob, lay)
    u = np.linspace(0.0, 1.0, 20)
    result = sweep_locals(positions, u, SETTINGS)
    X, size = result.X, positions.size
    assert result.positions is positions and result.inner_iterations > 0
    assert not X.flags.writeable
    assert len(X) == size + 20
    assert X[size:].tobytes() == u.tobytes()
    assert np.allclose(X[:size] - result.correction, u[lay.cells],
                       rtol=0.0, atol=1e-14)
    before = X.copy()
    u[:] = 7.0  # the caller's array stays the caller's
    assert np.array_equal(X, before)


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
def test_sweep_gathers_the_stacked_overlaps_and_the_state(make):
    # the sweep's first X is (u[layout.cells], u), read through the layout's
    # own cells, and the kernels at it are the global rows, bit for bit
    prob, lay = make()
    stack = block_positions(prob, lay)
    assert stack.layout is lay and stack.size == len(lay.cells)
    seen = []

    def recording(X):
        seen.append(X.copy())
        return stack.kernels.faces(X)

    u = 0.3 * np.random.default_rng(52).standard_normal(prob.dof_count)
    kernels = Kernels(stack.kernels, faces=recording)
    solve_local(dataclasses.replace(stack, kernels=kernels), u, SETTINGS)
    X = seen[0]
    assert X.tobytes() == np.concatenate((u[lay.cells], u)).tobytes()
    assert stack.gather(u).tobytes() == X.tobytes()
    assert (stack.kernels.residual(X).tobytes()
            == prob.residual(u)[lay.cells].tobytes())
    assert (stack.kernels.jacobian(X).tobytes()
            == prob.jacobian(u)[lay.cells].data.tobytes())


def _assert_action_matches_per_block(block, positions, entries, v):
    """The action, bit for bit as each block's alone on its own side of the
    halo rule, and within 1e-13 of the band solve on the halo side."""
    got = local_correction_jacobian_action(block, v)
    halo = block.lu is None
    assert got.tobytes() == per_block_action(positions, entries, v, halo).tobytes()
    band = per_block_action(positions, entries, v)
    assert np.abs(got - band).max() <= 1e-13 * np.abs(band).max()


# (make, whether the stack is tridiagonal, and so takes the halo response)
@pytest.mark.parametrize("make, halo", [
    (lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 4, 0)), True),
    (lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 5, 2)), True),
    (lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 0)), True),
    (lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 1)), True),
    (lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 1, 0)), True),
    (lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)), False),
    (lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 2, 2)), False),
    (lambda: (DiffusionProblem2D(8, 12), build_2d_layout(8, 12, 4, 2)), False),
], ids=["1d-k0", "1d-k2", "1d-1x1", "1d-I=M-k1", "1d-I=1", "2d-12x8-N4-k1",
        "2d-12x8-N2-k2", "2d-8x12-N4-k2"])
@pytest.mark.parametrize("exact", [True, False], ids=["solved", "global-J"])
def test_stacked_action_bit_identical_to_per_block(make, halo, exact):
    # the stacked band pads every block to the widest bandwidths; the
    # blocks share no coupling, so each is eliminated exactly as alone,
    # and each block's halo response is its own dgtsv solve, column for
    # column
    prob, lay = make()
    n = prob.dof_count
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    rng = np.random.default_rng(29)
    u = 0.3 * rng.standard_normal(n)
    if exact:
        result = sweep_locals(stack, u, SETTINGS)
        block = local_jacobian(result.positions, result.X)
        entries = []
        solved_values = _per_block(stack, result.X[:stack.size])
        for pos, solved in zip(positions, solved_values):
            x = block_vector([pos], u)
            x[:pos.size] = solved
            entries.append(block_kernels(prob, [pos]).jacobian(x))
    else:
        J = prob.jacobian(u)
        block = local_jacobian(stack, stack.gather(u))
        entries = [J.data[pos.rows] for pos in positions]
    assert (stack.kl, stack.ku) == (max(pos.kl for pos in positions),
                                    max(pos.ku for pos in positions))
    assert (block.lu is None) == (stack.diagonals is not None) == halo
    for scale in (1.0, 1e3):
        v = scale * rng.standard_normal(n)
        _assert_action_matches_per_block(block, positions, entries, v)


def test_stacked_action_bit_identical_with_padded_bands():
    # subdomain 1's upper band spans its whole block while the others' is
    # 1, so blocks 0 and 2 sit in a band padded to ku = 5: a band stack,
    # whose action solves each block by band LU as alone
    prob = WideBand(smooth_forchheimer(12, beta=1.0))
    lay = build_1d_layout(12, 3, 1)
    positions, stack = per_block_positions(prob, lay), block_positions(prob, lay)
    rng = np.random.default_rng(30)
    u = rng.standard_normal(12)
    J = prob.jacobian(u)
    block = local_jacobian(stack, stack.gather(u))
    assert (block.positions.kl, block.positions.ku) == (1, 5)
    # block 0 touches cells 5 and 8 outside its overlap, yet h = 2 sets
    # no form: only a tridiagonal stack takes the halo response
    assert stack.halo == 2 and block.lu is not None and stack.diagonals is None
    entries = [J.data[pos.rows] for pos in positions]
    for _ in range(3):
        _assert_action_matches_per_block(block, positions, entries,
                                         rng.standard_normal(12))


@pytest.mark.parametrize("exact", [True, False], ids=["solved", "gathered"])
def test_band_action_is_dgbtrs_bit_for_bit_on_the_64x64_stack(exact):
    # the benchmark's 2D stack: dgbtrf swaps no rows, and the two
    # triangular band solves give dgbtrs's output on the same factors
    prob = DiffusionProblem2D(64, 64)
    lay = build_2d_layout(64, 64, 8, 1, dirichlet_value=prob.dirichlet_value)
    stack = block_positions(prob, lay)
    assert stack.diagonals is None  # a band stack
    u = prob.initial_state() + 0.1
    X = sweep_locals(stack, u, SETTINGS).X if exact else stack.gather(u)
    block = local_jacobian(stack, X)
    lu, ipiv, lower = block.lu
    assert np.array_equal(ipiv, np.arange(stack.size)) and lower.flags.f_contiguous
    rng = np.random.default_rng(31)
    for _ in range(2):
        v = rng.standard_normal(prob.dof_count)
        want = -lapack.dgbtrs(lu, stack.kl, stack.ku, block.rows @ v, ipiv)[0]
        assert local_correction_jacobian_action(block, v).tobytes() == want.tobytes()


def test_band_action_after_a_row_interchange_takes_dgbtrs(monkeypatch):
    # a shrunk diagonal entry at the first cell of block 1 makes dgbtrf
    # swap rows there: the action solves with dgbtrs, not the triangular
    # solves, and stays each block's own band solve, bit for bit
    base = DiffusionProblem2D(12, 8)
    lay = build_2d_layout(12, 8, 4, 1)
    first = int(lay.cells[block_positions(base, lay).block_starts[1]])
    prob = ShrunkDiagonal(base, first)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    assert stack.diagonals is None  # a band stack
    u = 0.3 * np.random.default_rng(33).standard_normal(prob.dof_count)
    block = local_jacobian(stack, stack.gather(u))
    lu, ipiv, lower = block.lu
    assert lower is None and not np.array_equal(ipiv, np.arange(stack.size))
    calls = recorded_calls(monkeypatch, ("dgbtrs", "dtbsv"))
    J = prob.jacobian(u)
    entries = [J.data[pos.rows] for pos in positions]
    v = np.random.default_rng(34).standard_normal(prob.dof_count)
    got = local_correction_jacobian_action(block, v)
    assert call_counts(calls, ("dgbtrs", "dtbsv")) == {"dgbtrs": 1, "dtbsv": 0}
    assert got.tobytes() == per_block_action(positions, entries, v).tobytes()


@pytest.mark.parametrize("first, named", [(True, 2), (False, 1)],
                         ids=["own-first-column", "previous-last-column"])
def test_zero_pivot_names_its_subdomain(first, named, monkeypatch):
    # the 1D stack's halo response is one dgtsv call on all blocks
    prob = smooth_forchheimer(24, beta=1.0)
    positions = block_positions(prob, build_1d_layout(24, 4, 2))
    start = positions.block_starts[2]  # subdomain 2's first column
    monkeypatch.setattr(local_solver_mod, "dgtsv",
                        zero_pivot("dgtsv", start if first else start - 1))
    with pytest.raises(LocalSolveError,
                       match=f"^subdomain {named}: singular local Jacobian$"):
        local_jacobian(positions, positions.gather(np.zeros(24)))


@pytest.mark.parametrize("first, named", [(True, 2), (False, 1)],
                         ids=["own-first-column", "previous-last-column"])
def test_zero_pivot_in_a_band_stack_names_its_subdomain(first, named, monkeypatch):
    # the 2D stack's blocks are one dgbtrf call on all blocks
    prob = DiffusionProblem2D(12, 8)
    positions = block_positions(prob, build_2d_layout(12, 8, 4, 1))
    assert positions.diagonals is None
    start = positions.block_starts[2]  # subdomain 2's first column
    monkeypatch.setattr(local_solver_mod, "dgbtrf",
                        zero_pivot("dgbtrf", start if first else start - 1))
    with pytest.raises(LocalSolveError,
                       match=f"^subdomain {named}: singular local Jacobian$"):
        local_jacobian(positions, positions.gather(prob.initial_state()))


def test_halo_response_without_a_halo_passes_dgtsv_no_empty_right_hand_side(
        monkeypatch):
    # one subdomain (I = 1) has no halo, h = 0: f2py's dgtsv corrupts the
    # heap on a right-hand side without columns, so tridiagonal_solve
    # solves one zero column instead, and its singular check still runs
    prob = smooth_forchheimer(17, beta=1.0)
    stack = block_positions(prob, build_1d_layout(17, 1, 0))
    assert stack.halo == 0 and stack.diagonals is not None
    calls = recorded_calls(monkeypatch, ("dgtsv",))
    v = np.random.default_rng(35).standard_normal(17)
    for u in (np.zeros(17), np.linspace(0.0, 1.0, 17)):
        block = local_jacobian(stack, stack.gather(u))
        assert block.lu is None
        assert local_correction_jacobian_action(block, v).tobytes() == (-v).tobytes()
    values = stack.kernels.values_of(stack.kernels.faces(stack.gather(np.zeros(17))))
    z, info = tridiagonal_solve(values, stack.diagonals, np.zeros((17, 0)))
    assert z.shape == (17, 0) and info == 0
    values[stack.diagonals[1, 5]] = 0.0  # A[5, 5], and then its column
    values[stack.diagonals[0, 6]] = values[stack.diagonals[2, 4]] = 0.0
    assert tridiagonal_solve(values, stack.diagonals, np.zeros((17, 0)))[1] == 6
    assert len(calls) == 4
    assert all(np.ndim(b) == 1 or np.shape(b)[1] > 0 for _, (*_, b) in calls)


# ------------------------------------------- subdomains solved together


_LAYOUTS = {
    "1d-k0": lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 4, 0)),
    "1d-k3": lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 8, 3)),
    "1d-I=M": lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 0)),
    "1d-I=M-k1": lambda: (smooth_forchheimer(9, beta=1.0), build_1d_layout(9, 9, 1)),
    "1d-I=1": lambda: (smooth_forchheimer(17, beta=1.0), build_1d_layout(17, 1, 0)),
    "1d-rough": lambda: (hard_forchheimer(30, 10.0, seed=4), build_1d_layout(30, 5, 2)),
    "1d-wide-band": lambda: (WideBand(smooth_forchheimer(12, beta=1.0)),
                             build_1d_layout(12, 3, 1)),
    "2d-12x8-N4-k1": lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
    "2d-12x8-N2-k2": lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 2, 2)),
    "2d-8x12-N4-k2": lambda: (DiffusionProblem2D(8, 12), build_2d_layout(8, 12, 4, 2)),
}


_STACK_ARRAYS = ("sizes", "block_starts", "columns", "indptr", "block", "slots")


def _assert_matches_per_block_builder(stack, positions):
    """A PositionStack's arrays, bit for bit and dtype for dtype, and bands."""
    want = stacked_positions(positions)
    for name in _STACK_ARRAYS:
        got = getattr(stack, name)
        assert got.dtype == want[name].dtype, name
        assert got.tobytes() == want[name].tobytes(), name
    assert (stack.kl, stack.ku) == (want["kl"], want["ku"])


@pytest.mark.parametrize("make", [*_LAYOUTS.values(),
    lambda: (Repatterned(smooth_forchheimer(12, beta=1.0), _with_extra_entry),
             build_1d_layout(12, 3, 1)),
    lambda: (Repatterned(smooth_forchheimer(12, beta=1.0), with_entry_above),
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
def test_frozen_blocks_factor_as_the_masked_band(name):
    # the band masked to the active blocks' rows factors, block by block, as
    # each active block alone at the stack's kl and ku, bit for bit: its
    # columns of lu are the block's own factors and its pivots the block's
    # own, offset by the block's start in the masked band
    prob, lay = _LAYOUTS[name]()
    stack, n = block_positions(prob, lay), lay.n_subdomains
    entries = stack.kernels.jacobian(stack.gather(_states(prob, 53)[1]))
    rows = sp.csr_matrix((entries, stack.columns, stack.indptr),
                         shape=(stack.size, prob.dof_count)).toarray()
    A = _block_diagonal(lay, rows)
    rng = np.random.default_rng(53)
    for active in (np.ones(n, bool), np.zeros(n, bool), np.arange(n) % 2 == 0,
                   rng.random(n) < 0.5, np.arange(n) == n - 1):
        lu, ipiv, info = _band_lu(stack, entries, np.repeat(active, stack.sizes))
        assert info == 0
        assert lu.shape == (2 * stack.kl + stack.ku + 1, stack.sizes[active].sum())
        at = 0
        for b in np.flatnonzero(active):
            own = _row_range(stack, b)
            own_lu, own_ipiv, own_info = lapack.dgbtrf(
                _dense_to_band(A[own][:, own], stack.kl, stack.ku), stack.kl, stack.ku)
            assert own_info == 0
            part = slice(at, at + len(own))
            assert lu[:, part].tobytes() == own_lu.tobytes()
            assert ipiv[part].tobytes() == (own_ipiv + at).tobytes()
            at = part.stop


@pytest.mark.parametrize("name", _LAYOUTS)
def test_batched_sweep_bit_identical_to_sequential_solves(name):
    prob, lay = _LAYOUTS[name]()
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    if name.startswith("2d") and "-N4-" in name:
        # corner, edge and interior blocks: the band pads the narrower ones
        assert len({(pos.kl, pos.ku) for pos in positions}) > 1
    if name == "1d-wide-band":
        assert (stack.kl, stack.ku) == (1, 5)
    # each block is solved as its stack solves: by dgtsv on a stack of
    # bandwidths at most 1, else by band LU, the wide band's tridiagonal
    # blocks included
    tridiagonal = stack.kl <= 1 and stack.ku <= 1
    assert tridiagonal == (name.startswith("1d") and name != "1d-wide-band")
    for u in _states(prob, 50):
        try:
            want = [sequential_local_solve(prob, pos, u, SETTINGS, tridiagonal=tridiagonal)
                    for pos in positions]
        except LocalSolveError as exc:
            # the rough field's cold start: the first failure in subdomain
            # order, with its message
            with pytest.raises(LocalSolveError) as caught:
                sweep_locals(stack, u, SETTINGS)
            assert str(caught.value) == str(exc)
            continue
        result = sweep_locals(stack, u, SETTINGS)
        assert result.correction.tobytes() == np.concatenate(
            [c for c, _, _ in want]).tobytes()
        assert result.X[:stack.size].tobytes() == np.concatenate(
            [s for _, s, _ in want]).tobytes()
        assert result.inner_counts == tuple(n for _, _, n in want)
        assert result.inner_iterations == sum(result.inner_counts)


def test_converged_subdomains_keep_their_solo_values():
    # subdomain 3 holds the u(L) = 1 boundary and needs one step more than
    # the others, which are frozen meanwhile
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack = block_positions(prob, lay)
    u = np.zeros(40)
    result = solve_local(stack, u, SETTINGS)
    assert min(result.inner_counts) < max(result.inner_counts)
    for pos, correction, solved, count in zip(
            per_block_positions(prob, lay),
            _per_block(stack, result.correction),
            _per_block(stack, result.X[:stack.size]),
            result.inner_counts):
        alone = sequential_local_solve(prob, pos, u, SETTINGS)
        assert alone[2] == count
        assert correction.tobytes() == alone[0].tobytes()
        assert solved.tobytes() == alone[1].tobytes()


def _entry_ranges(stack):
    """Each block's range in the stacked row data."""
    bounds = np.append(stack.indptr[stack.block_starts], len(stack.columns))
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _row_range(stack, b):
    return range(stack.block_starts[b], stack.block_starts[b] + stack.sizes[b])


def _failing(stack, positions, singular=(), nonfinite=(), tiny=()):
    """The stack with failures injected into its kernels.

    singular maps blocks to the Jacobian derivation (1 = first) from which
    their entries are zero, nonfinite maps blocks to the residual
    derivation from which their rows are nan, and tiny maps blocks to the
    Jacobian derivation from which their entries are scaled by 1e-320, so
    that the step overflows.  A Jacobian derivation is a values_of call; a
    block's entries read values that no other block's entries read, so
    scaling those values scales its entries alone.  Returns the failing
    stack and, per block,
    (residual, jacobian) kernels that fail the same way on that block
    alone, whose BlockPositions positions lists.
    """
    entries, calls = _entry_ranges(stack), {"residual": 0, "jacobian": 0}

    def residual(faces):
        calls["residual"] += 1
        r = stack.kernels.residual_of(faces)
        for b, at in dict(nonfinite).items():
            if calls["residual"] >= at:
                r[_row_range(stack, b)] = np.nan
        return r

    values = [np.unique(stack.kernels.take[at]) for at in entries]
    assert len(np.unique(np.concatenate(values))) == sum(map(len, values))

    def jacobian(faces):
        calls["jacobian"] += 1
        data = stack.kernels.values_of(faces)
        for faults, scale in ((singular, 0.0), (tiny, 1e-320)):
            for b, at in dict(faults).items():
                if calls["jacobian"] >= at:
                    data[values[b]] *= scale
        return data

    def alone(b):
        pos = positions[b]
        kernels = block_kernels(stack.problem, [pos])
        own_residual, own_jacobian = kernels.residual, kernels.jacobian
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

    kernels = Kernels(stack.kernels, residual_of=residual, values_of=jacobian)
    return dataclasses.replace(stack, kernels=kernels), alone


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


def test_singular_block_among_frozen_ones_is_named_by_its_own_rows():
    # subdomains 0-2 take four steps and subdomain 3 a fifth, alone in the
    # band; its block turns singular there, so dgbtrf's pivot counts in the
    # band of its rows only and must map back to subdomain 3, not 0
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    u = np.zeros(40)
    assert solve_local(stack, u, SETTINGS).inner_counts == (4, 4, 4, 5)
    failing, alone = _failing(stack, positions, singular={3: 5})
    want = _sequential_error(prob, positions, u, SETTINGS, alone)
    assert str(want) == "subdomain 3: singular local Jacobian"
    with pytest.raises(LocalSolveError) as caught:
        solve_local(failing, u, SETTINGS)
    assert str(caught.value) == str(want)
    assert caught.value.subdomain == 3


def test_overflowing_step_spills_into_no_other_subdomain():
    # subdomain 2's block is scaled to 1e-320 at its second step, so that
    # step overflows; in the stacked solve, 0 * inf would turn the
    # neighbours' steps into nan, and subdomain 0 or 1 would be named
    # instead; dgtsv's step holds inf, whose next face pass reads nan
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    u = np.zeros(40)
    failing, alone = _failing(stack, positions, tiny={2: 2})
    with np.errstate(over="ignore", invalid="ignore"):
        want = _sequential_error(prob, positions, u, SETTINGS, alone)
    assert str(want) == "subdomain 2: inner Newton produced a non-finite residual"
    with pytest.raises(LocalSolveError) as caught:
        solve_local(failing, u, SETTINGS)
    assert str(caught.value) == str(want)
    assert caught.value.subdomain == 2


@pytest.mark.parametrize("value", [1e308, np.nan], ids=["overflow", "nan"])
def test_nonfinite_start_residual_fails_its_subdomain(value):
    # u[5] makes F non-finite in rows 4-6, which only subdomain 0 holds; a
    # nan start norm passes no tolerance test, so it must fail, not freeze
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    u = np.zeros(40)
    u[5] = value
    with np.errstate(over="ignore", invalid="ignore"):
        want = _sequential_error(prob, positions, u, SETTINGS, lambda b: None)
        with pytest.raises(LocalSolveError) as caught:
            solve_local(stack, u, SETTINGS)
    assert str(caught.value) == str(want) == (
        "subdomain 0: inner Newton produced a non-finite residual")
    assert caught.value.subdomain == 0
    assert len(caught.value.residuals) == 1
    assert not np.isfinite(caught.value.residuals[0])


def test_overflow_resolve_leaves_every_other_step_as_alone():
    # block 2's entries scaled to 1e-320 make its step overflow; in the band,
    # padded to block 1's upper bandwidth 5, 0 * inf spills into its
    # neighbours, so each non-finite block is solved again on its own rows
    prob, lay = _LAYOUTS["1d-wide-band"]()
    stack, positions = block_positions(prob, lay), per_block_positions(prob, lay)
    assert (stack.kl, stack.ku) == (1, 5)
    faces = stack.kernels.faces(stack.gather(np.zeros(12)))
    values, r = stack.kernels.values_of(faces), stack.kernels.residual_of(faces)
    values[np.unique(stack.kernels.take[_entry_ranges(stack)[2]])] *= 1e-320
    entries = values[stack.kernels.take]
    lu, ipiv, _ = _band_lu(stack, entries)
    spilled = lapack.dgbtrs(lu, stack.kl, stack.ku, r, ipiv)[0]
    assert not all(np.isfinite(part).all() for b, part in
                   enumerate(_per_block(stack, spilled)) if b != 2)
    active, failures = np.ones(lay.n_subdomains, bool), {}
    with np.errstate(over="ignore", invalid="ignore"):  # as solve_local calls it
        step, rows = _step(stack, values, r, active, failures)
    assert active.all() and failures == {} and rows == slice(None)
    for b, (pos, got) in enumerate(zip(positions, _per_block(stack, step))):
        if b == 2:
            assert not np.isfinite(got).all()
            continue
        band = np.zeros((pos.size, 2 * pos.kl + pos.ku + 1))
        band.flat[pos.slots] = entries[_entry_ranges(stack)[b]][pos.block]
        own_lu, own_ipiv, info = lapack.dgbtrf(band.T, pos.kl, pos.ku,
                                               overwrite_ab=True)
        assert info == 0
        solo = lapack.dgbtrs(own_lu, pos.kl, pos.ku, r[_row_range(stack, b)],
                             own_ipiv)[0]
        assert got.tobytes() == solo.tobytes()


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
                      np.linalg.norm(own_residual(block_vector([pos], u))),
                      rtol=1e-14)
    if kind == "nonfinite":
        assert not np.isfinite(err.residuals[-1])
        assert np.isfinite(err.residuals[:-1]).all()
    else:
        assert np.isfinite(err.residuals).all()
        assert err.residuals[-1] > settings.inner_tol


def _counting(stack):
    """The stack with its face passes and derivations counted, and the counts."""
    calls = {"faces": 0, "residual_of": 0, "values_of": 0}

    def counted(name):
        piece = getattr(stack.kernels, name)

        def call(arg):
            calls[name] += 1
            return piece(arg)

        return call

    kernels = Kernels(stack.kernels, **{name: counted(name) for name in calls})
    return dataclasses.replace(stack, kernels=kernels), calls


def _solved_rows(calls):
    """(name, rows) of each recorded dgtsv, dgbtrf or dgbtrs call."""
    return [(name, len(args[1]) if name == "dgtsv" else args[0].shape[1])
            for name, args in calls]


@pytest.mark.parametrize("make", [
    lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)),
    lambda: (DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1)),
], ids=["1d", "2d"])
def test_sweep_cost_is_set_by_the_slowest_subdomain(make, monkeypatch):
    # one stacked solve and one Jacobian derivation (a values_of call) per
    # step of the slowest subdomain, and one face pass and residual
    # derivation more, so k inner steps make k + 1 face passes; the solved
    # block is one face pass and one Jacobian derivation.  The 1D stack
    # (kl = ku = 1) solves each step with one dgtsv call, the 2D one with
    # dgbtrf and dgbtrs
    prob, lay = make()
    stack, calls = _counting(block_positions(prob, lay))
    tridiagonal = (stack.kl, stack.ku) == (1, 1)
    assert tridiagonal == isinstance(prob, ForchheimerProblem1D)
    factored = recorded_calls(monkeypatch, ("dgbtrf", "dgtsv"))
    solver = "dgtsv" if tridiagonal else "dgbtrf"
    for u in _states(prob, 51):
        del factored[:]
        calls.update(faces=0, residual_of=0, values_of=0)
        result = solve_local(stack, u, SETTINGS)
        steps = max(result.inner_counts)
        assert steps > 0
        assert len(factored) == steps == calls["values_of"]
        assert calls["faces"] == calls["residual_of"] == steps + 1
        # step k solves the rows of the blocks still active, those of the
        # subdomains taking at least k steps; so the sweep solves
        # sum_b sizes[b] * inner_counts[b] rows, not steps * size
        counts = np.array(result.inner_counts)
        assert _solved_rows(factored) == [(solver, stack.sizes[counts >= k].sum())
                                          for k in range(1, steps + 1)]
        assert sum(m for _, m in _solved_rows(factored)) == stack.sizes @ counts
        calls.update(faces=0, residual_of=0, values_of=0)
        local_jacobian(result.positions, result.X)
        assert calls == {"faces": 1, "residual_of": 0, "values_of": 1}
        # the local Jacobian makes one call on the full stack by the same
        # solver: dgtsv for the 1D halo response, dgbtrf for the 2D factors
        assert _solved_rows(factored[steps:]) == [(solver, stack.size)]


@pytest.mark.parametrize("make, calls", [
    (lambda: (smooth_forchheimer(800, 1.0), build_1d_layout(800, 40, 3)), ["dgtsv"]),
    (lambda: (DiffusionProblem2D(64, 64), build_2d_layout(64, 64, 8, 1)),
     ["dgbtrf", "dgbtrs"]),
], ids=["newton-1d", "newton-2d"])
def test_a_step_makes_one_solver_call_per_stack(make, calls, monkeypatch):
    # the benchmark's stacks: a tridiagonal one (kl = ku = 1) solves a
    # step, frozen blocks or not, with one dgtsv call on the active rows,
    # the 2D band with one dgbtrf and one dgbtrs; either returns the step
    # of the active rows only, with the rows it solved
    prob, lay = make()
    stack = block_positions(prob, lay)
    faces = stack.kernels.faces(stack.gather(prob.initial_state() + 0.1))
    values, r = stack.kernels.values_of(faces), stack.kernels.residual_of(faces)
    made = recorded_calls(monkeypatch, ("dgtsv", "dgbtrf", "dgbtrs"))
    n = lay.n_subdomains
    for active in (np.ones(n, bool), np.arange(n) != 3, np.arange(n) == n - 1):
        del made[:]
        failures = {}
        x, rows = _step(stack, values, r, active.copy(), failures)
        assert failures == {} and np.isfinite(x).all()
        assert _solved_rows(made) == [(name, stack.sizes[active].sum())
                                      for name in calls]
        moving = np.flatnonzero(np.repeat(active, stack.sizes))
        assert np.array_equal(np.arange(stack.size)[rows], moving)
        assert x.shape == moving.shape


def test_stacks_are_built_once_and_share_their_geometry():
    # every LocalJacobian places its entries by the stack it was built on
    prob = smooth_forchheimer(24, beta=1.0)
    positions = block_positions(prob, build_1d_layout(24, 4, 2))
    u = np.linspace(0.0, 1.0, 24)
    first = local_jacobian(positions, solve_local(positions, u, SETTINGS).X)
    second = local_jacobian(positions, positions.gather(u + 1.0))
    assert first.positions is positions and second.positions is positions
    assert not any(getattr(positions, name).flags.writeable for name in _STACK_ARRAYS)


def test_finite_residual_whose_norm_overflows_fails_as_an_overflow():
    # |r| reaches 1.07e162, which is finite, but r * r overflows: the block
    # fails with a reason that says so, and no overflow warning escapes
    prob, lay = smooth_forchheimer(40, beta=0.0), build_1d_layout(40, 4, 1)
    u = 1e160 * (-1.0) ** np.arange(40)
    assert np.isfinite(prob.residual(u)).all()
    with pytest.raises(LocalSolveError) as caught:
        solve_local(block_positions(prob, lay), u, SETTINGS)
    assert str(caught.value) == (
        "subdomain 0: inner Newton's residual is finite, but its norm overflowed")
    assert caught.value.residuals == (np.inf,)


def _checking_sweeps(monkeypatch):
    """Make every system's sweep check solve_local against the two-call loop.

    Each sweep must give the oracle's X, correction and counts bit for bit,
    or raise its error, with the same reason and trail.  Returns the list
    of checked sweeps' outcomes.
    """
    checked = []

    def sweep(positions, u, settings):
        try:
            want = two_call_solve_local(positions, u, settings)
        except LocalSolveError as exc:
            with pytest.raises(LocalSolveError) as caught:
                solve_local(positions, u, settings)
            got = caught.value
            assert (str(got), got.subdomain) == (str(exc), exc.subdomain)
            assert (np.array(got.residuals).tobytes()
                    == np.array(exc.residuals).tobytes())
            checked.append(str(exc))
            raise
        got = solve_local(positions, u, settings)
        assert got.X.tobytes() == want.X.tobytes()
        assert got.correction.tobytes() == want.correction.tobytes()
        assert got.inner_counts == want.inner_counts
        checked.append(got.inner_counts)
        return got

    monkeypatch.setattr(precond_mod, "sweep_locals", sweep)
    return checked


def test_sweeps_match_the_two_call_loop_along_the_fp_sweep_trajectory(monkeypatch):
    # perfbench's fp-sweep: its RASPEN1 fixed point takes 451 sweeps and
    # 8,044 inner iterations
    checked = _checking_sweeps(monkeypatch)
    prob, lay = smooth_forchheimer(100, 1.0, L=1.0), build_1d_layout(100, 8, 3)
    u0 = 0.5 * np.sin(40 * np.pi * (np.arange(100) + 0.5) / 100.0)
    run = fixed_point_solve(PreconditionedSystem("RASPEN1", prob, lay), u0)
    assert run.converged and len(checked) == 451
    assert sum(map(sum, checked)) == 8044


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweeps_match_the_two_call_loop_on_the_rough_fields(seed, monkeypatch):
    # rough-sweep's fields and layout, with each run's failures compared too
    checked = _checking_sweeps(monkeypatch)
    lay = build_1d_layout(240, 8, 2)
    for beta in (0.0, 1.0, 100.0):
        prob = hard_forchheimer(240, beta, seed)
        u0 = prob.initial_state()
        for kind in KINDS:
            system = PreconditionedSystem(kind, prob, lay)
            outer_newton(system, u0, u_ref=u0)
            fixed_point_solve(system, u0, max_steps=10, u_ref=u0)
    # every seed has sweeps that converge and sweeps that fail
    assert {type(outcome) for outcome in checked} == {tuple, str}


def _applied_operators():
    """Every CSR operator family the library applies by csr_apply, by name."""
    operators = {}
    for halo, prob, lay in (
            (True, smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)),
            (False, DiffusionProblem2D(12, 8), build_2d_layout(12, 8, 4, 1))):
        stack, space = block_positions(prob, lay), coarse_space(prob, lay)
        assert (stack.diagonals is not None) == halo
        u = 0.3 * np.random.default_rng(37).standard_normal(prob.dof_count)
        dim = "1d" if halo else "2d"
        block = local_jacobian(stack, stack.gather(u))
        if halo:  # RASPEN's owned rows, in cell order
            operators["halo-stack-owned"] = block.owned
        operators.update({
            "halo-stack-rows" if halo else "band-stack-rows": block.rows,
            f"{dim}-J": prob.jacobian(u), f"{dim}-R0": lay.R0, f"{dim}-P0": lay.P0,
            f"{dim}-P0T": space.P0T, f"{dim}-G1": space.G1, f"{dim}-G2": space.G2})
    return operators


_OPERATORS = _applied_operators()


def _int64_copy(A):
    B = A.copy()
    B.indices, B.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    return B


def _mixed_indices(A):
    """A with int64 column indices beside int32 row pointers."""
    B = A.copy()
    B.indices = A.indices.astype(np.int64)
    return B


@pytest.mark.parametrize("index", ["int32", "int64"])
@pytest.mark.parametrize("name", list(_OPERATORS))
def test_csr_apply_is_the_product_bit_for_bit(name, index):
    A = _OPERATORS[name]
    assert A.indices.dtype == A.indptr.dtype == np.int32
    if index == "int64":
        A = _int64_copy(A)
        assert A.indices.dtype == A.indptr.dtype == np.int64
    rng = np.random.default_rng(38)
    n = A.shape[1]
    # a strided x is copied by the kernel's argument conversion, as by @
    for x in (rng.standard_normal(n), np.zeros(n), rng.standard_normal(2 * n)[::2]):
        assert csr_apply(A, x).tobytes() == (A @ x).tobytes()


@pytest.mark.parametrize("operand", [
    lambda A, x: (A.tocsc(), x),
    lambda A, x: (A.tocoo(), x),
    lambda A, x: (A.toarray(), x),
    lambda A, x: (_mixed_indices(A), x),
    lambda A, x: (A.astype(np.float32), x),
    lambda A, x: (A, x[:-1]),
    lambda A, x: (A, np.append(x, 0.0)),
    lambda A, x: (A, x.astype(np.float32)),
    lambda A, x: (A, np.ones(len(x), dtype=int)),
], ids=["csc", "coo", "dense", "mixed-index-dtypes", "float32-data", "short-x",
        "long-x", "float32-x", "int-x"])
def test_csr_apply_raises_on_an_operand_the_kernel_does_not_take(operand):
    # the kernel converts or reads past what it is given without a check
    A, x = operand(_OPERATORS["1d-J"], np.ones(40))
    with pytest.raises(ValueError, match="^csr_apply takes"):
        csr_apply(A, x)

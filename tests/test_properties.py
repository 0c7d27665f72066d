"""Property-based invariants over randomly drawn layouts.

Every property runs a fixed, derandomized sample, so the suite stays
deterministic.  Each invariant is checked against the subdomain index sets,
the dense operators, the per-block oracles or finite differences directly,
not against the stacked arrays the glue operators, the Galerkin map and the
local actions read.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    WideBand,
    layout_blocks,
    loop_glue,
    per_block_action,
    per_block_positions,
    sequential_local_solve,
)

from raspen.coarse import (
    CoarseSolveError,
    coarse_jacobian,
    coarse_space,
    fas_correction_jacobian_action,
)
from raspen.decomposition import (
    build_1d_layout,
    build_2d_layout,
    prolong,
    restricted_prolong,
)
from raspen.local_solver import (
    LocalSolveError,
    SolverSettings,
    SolveError,
    block_positions,
    csr_apply,
    local_correction_jacobian_action,
    local_jacobian,
    sweep_locals,
)
from raspen.newton import reference_solution
from raspen.precond import KINDS, PreconditionedSystem
from raspen.problems import (
    DiffusionProblem2D,
    hard_forchheimer,
    smooth_forchheimer,
)

_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                     database=None)
_DATA = st.sampled_from([0.0, 1.0, -2.5])


@st.composite
def layouts_1d(draw):
    """(layout, k, per-axis shape): M cells, I blocks, any admissible k."""
    M = draw(st.integers(1, 150))
    # few blocks are drawn often: the remainder rule matters most there
    I = draw(st.integers(1, min(M, 4)) | st.integers(1, M))
    k = draw(st.integers(0, M // I if I > 1 else M + 2))
    lay = build_1d_layout(M, I, k, dirichlet=(draw(_DATA), draw(_DATA)))
    return lay, k, (M,)


@st.composite
def layouts_2d(draw):
    """(layout, k, (ny, nx)): N x N blocks of an nx-by-ny grid."""
    N = draw(st.integers(1, 5))
    nx, ny = N * draw(st.integers(1, 6)), N * draw(st.integers(1, 6))
    k = draw(st.integers(0, min(nx, ny) // N if N > 1 else max(nx, ny) + 2))
    lay = build_2d_layout(nx, ny, N, k, dirichlet_value=draw(_DATA))
    return lay, k, (ny, nx)


_LAYOUTS = st.one_of(layouts_1d(), layouts_2d())


def _box(cells, shape):
    """Per axis, the (lo, hi) range of the grid coordinates of `cells`."""
    coords = np.unravel_index(cells, shape)
    return [(c.min(), c.max() + 1) for c in coords]


@_SETTINGS
@given(_LAYOUTS)
def test_owned_sets_partition_the_cells_into_near_equal_boxes(drawn):
    lay, _, shape = drawn
    blocks = layout_blocks(lay)
    owned = np.concatenate([s.owned for s in blocks])
    assert np.array_equal(np.sort(owned), np.arange(lay.n_cells))
    for s in blocks:
        box = _box(s.owned, shape)
        assert len(s.owned) == np.prod([hi - lo for lo, hi in box])
    # blocks along an axis differ by at most one cell, larger ones first
    sizes = [len(s.owned) for s in blocks]
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)


@_SETTINGS
@given(_LAYOUTS)
def test_each_overlap_is_its_owned_block_grown_by_k_and_clipped(drawn):
    lay, k, shape = drawn
    grid = np.arange(lay.n_cells).reshape(shape)
    for s in layout_blocks(lay):
        grown = tuple(slice(max(lo - k, 0), min(hi + k, n))
                      for (lo, hi), n in zip(_box(s.owned, shape), shape))
        assert np.array_equal(s.overlap, grid[grown].ravel())
        assert np.array_equal(s.overlap[s.owned_local], s.owned)


@_SETTINGS
@given(_LAYOUTS)
def test_glue_of_stacked_ones_gives_ones_and_overlap_multiplicity(drawn):
    lay, _, _ = drawn
    ones = np.ones(len(lay.cells))
    assert np.array_equal(restricted_prolong(lay, ones), np.ones(lay.n_cells))
    multiplicity = sum(np.isin(np.arange(lay.n_cells), s.overlap).astype(float)
                       for s in layout_blocks(lay))
    assert np.array_equal(prolong(lay, ones), multiplicity)


@_SETTINGS
@given(_LAYOUTS, st.data())
def test_galerkin_map_gives_the_dense_coarse_jacobian(drawn, data):
    # the map reads only J's pattern and P0, so the problem's boundary
    # values need not be the layout's; its size and grid must be
    lay, _, shape = drawn
    problem = (smooth_forchheimer(*shape, 1.0) if len(shape) == 1
               else DiffusionProblem2D(shape[1], shape[0]))
    n = lay.n_subdomains
    u0 = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                     max_size=n)))
    P0 = lay.P0
    dense = (P0.T @ problem.jacobian(P0 @ u0) @ P0).toarray()
    J0 = coarse_jacobian(coarse_space(problem, lay), u0)
    assert np.abs(J0 - dense).max() <= 1e-13 * np.abs(dense).max()


@st.composite
def problems_at_states(draw):
    """(problem, layout, u): a drawn layout's problem at a state u near its
    reference solution (smooth fields) or far from it (random ones too)."""
    lay, _, shape = draw(_LAYOUTS)
    rough = len(shape) == 1 and draw(st.booleans())
    if len(shape) == 2:
        problem = DiffusionProblem2D(shape[1], shape[0])
    elif rough:
        problem = hard_forchheimer(shape[0], draw(st.sampled_from([0.0, 10.0])),
                                   seed=draw(st.integers(0, 3)))
    else:
        problem = smooth_forchheimer(shape[0], draw(st.sampled_from([0.0, 1.0])))
    noise = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        problem.dof_count)
    # a rough field's reference solve can stall at its roundoff floor
    if not rough and draw(st.booleans()):
        return problem, lay, reference_solution(problem) + 1e-6 * noise
    return problem, lay, problem.initial_state() + 0.5 * noise


@_SETTINGS
@given(problems_at_states())
# h = 0 (one block), end blocks with one halo cell, and a band padded to
# ku = 5, a band stack although h = 2
@example((smooth_forchheimer(17, 1.0), build_1d_layout(17, 1, 0),
          np.linspace(0.0, 1.0, 17)))
@example((smooth_forchheimer(17, 1.0), build_1d_layout(17, 4, 1),
          np.linspace(0.0, 1.0, 17)))
@example((WideBand(smooth_forchheimer(12, 1.0)), build_1d_layout(12, 3, 1),
          np.linspace(0.0, 1.0, 12)))
def test_local_action_matches_the_band_solve_on_either_side_of_the_halo_rule(
        drawn):
    problem, lay, u = drawn
    stack, positions = block_positions(problem, lay), per_block_positions(problem, lay)
    block = local_jacobian(stack, stack.gather(u))
    # each block's halo: the distinct columns its rows touch outside its overlap
    halos = [len(np.setdiff1d(pos.columns, pos.overlap)) for pos in positions]
    kl = max(pos.kl for pos in positions)
    ku = max(pos.ku for pos in positions)
    assert stack.halo == max(halos)
    # the halo rule: a tridiagonal stack takes the halo response, any
    # other keeps its band factors
    assert (block.lu is None) == (kl <= 1 and ku <= 1)
    J = problem.jacobian(u)
    entries = [J.data[pos.rows] for pos in positions]
    v = np.random.default_rng(7).standard_normal(problem.dof_count)
    got = local_correction_jacobian_action(block, v)
    if block.lu is None:
        assert block.rows.nnz == sum(pos.size * (1 + h)
                                     for pos, h in zip(positions, halos))
        halo = per_block_action(positions, entries, v, halo=True)
        assert got.tobytes() == halo.tobytes()
        if stack.halo == 0:  # one block, no exterior: A^{-1} R J v = v
            assert got.tobytes() == (-v[lay.cells]).tobytes()
    band = per_block_action(positions, entries, v)
    # the band solve's own forward error grows with the blocks' condition
    # numbers (up to 5e6 on the rough fields drawn here, where it reads
    # 3e-12 relative at h = 0, where the halo path is exact); a band
    # stack's action is that solve, so at h = 0 it is -v at roundoff only
    dense = J.toarray()
    cond = max(np.linalg.cond(dense[np.ix_(pos.overlap, pos.overlap)], 1)
               for pos in positions)
    tol = max(1e-13, cond * np.finfo(float).eps)
    assert np.abs(got - band).max() <= tol * np.abs(band).max()


@settings(_SETTINGS, max_examples=50)
@given(problems_at_states(), st.integers(0, 2**16))
def test_every_kinds_action_matches_finite_differences(drawn, seed):
    # criterion 2 on drawn layouts, which fall on both sides of the halo
    # rule: the exact derivative against central differences of the value
    problem, lay, u = drawn
    tight = SolverSettings(inner_tol=1e-12)
    v = np.random.default_rng(seed).standard_normal(problem.dof_count)
    eps = 1e-6
    for kind in ("RASPEN1", "ASPIN1", "RASPEN2"):
        system = PreconditionedSystem(kind, problem, lay, tight, jacobian_mode="exact")
        try:
            got = system.jacobian_action(system.residual(u), v)
            fd = (system.residual(u + eps * v).value
                  - system.residual(u - eps * v).value) / (2 * eps)
        except SolveError:
            assume(False)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


@st.composite
def small_problems(draw, betas=(0.0, 1.0, 10.0)):
    """(problem, layout, rough): a small drawn 1D layout's smooth or rough
    problem at one of betas, or a small 2D grid's diffusion problem."""
    if draw(st.integers(0, 2)):  # two 1D layouts to one 2D
        M = draw(st.integers(1, 40))
        # up to eight blocks, or one-cell blocks (I = M)
        I = draw(st.integers(1, min(M, 8)) | st.just(M))
        k = draw(st.integers(0, min(3, M // I if I > 1 else M)))
        lay, beta = build_1d_layout(M, I, k), draw(st.sampled_from(betas))
        rough = draw(st.booleans())
        problem = (hard_forchheimer(M, beta, seed=draw(st.integers(0, 3)))
                   if rough else smooth_forchheimer(M, beta))
        return problem, lay, rough
    N = draw(st.integers(1, 3))
    nx, ny = N * draw(st.integers(1, 4)), N * draw(st.integers(1, 4))
    k = draw(st.integers(0, min(nx, ny) // N if N > 1 else 1))
    return DiffusionProblem2D(nx, ny), build_2d_layout(nx, ny, N, k), False


@st.composite
def sweeps(draw):
    """(problem, layout, u, settings): a small drawn layout's problem at a
    smooth, rough, large or huge state (one whose residual norm can
    overflow while its entries stay finite), under an inner budget that can
    run out."""
    problem, lay, _ = draw(small_problems())
    n, base = problem.dof_count, problem.initial_state()
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = {"smooth": base + 0.5 * np.sin(np.pi * (np.arange(n) + 0.5) / n),
         "rough": base + 0.5 * rng.standard_normal(n),
         "large": 1e6 * rng.standard_normal(n),
         "huge": 1e160 * rng.standard_normal(n)}[
        draw(st.sampled_from(["smooth", "rough", "large", "huge"]))]
    budget = draw(st.sampled_from([50, 50, 50, 2]))
    return problem, lay, u, SolverSettings(max_inner=budget)


@_SETTINGS
@given(sweeps())
# one block (I = 1, no halo), one-cell blocks (I = M, k = 0), and a rough
# field whose blocks run out of a two-step budget
@example((smooth_forchheimer(17, 1.0), build_1d_layout(17, 1, 0), np.zeros(17),
          SolverSettings()))
@example((smooth_forchheimer(9, 1.0), build_1d_layout(9, 9, 0), np.zeros(9),
          SolverSettings()))
@example((hard_forchheimer(30, 10.0, seed=4), build_1d_layout(30, 5, 2),
          np.zeros(30), SolverSettings(max_inner=2)))
def test_sweep_matches_the_per_block_solves(drawn):
    # the stacked sweep against each subdomain solved alone by
    # sequential_local_solve, with the stack's solver (dgtsv on a
    # tridiagonal stack, else band LU), bit for bit: corrections, solved
    # X, the state behind it and counts, or the first failure's message
    problem, lay, u, inner = drawn
    stack = block_positions(problem, lay)
    tridiagonal = stack.diagonals is not None
    # the sweep ignores overflow and inf - inf in its iterates; so does its oracle
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = [sequential_local_solve(problem, pos, u, inner, tridiagonal=tridiagonal)
                    for pos in per_block_positions(problem, lay)]
        except LocalSolveError as exc:
            with pytest.raises(LocalSolveError) as caught:
                sweep_locals(stack, u, inner)
            assert str(caught.value) == str(exc)
            return
    result = sweep_locals(stack, u, inner)
    assert result.correction.tobytes() == np.concatenate([c for c, _, _ in want]).tobytes()
    assert result.X.tobytes() == np.concatenate([s for _, s, _ in want] + [u]).tobytes()
    assert result.inner_counts == tuple(count for _, _, count in want)


@settings(_SETTINGS, max_examples=80)
@given(small_problems(betas=(0.0, 1.0, 10.0, 100.0)))
# one block (I = 1) and one-cell blocks (I = M), smooth and rough
@example((smooth_forchheimer(17, 1.0), build_1d_layout(17, 1, 0), False))
@example((hard_forchheimer(12, 100.0, seed=2), build_1d_layout(12, 12, 0), True))
# a single coarse unknown on which ASPIN2's coarse base solve cycles
@example((hard_forchheimer(25, 1.0, seed=1), build_1d_layout(25, 1, 0), True))
def test_every_kind_vanishes_at_the_reference_solution(drawn):
    # criterion 8 on drawn layouts: at the reference every local and
    # coarse solve starts within its tolerance, so every correction is zero
    problem, lay, rough = drawn
    u = reference_solution(problem)
    for kind in KINDS:
        system = PreconditionedSystem(kind, problem, lay)
        try:
            value = system.residual(u).value
        except CoarseSolveError:
            # ASPIN2's coarse base solve is undamped coarse Newton from
            # zero, which can cycle on a rough field
            if kind == "ASPIN2" and rough:
                continue
            raise
        assert np.all(value == 0.0), kind


def _directions(rng, n):
    """A random direction, and one holding zeros and -0.0 beside it."""
    v = rng.standard_normal(n)
    signed = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0], n), v)
    return v, signed, np.full(n, -0.0)


@settings(_SETTINGS, max_examples=40)
@given(small_problems(), st.integers(0, 2**16))
# one block (I = 1), one-cell blocks (I = M, k = 0), smooth and rough
@example((smooth_forchheimer(17, 1.0), build_1d_layout(17, 1, 0), False), 0)
@example((hard_forchheimer(12, 10.0, seed=2), build_1d_layout(12, 12, 0), True), 1)
@example((DiffusionProblem2D(6, 6), build_2d_layout(6, 6, 3, 1), False), 2)
def test_raspen_actions_are_the_restricted_glue_of_the_local_actions(drawn, seed):
    # the RASPEN derivatives, P~(-A_i^{-1} R_i J v) and, with pt the
    # prolonged FAS action, pt + P~(-A_i^{-1} R_i J (v + pt)), rebuilt from
    # public pieces, against jacobian_action, bit for bit; and the
    # restricted glue against the per-subdomain loop, -0.0 included
    problem, lay, _ = drawn
    rng = np.random.default_rng(seed)
    n, stacked = problem.dof_count, rng.standard_normal(len(lay.cells))
    stacked[rng.random(len(stacked)) < 0.5] = -0.0
    assert (restricted_prolong(lay, stacked).tobytes()
            == loop_glue(lay, stacked, True).tobytes())
    u = reference_solution(problem) + 1e-3 * rng.standard_normal(n)
    space = coarse_space(problem, lay)
    for kind in ("RASPEN1", "RASPEN2"):
        system = PreconditionedSystem(kind, problem, lay)
        try:
            ev = system.residual(u)
        except SolveError:
            continue
        for v in _directions(rng, n):
            pt = 0.0
            if kind == "RASPEN2":
                pt = csr_apply(lay.P0, fas_correction_jacobian_action(
                    ev.coarse, space, ev.J_u, v))
            x = v + pt if kind == "RASPEN2" else v
            local = local_correction_jacobian_action(ev.block, x)
            want = pt + restricted_prolong(lay, local)
            assert system.jacobian_action(ev, v).tobytes() == want.tobytes(), kind

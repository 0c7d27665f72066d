"""Tests for the Galerkin coarse problem and coarse corrections."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from oracles import dense_darcy_system, plain_newton

import raspen.coarse as coarse_mod
from raspen.coarse import (
    CoarseSolveError,
    aspin_coarse_correction,
    aspin_coarse_jacobian_action,
    aspin_coarse_setup,
    coarse_jacobian,
    coarse_residual,
    coarse_space,
    fas_correction,
    fas_correction_jacobian_action,
)
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import SolverSettings, csr_apply
from raspen.problems import (
    DiffusionProblem2D,
    ForchheimerProblem1D,
    hard_forchheimer,
    smooth_forchheimer,
)

SETTINGS = SolverSettings()


def _coarse_ops(problem, layout):
    """Dense A_0 = P_0^T A P_0 and the affine pieces for a beta=0 problem."""
    A, b = dense_darcy_system(problem)
    P0 = layout.P0.toarray()
    return A, b, P0.T @ A @ P0


def test_affine_coarse_function():
    prob = smooth_forchheimer(24, beta=0.0)
    lay = build_1d_layout(24, 4, 2)
    space = coarse_space(prob, lay)
    A, b, A0 = _coarse_ops(prob, lay)
    rng = np.random.default_rng(30)
    for _ in range(5):
        u0 = rng.standard_normal(4)
        want = A0 @ u0 - lay.P0.T @ b
        assert np.allclose(coarse_residual(space, u0), want, atol=1e-11)
    assert np.allclose(coarse_jacobian(space, u0), A0, atol=1e-11)


def test_coarse_jacobian_matches_fd():
    prob = smooth_forchheimer(30, beta=1.0)
    lay = build_1d_layout(30, 5, 2)
    space = coarse_space(prob, lay)
    rng = np.random.default_rng(31)
    u0 = rng.standard_normal(5)
    J0 = coarse_jacobian(space, u0)
    eps = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        fd = (
            coarse_residual(space, u0 + eps * e)
            - coarse_residual(space, u0 - eps * e)
        ) / (2 * eps)
        assert np.linalg.norm(J0[:, j] - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def test_coarse_zero_data():
    # zero source, zero Dirichlet data: F_0(0) = 0 exactly
    prob = ForchheimerProblem1D(
        np.ones(12), np.zeros(12), beta=1.0, dirichlet=(0.0, 0.0)
    )
    lay = build_1d_layout(12, 3, 1)
    space = coarse_space(prob, lay)
    assert np.allclose(coarse_residual(space, np.zeros(3)), 0.0, atol=1e-15)


def test_fas_correction_zero_at_solution():
    prob = smooth_forchheimer(24, beta=1.0)
    lay = build_1d_layout(24, 4, 2)
    space = coarse_space(prob, lay)
    ustar = plain_newton(prob, np.zeros(24))
    res = fas_correction(space, ustar, SETTINGS)
    assert np.allclose(res.correction, 0.0, atol=1e-7)
    assert res.inner_iterations <= 1


def test_fas_correction_affine_formula():
    prob = smooth_forchheimer(24, beta=0.0)
    lay = build_1d_layout(24, 4, 2)
    space = coarse_space(prob, lay)
    A, b, A0 = _coarse_ops(prob, lay)
    rng = np.random.default_rng(32)
    u = rng.standard_normal(24)
    res = fas_correction(space, u, SETTINGS)
    want = np.linalg.solve(A0, lay.P0.T @ (b - A @ u))
    assert np.allclose(res.correction, want, atol=1e-10)
    # defining equation holds
    u0 = lay.R0 @ u
    lhs = coarse_residual(space, u0 + res.correction)
    rhs = coarse_residual(space, u0) - lay.P0.T @ prob.residual(u)
    assert np.linalg.norm(lhs - rhs) <= SETTINGS.inner_tol


def test_fas_defining_equation_nonlinear():
    prob = smooth_forchheimer(36, beta=1.0)
    lay = build_1d_layout(36, 4, 3)
    space = coarse_space(prob, lay)
    rng = np.random.default_rng(33)
    u = 0.3 * rng.standard_normal(36)
    res = fas_correction(space, u, SETTINGS)
    u0 = lay.R0 @ u
    lhs = coarse_residual(space, u0 + res.correction)
    rhs = coarse_residual(space, u0) - lay.P0.T @ prob.residual(u)
    assert np.linalg.norm(lhs - rhs) <= SETTINGS.inner_tol


def test_fas_action_affine_oracle():
    prob = smooth_forchheimer(20, beta=0.0)
    lay = build_1d_layout(20, 4, 1)
    space = coarse_space(prob, lay)
    A, _, A0 = _coarse_ops(prob, lay)
    rng = np.random.default_rng(34)
    u = rng.standard_normal(20)
    res = fas_correction(space, u, SETTINGS)
    # affine: J_0 = J^_0 = A_0 and the action collapses to -A_0^{-1} P_0^T A v
    assert np.allclose(res.J0, A0, atol=1e-11)
    J0_hat = coarse_jacobian(space, lay.R0 @ u + res.correction)
    assert np.allclose(J0_hat, A0, atol=1e-11)
    for _ in range(3):
        v = rng.standard_normal(20)
        got = fas_correction_jacobian_action(res, space, prob.jacobian(u), v)
        want = -np.linalg.solve(A0, lay.P0.T @ (A @ v))
        assert np.allclose(got, want, atol=1e-10)
    # dense form of the general expression agrees too
    R0 = lay.R0.toarray()
    D = -R0 + np.linalg.solve(A0, A0 @ R0 - lay.P0.T.toarray() @ A)
    v = rng.standard_normal(20)
    assert np.allclose(
        fas_correction_jacobian_action(res, space, prob.jacobian(u), v), D @ v,
        atol=1e-10
    )


def test_fas_action_zero_and_fd():
    prob = smooth_forchheimer(30, beta=1.0)
    lay = build_1d_layout(30, 3, 2)
    space = coarse_space(prob, lay)
    tight = SolverSettings(inner_tol=1e-13)
    rng = np.random.default_rng(35)
    u = 0.2 * rng.standard_normal(30)
    res = fas_correction(space, u, tight)
    assert np.allclose(
        fas_correction_jacobian_action(res, space, prob.jacobian(u),
                                       np.zeros(30)), 0.0
    )
    for _ in range(3):
        v = rng.standard_normal(30)
        eps = 1e-6
        cp = fas_correction(space, u + eps * v, tight).correction
        cm = fas_correction(space, u - eps * v, tight).correction
        fd = (cp - cm) / (2 * eps)
        got = fas_correction_jacobian_action(res, space, prob.jacobian(u), v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_aspin_coarse_base_and_correction():
    prob = smooth_forchheimer(24, beta=1.0)
    lay = build_1d_layout(24, 4, 2)
    space = coarse_space(prob, lay)
    base = aspin_coarse_setup(space, SETTINGS)
    assert np.linalg.norm(coarse_residual(space, base.correction)) <= SETTINGS.inner_tol

    # at the fine solution the correction vanishes
    ustar = plain_newton(prob, np.zeros(24))
    res = aspin_coarse_correction(space, ustar, base, SETTINGS)
    assert np.allclose(res.correction, 0.0, atol=1e-6)

    # defining equation at a generic state
    rng = np.random.default_rng(36)
    u = 0.3 * rng.standard_normal(24)
    res = aspin_coarse_correction(space, u, base, SETTINGS)
    lhs = coarse_residual(space, res.correction + base.correction)
    rhs = -(lay.P0.T @ prob.residual(u))
    assert np.linalg.norm(lhs - rhs) <= SETTINGS.inner_tol


def test_aspin_coarse_affine_matches_fas():
    # for affine F both corrections solve A_0 c = P_0^T (b - A u)
    prob = smooth_forchheimer(20, beta=0.0)
    lay = build_1d_layout(20, 4, 1)
    space = coarse_space(prob, lay)
    A, b, A0 = _coarse_ops(prob, lay)
    base = aspin_coarse_setup(space, SETTINGS)
    rng = np.random.default_rng(37)
    u = rng.standard_normal(20)
    res = aspin_coarse_correction(space, u, base, SETTINGS)
    want = np.linalg.solve(A0, lay.P0.T @ (b - A @ u))
    assert np.allclose(res.correction, want, atol=1e-9)


def test_aspin_action_fd():
    prob = smooth_forchheimer(24, beta=1.0)
    lay = build_1d_layout(24, 3, 2)
    space = coarse_space(prob, lay)
    tight = SolverSettings(inner_tol=1e-13)
    base = aspin_coarse_setup(space, tight)
    rng = np.random.default_rng(38)
    u = 0.2 * rng.standard_normal(24)
    res = aspin_coarse_correction(space, u, base, tight)
    for _ in range(3):
        v = rng.standard_normal(24)
        eps = 1e-6
        cp = aspin_coarse_correction(space, u + eps * v, base, tight).correction
        cm = aspin_coarse_correction(space, u - eps * v, base, tight).correction
        fd = (cp - cm) / (2 * eps)
        got = aspin_coarse_jacobian_action(res, space, prob.jacobian(u), v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_j0_hat_round_trip():
    prob = DiffusionProblem2D(8, 8)
    lay = build_2d_layout(8, 8, 2, 1)
    space = coarse_space(prob, lay)
    rng = np.random.default_rng(39)
    u = rng.standard_normal(64)
    res = fas_correction(space, u, SETTINGS)
    J0_hat = coarse_jacobian(space, lay.R0 @ u + res.correction)
    for _ in range(3):
        w = rng.standard_normal(4)
        back = J0_hat @ sla.lu_solve(res.J0_hat_lu, w)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10


def _diffusion(dirichlet_value, n_per_side):
    return (DiffusionProblem2D(16, 16, dirichlet_value=dirichlet_value),
            build_2d_layout(16, 16, n_per_side, 1, dirichlet_value=dirichlet_value))


_GALERKIN_SETUPS = {
    "1d-zero-pinned": lambda: (smooth_forchheimer(40, beta=1.0),
                               build_1d_layout(40, 5, 2)),
    "1d-const-ends": lambda: (smooth_forchheimer(40, beta=1.0, dirichlet=(1.0, 2.0)),
                              build_1d_layout(40, 5, 2, dirichlet=(1.0, 2.0))),
    "1d-one-subdomain": lambda: (smooth_forchheimer(40, beta=1.0),
                                 build_1d_layout(40, 1, 0)),
    "2d-zero-N1": lambda: _diffusion(0.0, 1),
    "2d-zero-N8": lambda: _diffusion(0.0, 8),
    "2d-one-N1": lambda: _diffusion(1.0, 1),
    "2d-one-N8": lambda: _diffusion(1.0, 8),
}


@pytest.mark.parametrize("setup", _GALERKIN_SETUPS)
def test_galerkin_map_matches_the_sparse_triple_product(setup):
    prob, lay = _GALERKIN_SETUPS[setup]()
    space = coarse_space(prob, lay)
    rng = np.random.default_rng(41)
    for _ in range(3):
        u0 = rng.standard_normal(lay.n_subdomains)
        fine = lay.P0 @ u0
        want = (lay.P0.T @ prob.jacobian(fine) @ lay.P0).toarray()
        got = coarse_jacobian(space, u0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(coarse_residual(space, u0),
                              lay.P0.T @ prob.residual(fine))


_ORACLE_SETUPS = {
    "1d-smooth": lambda: (smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 5, 2)),
    "1d-rough": lambda: (hard_forchheimer(40, beta=10.0, seed=2),
                         build_1d_layout(40, 5, 2)),
    "1d-one-subdomain": lambda: (hard_forchheimer(30, beta=100.0, seed=1),
                                 build_1d_layout(30, 1, 0)),
    "2d-N2": lambda: (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1)),
    "2d-N4": lambda: _diffusion(1.0, 4),
}


@pytest.mark.parametrize("setup", _ORACLE_SETUPS)
def test_coarse_evaluations_are_the_global_ones_bit_for_bit(setup):
    # F_0 and J_0 from the kernels' one face pass equal P_0^T F(P_0 u_0) and
    # the Galerkin map applied to J(P_0 u_0).data, the global evaluations
    prob, lay = _ORACLE_SETUPS[setup]()
    space, n, J = coarse_space(prob, lay), lay.n_subdomains, prob.pattern
    G1, _ = coarse_mod._stage(lay.P0, np.repeat(np.arange(J.shape[0]),
                                                np.diff(J.indptr)), J.indices)
    rng = np.random.default_rng(42)
    for scale in (0.1, 1.0, 10.0, 1e3):
        u0 = prob.initial_state()[:n] + scale * rng.standard_normal(n)
        fine = csr_apply(lay.P0, u0)
        want = csr_apply(space.P0T, prob.residual(fine))
        assert coarse_residual(space, u0).tobytes() == want.tobytes()
        J0T = np.zeros((n, n))
        J0T.reshape(-1)[space.slots] = csr_apply(
            space.G2, csr_apply(G1, prob.jacobian(fine).data))
        assert coarse_jacobian(space, u0).tobytes() == J0T.T.tobytes()


def _coarse_solves(prob, lay, u, space=None):
    """Each coarse Newton entry point on space (by default a new one) as a
    function of the settings, by label."""
    space = space or coarse_space(prob, lay)
    base = aspin_coarse_setup(space, SETTINGS)
    return {
        "FAS coarse correction": lambda s: fas_correction(space, u, s),
        "AS coarse correction": lambda s: aspin_coarse_correction(
            space, u, base, s),
        "coarse base solve": lambda s: aspin_coarse_setup(space, s),
    }


@pytest.mark.parametrize("what", ["FAS coarse correction", "AS coarse correction",
                                  "coarse base solve"])
def test_coarse_budget_error(what):
    prob, lay = smooth_forchheimer(36, beta=1.0), build_1d_layout(36, 4, 3)
    u = 0.3 * np.random.default_rng(40).standard_normal(36)
    solve = _coarse_solves(prob, lay, u)[what]
    if what != "coarse base solve":
        assert solve(SETTINGS).inner_iterations >= 2
    with pytest.raises(CoarseSolveError, match=(
            f"^{what}: coarse Newton did not reach 1e-08 within 1 iterations "
            r"\(residual ")):
        solve(SolverSettings(max_inner=1))


def _spied_kernels(space, monkeypatch):
    """Record the face passes (state, faces) and the values_of arguments of
    the space's row kernels, the problem's all-rows kernels."""
    kernels = space.kernels
    passes, derived = [], []
    faces, values_of = kernels.faces, kernels.values_of
    monkeypatch.setattr(kernels, "faces",
                        lambda X: passes.append((X, faces(X))) or passes[-1][1])
    monkeypatch.setattr(kernels, "values_of",
                        lambda f: derived.append(f) or values_of(f))
    return passes, derived


def _no_jacobian(prob, monkeypatch):
    def jacobian(u):
        raise AssertionError("a coarse solve evaluated the global Jacobian")
    monkeypatch.setattr(prob, "jacobian", jacobian)


@pytest.mark.parametrize("what", ["FAS coarse correction", "AS coarse correction",
                                  "coarse base solve"])
def test_coarse_newton_prolongs_each_iterate_once(what, monkeypatch):
    # every iterate, the start included, is one face pass of the space's row
    # kernels at one P_0 w, from which its coarse residual and coarse
    # Jacobian derive; the FAS correction's right-hand side evaluates
    # F_0(R_0 u) by one more prolongation and face pass, before the solve
    prob, lay = smooth_forchheimer(36, beta=1.0), build_1d_layout(36, 4, 3)
    u = 0.3 * np.random.default_rng(40).standard_normal(36)
    space = coarse_space(prob, lay)
    solve = _coarse_solves(prob, lay, u, space)[what]
    prolonged, residual_states = [], []

    def counted(A, x):
        y = csr_apply(A, x)
        if A is lay.P0:
            prolonged.append(y)
        return y

    monkeypatch.setattr(coarse_mod, "csr_apply", counted)
    passes, derived = _spied_kernels(space, monkeypatch)
    _no_jacobian(prob, monkeypatch)
    residual = prob.residual
    monkeypatch.setattr(prob, "residual",
                        lambda w: residual_states.append(w) or residual(w))
    result = solve(SETTINGS)
    assert result.inner_iterations >= 2
    fas = what == "FAS coarse correction"
    assert len(prolonged) == result.inner_iterations + 1 + fas
    if fas:  # the right-hand side's P_0 R_0 u and the start's, bit for bit
        assert prolonged[0].tobytes() == prolonged[1].tobytes()
    # one face pass at each prolongation, in order, and one more, inside
    # the global F(u), for the FAS and AS right-hand sides
    at = [(X, f) for X, f in passes if any(X is p for p in prolonged)]
    assert len(at) == len(prolonged) and all(X is p for (X, _), p in zip(at, prolonged))
    assert len(passes) == len(prolonged) + (what != "coarse base solve")
    assert len(residual_states) == (what != "coarse base solve")
    # each iterate's Jacobian derives from its face pass, not a new one
    assert [id(f) for f in derived] == [id(g) for _, g in at[fas:]]


@pytest.mark.parametrize("what", ["FAS coarse correction", "AS coarse correction",
                                  "coarse base solve"])
def test_coarse_singular_error(what, monkeypatch):
    # the factorization's info reports the zero pivot; no LinAlgWarning
    prob, lay = smooth_forchheimer(24, beta=1.0), build_1d_layout(24, 4, 2)
    solve = _coarse_solves(prob, lay, np.linspace(0.0, 1.0, 24))[what]
    # coarse Newton derives each iterate's coarse Jacobian from the values
    # of its face pass
    seen = []
    monkeypatch.setattr(coarse_mod, "_galerkin_jacobian",
                        lambda space, values: seen.append(values) or np.zeros((4, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        with pytest.raises(CoarseSolveError,
                           match=f"^{what}: singular coarse Jacobian$"):
            solve(SETTINGS)
    (values,) = seen
    assert values.shape == (coarse_space(prob, lay).G1.shape[1],)


@pytest.mark.parametrize("value", [1e308, np.nan], ids=["overflow", "nan"])
@pytest.mark.parametrize("what", ["FAS coarse correction", "AS coarse correction"])
def test_coarse_nonfinite_start_error(what, value):
    # F(u) is non-finite in rows 4-6, so the start residual is: a nan norm
    # passes no tolerance test, and nan must not reach the factorization;
    # the face passes' inf - inf warns nothing on the way
    prob, lay = smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2)
    u = np.zeros(40)
    u[5] = value
    solve = _coarse_solves(prob, lay, u)[what]
    with pytest.raises(CoarseSolveError,
                       match=f"^{what}: coarse Newton produced non-finite values$"):
        solve(SETTINGS)


def _overflowing_space():
    """A coarse space whose coarse residual at zero is finite, up to 4.8e300,
    but whose norm overflows: u(L) = 1e300."""
    prob = smooth_forchheimer(40, beta=0.0, dirichlet=(0.0, 1e300))
    return coarse_space(prob, build_1d_layout(40, 4, 1))


def test_fas_correction_residual_whose_norm_overflows_fails_as_an_overflow():
    # no overflow warning escapes, and the reason says what overflowed
    with pytest.raises(CoarseSolveError, match="^FAS coarse correction: coarse "
                       "Newton's residual is finite, but its norm overflowed$"):
        fas_correction(_overflowing_space(), np.zeros(40), SETTINGS)


def test_coarse_base_solve_residual_whose_norm_overflows_fails_as_an_overflow():
    space = _overflowing_space()
    assert np.isfinite(coarse_residual(space, np.zeros(4))).all()
    with pytest.raises(CoarseSolveError, match="^coarse base solve: coarse "
                       "Newton's residual is finite, but its norm overflowed$"):
        aspin_coarse_setup(space, SETTINGS)


@pytest.mark.parametrize("what", ["FAS coarse correction", "AS coarse correction",
                                  "coarse base solve"])
def test_coarse_newton_evaluates_one_jacobian_per_iterate(what, monkeypatch):
    # every iterate, the start included, derives and factors one coarse
    # Jacobian, and J0 is the start's
    prob, lay = smooth_forchheimer(36, beta=1.0), build_1d_layout(36, 4, 3)
    u = 0.3 * np.random.default_rng(40).standard_normal(36)
    space = coarse_space(prob, lay)
    solve = _coarse_solves(prob, lay, u, space)[what]
    _, derived = _spied_kernels(space, monkeypatch)
    _no_jacobian(prob, monkeypatch)
    factored, dgetrf = [], coarse_mod.dgetrf
    monkeypatch.setattr(coarse_mod, "dgetrf", lambda J: factored.append(J) or dgetrf(J))
    result = solve(SETTINGS)
    assert result.inner_iterations >= 2
    assert len(derived) == len(factored) == result.inner_iterations + 1
    assert result.J0 is factored[0]


def test_as_correction_starts_from_the_base_solves_factors():
    # the base solve's factors of J_0(u_0*) are the ones the AS correction
    # would compute at its start, bit for bit
    prob, lay = hard_forchheimer(40, beta=10.0, seed=2), build_1d_layout(40, 5, 2)
    space = coarse_space(prob, lay)
    base = aspin_coarse_setup(space, SETTINGS)
    lu, piv, info = sla.lapack.dgetrf(coarse_jacobian(space, base.correction))
    assert info == 0
    assert lu.tobytes() == base.J0_hat_lu[0].tobytes()
    assert piv.tobytes() == base.J0_hat_lu[1].tobytes()

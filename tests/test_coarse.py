"""Tests for the Galerkin coarse problem and coarse corrections."""

import numpy as np
from oracles import dense_darcy_system, plain_newton

from raspen.coarse import (
    aspin_coarse_correction,
    aspin_coarse_jacobian_action,
    aspin_coarse_setup,
    coarse_jacobian,
    coarse_residual,
    fas_correction,
    fas_correction_jacobian_action,
)
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import SolverSettings
from raspen.problems import (
    DiffusionProblem2D,
    ForchheimerProblem1D,
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
    A, b, A0 = _coarse_ops(prob, lay)
    rng = np.random.default_rng(30)
    for _ in range(5):
        u0 = rng.standard_normal(4)
        want = A0 @ u0 - lay.P0.T @ b
        assert np.allclose(coarse_residual(prob, lay, u0), want, atol=1e-11)
    assert np.allclose(coarse_jacobian(prob, lay, u0), A0, atol=1e-11)


def test_coarse_jacobian_matches_fd():
    prob = smooth_forchheimer(30, beta=1.0)
    lay = build_1d_layout(30, 5, 2)
    rng = np.random.default_rng(31)
    u0 = rng.standard_normal(5)
    J0 = coarse_jacobian(prob, lay, u0)
    eps = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        fd = (
            coarse_residual(prob, lay, u0 + eps * e)
            - coarse_residual(prob, lay, u0 - eps * e)
        ) / (2 * eps)
        assert np.linalg.norm(J0[:, j] - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def test_coarse_zero_data():
    # zero source, zero Dirichlet data: F_0(0) = 0 exactly
    prob = ForchheimerProblem1D(
        np.ones(12), np.zeros(12), beta=1.0, dirichlet=(0.0, 0.0)
    )
    lay = build_1d_layout(12, 3, 1)
    assert np.allclose(coarse_residual(prob, lay, np.zeros(3)), 0.0, atol=1e-15)


def test_fas_correction_zero_at_solution():
    prob = smooth_forchheimer(24, beta=1.0)
    lay = build_1d_layout(24, 4, 2)
    ustar = plain_newton(prob, np.zeros(24))
    res = fas_correction(prob, lay, ustar, SETTINGS)
    assert np.allclose(res.correction, 0.0, atol=1e-7)
    assert res.inner_iterations <= 1


def test_fas_correction_affine_formula():
    prob = smooth_forchheimer(24, beta=0.0)
    lay = build_1d_layout(24, 4, 2)
    A, b, A0 = _coarse_ops(prob, lay)
    rng = np.random.default_rng(32)
    u = rng.standard_normal(24)
    res = fas_correction(prob, lay, u, SETTINGS)
    want = np.linalg.solve(A0, lay.P0.T @ (b - A @ u))
    assert np.allclose(res.correction, want, atol=1e-10)
    # defining equation holds
    u0 = lay.R0 @ u
    lhs = coarse_residual(prob, lay, u0 + res.correction)
    rhs = coarse_residual(prob, lay, u0) - lay.P0.T @ prob.residual(u)
    assert np.linalg.norm(lhs - rhs) <= SETTINGS.inner_tol


def test_fas_defining_equation_nonlinear():
    prob = smooth_forchheimer(36, beta=1.0)
    lay = build_1d_layout(36, 4, 3)
    rng = np.random.default_rng(33)
    u = 0.3 * rng.standard_normal(36)
    res = fas_correction(prob, lay, u, SETTINGS)
    u0 = lay.R0 @ u
    lhs = coarse_residual(prob, lay, u0 + res.correction)
    rhs = coarse_residual(prob, lay, u0) - lay.P0.T @ prob.residual(u)
    assert np.linalg.norm(lhs - rhs) <= SETTINGS.inner_tol


def test_fas_action_affine_oracle():
    prob = smooth_forchheimer(20, beta=0.0)
    lay = build_1d_layout(20, 4, 1)
    A, _, A0 = _coarse_ops(prob, lay)
    rng = np.random.default_rng(34)
    u = rng.standard_normal(20)
    res = fas_correction(prob, lay, u, SETTINGS)
    # affine: J_0 = J^_0 = A_0 and the action collapses to -A_0^{-1} P_0^T A v
    assert np.allclose(res.J0, A0, atol=1e-11)
    J0_hat = coarse_jacobian(prob, lay, lay.R0 @ u + res.correction)
    assert np.allclose(J0_hat, A0, atol=1e-11)
    for _ in range(3):
        v = rng.standard_normal(20)
        got = fas_correction_jacobian_action(res, lay, prob.jacobian(u), v)
        want = -np.linalg.solve(A0, lay.P0.T @ (A @ v))
        assert np.allclose(got, want, atol=1e-10)
    # dense form of the general expression agrees too
    R0 = lay.R0.toarray()
    D = -R0 + np.linalg.solve(A0, A0 @ R0 - lay.P0.T.toarray() @ A)
    v = rng.standard_normal(20)
    assert np.allclose(
        fas_correction_jacobian_action(res, lay, prob.jacobian(u), v), D @ v,
        atol=1e-10
    )


def test_fas_action_zero_and_fd():
    prob = smooth_forchheimer(30, beta=1.0)
    lay = build_1d_layout(30, 3, 2)
    tight = SolverSettings(inner_tol=1e-13)
    rng = np.random.default_rng(35)
    u = 0.2 * rng.standard_normal(30)
    res = fas_correction(prob, lay, u, tight)
    assert np.allclose(
        fas_correction_jacobian_action(res, lay, prob.jacobian(u),
                                       np.zeros(30)), 0.0
    )
    for _ in range(3):
        v = rng.standard_normal(30)
        eps = 1e-6
        cp = fas_correction(prob, lay, u + eps * v, tight).correction
        cm = fas_correction(prob, lay, u - eps * v, tight).correction
        fd = (cp - cm) / (2 * eps)
        got = fas_correction_jacobian_action(res, lay, prob.jacobian(u), v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_aspin_coarse_base_and_correction():
    prob = smooth_forchheimer(24, beta=1.0)
    lay = build_1d_layout(24, 4, 2)
    u0_star = aspin_coarse_setup(prob, lay, SETTINGS)
    assert np.linalg.norm(coarse_residual(prob, lay, u0_star)) <= SETTINGS.inner_tol

    # at the fine solution the correction vanishes
    ustar = plain_newton(prob, np.zeros(24))
    res = aspin_coarse_correction(prob, lay, ustar, u0_star, SETTINGS)
    assert np.allclose(res.correction, 0.0, atol=1e-6)

    # defining equation at a generic state
    rng = np.random.default_rng(36)
    u = 0.3 * rng.standard_normal(24)
    res = aspin_coarse_correction(prob, lay, u, u0_star, SETTINGS)
    lhs = coarse_residual(prob, lay, res.correction + u0_star)
    rhs = -(lay.P0.T @ prob.residual(u))
    assert np.linalg.norm(lhs - rhs) <= SETTINGS.inner_tol


def test_aspin_coarse_affine_matches_fas():
    # for affine F both corrections solve A_0 c = P_0^T (b - A u)
    prob = smooth_forchheimer(20, beta=0.0)
    lay = build_1d_layout(20, 4, 1)
    A, b, A0 = _coarse_ops(prob, lay)
    u0_star = aspin_coarse_setup(prob, lay, SETTINGS)
    rng = np.random.default_rng(37)
    u = rng.standard_normal(20)
    res = aspin_coarse_correction(prob, lay, u, u0_star, SETTINGS)
    want = np.linalg.solve(A0, lay.P0.T @ (b - A @ u))
    assert np.allclose(res.correction, want, atol=1e-9)


def test_aspin_action_fd():
    prob = smooth_forchheimer(24, beta=1.0)
    lay = build_1d_layout(24, 3, 2)
    tight = SolverSettings(inner_tol=1e-13)
    u0_star = aspin_coarse_setup(prob, lay, tight)
    rng = np.random.default_rng(38)
    u = 0.2 * rng.standard_normal(24)
    res = aspin_coarse_correction(prob, lay, u, u0_star, tight)
    for _ in range(3):
        v = rng.standard_normal(24)
        eps = 1e-6
        cp = aspin_coarse_correction(prob, lay, u + eps * v, u0_star, tight).correction
        cm = aspin_coarse_correction(prob, lay, u - eps * v, u0_star, tight).correction
        fd = (cp - cm) / (2 * eps)
        got = aspin_coarse_jacobian_action(res, lay, prob.jacobian(u), v)
        assert np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)) < 1e-5


def test_j0_hat_round_trip():
    prob = DiffusionProblem2D(8, 8)
    lay = build_2d_layout(8, 8, 2, 1)
    rng = np.random.default_rng(39)
    u = rng.standard_normal(64)
    res = fas_correction(prob, lay, u, SETTINGS)
    J0_hat = coarse_jacobian(prob, lay, lay.R0 @ u + res.correction)
    import scipy.linalg as sla

    for _ in range(3):
        w = rng.standard_normal(4)
        back = J0_hat @ sla.lu_solve(res.J0_hat_lu, w)
        assert np.linalg.norm(back - w) / np.linalg.norm(w) < 1e-10

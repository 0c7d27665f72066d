"""Tests for the matrix-free GMRES solver."""

import numpy as np
import pytest

from raspen.krylov import gmres


def test_identity_one_iteration():
    rhs = np.array([3.0, -1.0, 2.0])
    x, rep = gmres(lambda v: v, rhs)
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(x, rhs, atol=1e-12)


def test_diagonal_oracle():
    d = np.arange(1.0, 6.0)
    rhs = np.ones(5)
    x, rep = gmres(lambda v: d * v, rhs, tol=1e-12)
    assert rep.converged
    assert np.allclose(x, 1.0 / d, atol=1e-10)


def test_laplacian_against_dense_solve():
    n = 20
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-10)
    assert rep.converged
    want = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - want) / np.linalg.norm(want) < 1e-8


def test_residual_monotone_and_bounded():
    rng = np.random.default_rng(11)
    n = 30
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    rhs = rng.standard_normal(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-12)
    hist = np.array(rep.residual_history)
    assert np.all(np.diff(hist) <= 1e-13)
    assert rep.relative_residual <= 1e-12
    # reported residual matches the true one
    true_rel = np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs)
    assert true_rel == pytest.approx(rep.relative_residual, abs=1e-10)


def test_full_dimension_exactness():
    # exact-arithmetic property: n iterations suffice for any nonsingular A
    rng = np.random.default_rng(12)
    n = 40
    A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    rhs = rng.standard_normal(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-12, max_iter=n)
    assert rep.iterations <= n
    assert np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs) < 1e-10


def test_max_iter_reports_not_converged():
    n = 25
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.ones(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-12, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3
    # best least-squares iterate is still returned
    assert np.linalg.norm(A @ x - rhs) < np.linalg.norm(rhs)


def test_lucky_breakdown_is_convergence():
    # rhs is an eigenvector: the first Krylov space is invariant
    A = np.diag([2.0, 5.0, 7.0])
    rhs = np.array([4.0, 0.0, 0.0])
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-15)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(x, [2.0, 0.0, 0.0], atol=1e-13)


def test_zero_rhs():
    x, rep = gmres(lambda v: 3.0 * v, np.zeros(4))
    assert rep.converged
    assert rep.iterations == 0
    assert np.array_equal(x, np.zeros(4))


def test_breakdown_short_of_tol_is_not_convergence():
    # P is singular on the Krylov space of the rhs: the second step breaks
    # down without adding a direction, and 2/sqrt(5) is the least residual
    P = np.diag([1.0, 0.0, 0.0, 0.0, 0.0])
    rhs = np.ones(5)
    x, rep = gmres(lambda v: P @ v, rhs)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.relative_residual == pytest.approx(2 / np.sqrt(5), rel=1e-12)
    assert np.allclose(x, 1.0, atol=1e-12)
    true_rel = np.linalg.norm(P @ x - rhs) / np.linalg.norm(rhs)
    assert true_rel == pytest.approx(rep.relative_residual, rel=1e-12)


def test_zero_operator_divides_by_no_zero_diagonal():
    x, rep = gmres(lambda v: 0.0 * v, np.ones(5))
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.relative_residual == 1.0
    assert np.array_equal(x, np.zeros(5))


def test_rhs_and_returned_arrays_left_unchanged():
    # the orthogonalization works on its own copy of each action's output,
    # so an action may hand back the same stored array on every call
    rng = np.random.default_rng(12)
    n = 12
    A = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    rhs = rng.standard_normal(n)
    rhs_before = rhs.copy()
    stored, written = np.empty(n), []

    def action(v):
        stored[:] = A @ v
        written.append(stored.copy())
        return stored

    x, rep = gmres(action, rhs, tol=1e-12)
    assert rep.converged and rep.iterations == len(written) > 1
    assert np.array_equal(rhs, rhs_before)
    assert np.array_equal(stored, written[-1])
    assert np.allclose(A @ x, rhs, atol=1e-10)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_max_iter_must_be_positive(max_iter):
    # with no iteration there is no residual to report
    with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
        gmres(lambda v: 2.0 * v, np.ones(4), max_iter=max_iter)

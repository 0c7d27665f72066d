"""Tests for the matrix-free GMRES solver."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import blocked_gmres

from raspen.krylov import FIRST_ROWS, gmres


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
    with pytest.raises(ValueError, match="^max_iter must be an integer of at least 1$"):
        gmres(lambda v: 2.0 * v, np.ones(4), max_iter=max_iter)


@pytest.mark.parametrize("name, value", [
    ("tol", math.nan), ("tol", 0.0), ("tol", -1.0), ("tol", math.inf),
    ("max_iter", 2.5), ("max_iter", 4.0), ("max_iter", "4"),
])
def test_arguments_are_checked_before_any_action(name, value):
    # a nan, zero or negative tol ran all n actions and reported no
    # convergence; a fractional max_iter raised a TypeError from range
    calls = []

    def action(v):
        calls.append(v)
        return 2.0 * v

    wording = ("tol must be positive and finite" if name == "tol"
               else "max_iter must be an integer of at least 1")
    with pytest.raises(ValueError, match=f"^{wording}$"):
        gmres(action, np.ones(4), **{name: value})
    assert not calls


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonfinite_rhs_is_rejected_before_any_action(value):
    # a nan rhs ran the action on a nan vector and returned zeros; an
    # infinite one ended in numpy's invalid-value warning
    calls = []

    def action(v):
        calls.append(v)
        return 2.0 * v

    rhs = np.ones(4)
    rhs[2] = value
    with pytest.raises(ValueError, match="^rhs must be finite$"):
        gmres(action, rhs)
    assert not calls


@pytest.mark.parametrize("scale", [1.0, 1e-16, 1e-20, 1e20])
def test_breakdown_is_relative_to_the_operator_scale(scale):
    # a scaled operator has the same Krylov spaces: an absolute breakdown
    # test stopped c = 1e-16 and 1e-20 after one step at residual 0.82
    rng = np.random.default_rng(0)
    A = np.eye(30) + 0.3 * rng.standard_normal((30, 30))
    rhs = rng.standard_normal(30)
    x, rep = gmres(lambda v: scale * (A @ v), rhs, tol=1e-10)
    assert rep.converged
    assert rep.iterations == 30
    assert np.linalg.norm(scale * (A @ x) - rhs) / np.linalg.norm(rhs) < 1e-10


def test_nonfinite_action_output_ends_the_solve():
    # from its third call on the action returns nan; the solve stops there
    # rather than running all n iterations on nan
    n = 400
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    calls = []

    def action(v):
        calls.append(v)
        return A @ v if len(calls) < 3 else np.full(n, np.nan)

    x, rep = gmres(action, np.ones(n))
    assert len(calls) == rep.iterations == 3
    assert not rep.converged
    assert math.isnan(rep.relative_residual)
    assert math.isnan(rep.residual_history[-1])
    two, rep2 = gmres(lambda v: A @ v, np.ones(n), max_iter=2)
    assert rep.residual_history[:2] == rep2.residual_history
    assert np.array_equal(x, two)


def test_rhs_whose_norm_overflows_is_rejected_before_any_action():
    # every entry is finite, but the squared norm 4e400 is not: numpy's
    # overflow warning escaped from rhs @ rhs
    calls = []

    def action(v):
        calls.append(v)
        return 2.0 * v

    with pytest.raises(ValueError, match="^rhs norm overflows$"):
        gmres(action, np.full(4, 1e200))
    assert not calls


def test_action_output_whose_norm_overflows_ends_the_solve():
    # the output's entries, 5e299, are finite and their squares are not:
    # numpy's overflow warning escaped from w @ w
    calls = []

    def action(v):
        calls.append(v)
        return 1e300 * v

    x, rep = gmres(action, np.ones(4))
    assert len(calls) == rep.iterations == 1
    assert not rep.converged
    assert math.isnan(rep.relative_residual)
    assert len(rep.residual_history) == 1
    assert math.isnan(rep.residual_history[0])
    assert np.array_equal(x, np.zeros(4))


def test_solve_across_basis_blocks_against_dense_solve():
    n = 150
    A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(13).standard_normal(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-10)
    assert rep.converged and rep.iterations > 2 * FIRST_ROWS
    want = np.linalg.solve(A, rhs)
    assert np.linalg.norm(x - want) / np.linalg.norm(want) < 1e-8


def test_max_iter_beyond_the_dimension():
    n = 8
    A = np.eye(n) + 0.3 * np.random.default_rng(15).standard_normal((n, n))
    rhs = np.ones(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-30, max_iter=3 * n)
    assert rep.iterations <= n + 1
    assert np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs) < 1e-12


def test_memory_follows_the_iterations_not_the_length():
    # one iteration holds the first basis allocation and a few vectors; a
    # basis sized by n would need (n + 1) n doubles.  After m iterations the
    # doubled basis, with the one it was copied from, stays within 3(m + 1)
    # vectors
    n = 200_000
    rhs = np.ones(n)
    tracemalloc.start()
    try:
        x, rep = gmres(lambda v: 2.0 * v, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations == 1
    assert np.allclose(x, 0.5)
    assert peak < (FIRST_ROWS + 8) * n * 8

    n = 20_000
    d = 1.0 + np.arange(n) % 60     # 60 distinct eigenvalues
    tracemalloc.start()
    try:
        x, rep = gmres(lambda v: d * v, np.ones(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = rep.iterations
    assert rep.converged and m >= 40
    assert np.allclose(d * x, 1.0, atol=1e-6)
    assert peak < (3 * (m + 1) + 8) * n * 8


def _grcar(n):
    return (np.eye(n) - np.eye(n, k=-1) + np.eye(n, k=1) + np.eye(n, k=2)
            + np.eye(n, k=3))


def _upwind_convection(n, eps=0.1):
    # -eps u'' + u' on a uniform grid, upwind first differences
    h = 1.0 / (n + 1)
    return ((2 * eps / h**2 + 1 / h) * np.eye(n)
            - (eps / h**2 + 1 / h) * np.eye(n, k=-1) - eps / h**2 * np.eye(n, k=1))


@pytest.mark.parametrize("make", [_grcar, _upwind_convection])
def test_nonnormal_operator_reports_the_true_residual(make):
    n = 200
    A = make(n)
    rhs = np.random.default_rng(14).standard_normal(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=1e-10)
    assert rep.converged
    true_rel = np.linalg.norm(A @ x - rhs) / np.linalg.norm(rhs)
    assert true_rel == pytest.approx(rep.relative_residual, abs=1e-10)


def _laplacian(n):
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def _random(n):
    rng = np.random.default_rng(11)
    return np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)


@pytest.mark.parametrize("make, n, tol, max_iter", [
    (_laplacian, 20, 1e-10, None),
    (_grcar, 200, 1e-10, None),             # 145 iterations: the basis grows 4 times
    (_upwind_convection, 200, 1e-10, None),
    (_upwind_convection, 200, 1e-10, 70),   # stopped short of the tolerance
    (_random, 30, 1e-12, None),
])
def test_matches_the_blocked_oracle(make, n, tol, max_iter):
    # the oracle rotates each column by the earlier rotations one at a time
    # and keeps the basis in 16-row blocks: the same arithmetic, summed in
    # another order
    A = make(n)
    rhs = np.random.default_rng(14).standard_normal(n)
    x, rep = gmres(lambda v: A @ v, rhs, tol=tol, max_iter=max_iter)
    want, ref = blocked_gmres(lambda v: A @ v, rhs, tol=tol, max_iter=max_iter)
    assert rep.iterations == ref.iterations > 16
    assert rep.converged == ref.converged == (max_iter is None)
    assert np.allclose(rep.residual_history, ref.residual_history, rtol=0, atol=1e-12)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    if make is _grcar:
        assert rep.iterations > 4 * FIRST_ROWS

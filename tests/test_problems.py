"""Tests for the discrete problems against independent dense/FD oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import block_kernels, block_vector, local_entries, per_block_positions

from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import block_positions
from raspen.problems import (
    DISCRETE_RESIDUAL,
    DiffusionProblem2D,
    ForchheimerProblem1D,
    build_transmissibilities,
    hard_forchheimer,
    q_flux,
    q_flux_derivative,
    smooth_forchheimer,
)


# ---------------------------------------------------------------- q_flux


def test_q_flux_values():
    assert q_flux(0.0, 1.0) == 0.0
    # sqrt(1+8) = 3, (-1+3)/2 = 1
    assert q_flux(2.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    for g in (-3.0, 0.5, 7.0):
        assert q_flux(g, 0.0) == g


def test_q_flux_odd_and_monotone():
    g = np.linspace(-50, 50, 201)
    q = q_flux(g, 0.7)
    assert np.allclose(q, -q_flux(-g, 0.7))
    assert np.all(np.diff(q) > 0)


def test_q_flux_matches_naive_formula():
    # the cancellation-free form equals the textbook sgn/sqrt expression
    g = np.array([-12.0, -1e-3, 0.3, 4.0, 900.0])
    beta = 2.5
    naive = np.sign(g) * (-1.0 + np.sqrt(1.0 + 4.0 * beta * np.abs(g))) / (2.0 * beta)
    assert np.allclose(q_flux(g, beta), naive, rtol=1e-14)


def test_q_flux_derivative_is_fd_of_q():
    g = np.array([-7.0, -0.2, 0.0, 0.9, 33.0])
    beta = 1.3
    eps = 1e-7
    fd = (q_flux(g + eps, beta) - q_flux(g - eps, beta)) / (2 * eps)
    assert np.allclose(q_flux_derivative(g, beta), fd, atol=1e-7)


def test_q_flux_rejects_negative_beta():
    with pytest.raises(ValueError):
        q_flux(1.0, -0.1)


# ------------------------------------------------- transmissibilities


def test_transmissibilities_uniform():
    T = build_transmissibilities(np.ones(5), 0.1)
    assert np.allclose(T[1:-1], 10.0)
    assert T[0] == pytest.approx(20.0)
    assert T[-1] == pytest.approx(20.0)


def test_transmissibilities_harmonic():
    T = build_transmissibilities(np.array([1.0, 3.0]), 0.1)
    assert T[1] == pytest.approx(1.0 / (0.05 + 0.05 / 3.0))
    assert T[1] == pytest.approx(15.0)


def test_transmissibilities_constant_field():
    c, h = 4.2, 0.05
    T = build_transmissibilities(np.full(8, c), h)
    assert np.allclose(T[1:-1], c / h)


def test_transmissibilities_reject_nonpositive():
    with pytest.raises(ValueError):
        build_transmissibilities(np.array([1.0, 0.0, 2.0]), 0.1)


# ---------------------------------------------------------- Forchheimer 1D


def _dense_darcy_system(problem):
    """Independent dense assembly of the beta=0 TPFA system A u = b."""
    M, T, f = problem.M, problem.transmissibilities, problem.source
    d0, dL = problem.dirichlet
    A = np.zeros((M, M))
    b = f.copy()
    for k in range(M):
        A[k, k] = T[k] + T[k + 1]
        if k > 0:
            A[k, k - 1] = -T[k]
        if k + 1 < M:
            A[k, k + 1] = -T[k + 1]
    b[0] += T[0] * d0
    b[-1] += T[M] * dL
    return A, b


def test_darcy_residual_matches_dense_assembly():
    prob = smooth_forchheimer(17, beta=0.0)
    A, b = _dense_darcy_system(prob)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(17)
        assert np.allclose(prob.residual(u), A @ u - b, atol=1e-13)
    assert np.allclose(prob.jacobian(u).toarray(), A, atol=1e-13)


def test_darcy_residual_is_affine():
    prob = smooth_forchheimer(12, beta=0.0)
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal(12), rng.standard_normal(12)
    F0 = prob.residual(np.zeros(12))
    lhs = prob.residual(u + v)
    rhs = prob.residual(u) + prob.residual(v) - F0
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_forchheimer_jacobian_matches_fd(beta):
    prob = smooth_forchheimer(25, beta=beta)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.standard_normal(25)
        v = rng.standard_normal(25)
        eps = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = (prob.residual(u + eps * v) - prob.residual(u - eps * v)) / (2 * eps)
        Jv = prob.jacobian(u) @ v
        assert np.linalg.norm(Jv - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def _newton(problem, u0, tol=1e-13, maxit=50):
    u = u0.copy()
    for _ in range(maxit):
        F = problem.residual(u)
        if np.linalg.norm(F) <= tol:
            return u
        u -= spla.spsolve(problem.jacobian(u).tocsc(), F)
    raise AssertionError("plain Newton failed to converge in the test oracle")


def test_residual_vanishes_at_solution():
    prob = smooth_forchheimer(40, beta=1.0)
    u = _newton(prob, np.zeros(40))
    assert np.linalg.norm(prob.residual(u)) <= 1e-10


def test_discrete_solution_of_darcy_flow_is_the_linear_solve():
    # at beta = 0 the residual is affine, F(u) = F(0) + J u; below the
    # Darcy threshold q is the identity, so the flux solve is beta = 0's
    prob = hard_forchheimer(60, beta=0.0, seed=7)
    u = prob.discrete_solution()
    zero = np.zeros(60)
    exact = spla.spsolve(prob.jacobian(zero).tocsc(), -prob.residual(zero))
    assert np.linalg.norm(u - exact, 1) <= 1e-13 * np.linalg.norm(exact, 1)
    below = hard_forchheimer(60, beta=1e-13, seed=7)
    assert below.discrete_solution().tobytes() == u.tobytes()


@pytest.mark.parametrize("prob", [
    smooth_forchheimer(1, beta=1.0),
    smooth_forchheimer(40, beta=10.0, dirichlet=(3.0, -2.0)),
    ForchheimerProblem1D(np.ones(5), np.zeros(5), 1.0, dirichlet=(2.0, 2.0)),
], ids=["one-cell", "reversed-drop", "no-flow"])
def test_discrete_solution_solves_the_problem(prob):
    u = prob.discrete_solution()
    assert np.linalg.norm(prob.residual(u)) <= DISCRETE_RESIDUAL
    if not prob.source.any():  # no flow: the Dirichlet value throughout
        assert np.array_equal(u, np.full(prob.M, prob.dirichlet[0]))


def test_discrete_solution_of_a_high_contrast_field_meets_its_roundoff_bound():
    # permeabilities over 16 decades put max T at 3.93e9 and max |u| at
    # 3.7e3, so rounding u to floats alone leaves ||F|| far above 1e-10:
    # the solution is accepted on its bound 4 eps max(T) ||u||, and one
    # Newton step from it moves it only at roundoff
    prob = hard_forchheimer(240, 10.0, 4, contrast=(1e-8, 1e8))
    u = prob.discrete_solution()
    rnorm = np.linalg.norm(prob.residual(u))
    bound = 4 * np.finfo(float).eps * prob.transmissibilities.max() * np.linalg.norm(u)
    assert DISCRETE_RESIDUAL < rnorm <= bound
    step = spla.spsolve(prob.jacobian(u).tocsc(), prob.residual(u))
    assert np.linalg.norm(step, 1) <= 1e-13 * np.linalg.norm(u, 1)


def test_discrete_solution_of_a_drop_of_1e300_meets_its_roundoff_bound():
    # max |u| is 9.4e299, so ||u||_2 overflows as a plain sum of squares;
    # the bound must not, and ||F(u)|| (1.9e135, 3.4e-15 of the largest
    # face flux) meets 4 eps max(T) ||u||, here with ||u|| taken scaled
    prob = smooth_forchheimer(40, beta=1.0, dirichlet=(0.0, 1e300))
    u = prob.discrete_solution()
    scale = np.abs(u).max()
    bound = (4 * np.finfo(float).eps * prob.transmissibilities.max()
             * scale * np.linalg.norm(u / scale))
    assert np.isfinite(u).all()
    assert np.linalg.norm(prob.residual(u)) <= bound


@pytest.mark.parametrize("drop", [1e200, 1e300])
def test_discrete_solution_of_a_huge_darcy_drop_meets_its_roundoff_bound(drop):
    # F(u) is finite, but its squares overflow (max |F| 7.6e184 at a drop
    # of 1e200, 1.1e285 at 1e300): the residual norm, taken scaled, meets
    # 4 eps max(T) ||u|| instead of reading inf
    prob = smooth_forchheimer(40, beta=0.0, dirichlet=(0.0, drop))
    u = prob.discrete_solution()
    r, scale = prob.residual(u), np.abs(u).max()
    assert np.isfinite(u).all() and np.isfinite(r).all()
    bound = (4 * np.finfo(float).eps * prob.transmissibilities.max()
             * scale * np.linalg.norm(u / scale))
    big = np.abs(r).max()
    assert big * np.linalg.norm(r / big) <= bound


def test_darcy_manufactured_consistency():
    # u = x/L + sin(2 pi x / L), lambda = 1: residual of the sampled exact
    # solution shrinks when the mesh is refined
    L = 1.5

    def build(M):
        h = L / M
        edges = np.linspace(0, L, M + 1)
        w = 2 * np.pi / L
        # f = -u'' integrated per cell: f = w^2 sin(w x)
        f = w * (np.cos(w * edges[:-1]) - np.cos(w * edges[1:]))
        prob = ForchheimerProblem1D(np.ones(M), f, beta=0.0, L=L, dirichlet=(0.0, 1.0))
        xc = 0.5 * (edges[:-1] + edges[1:])
        return np.max(np.abs(prob.residual(xc / L + np.sin(w * xc))))

    r40, r80 = build(40), build(80)
    assert r80 < r40 / 2.0


@pytest.mark.parametrize("beta", [-0.1, np.nan, np.inf])
def test_forchheimer_rejects_bad_beta(beta):
    with pytest.raises(ValueError):
        ForchheimerProblem1D(np.ones(4), np.zeros(4), beta=beta)


def test_smooth_fields_are_exact_integrals():
    prob = smooth_forchheimer(30, beta=1.0)
    # lambda_K h = integral of cos = f_K for this data
    assert np.allclose(prob.lambda_field * prob.h, prob.source, atol=1e-15)
    assert np.all(prob.lambda_field > 0)


def test_hard_forchheimer_seeded():
    a = hard_forchheimer(50, 1.0, seed=42)
    b = hard_forchheimer(50, 1.0, seed=42)
    c = hard_forchheimer(50, 1.0, seed=43)
    assert np.array_equal(a.lambda_field, b.lambda_field)
    assert not np.array_equal(a.lambda_field, c.lambda_field)
    assert a.lambda_field.min() >= 1e-2 and a.lambda_field.max() <= 1e2


def test_hard_forchheimer_rejects_zero_omega():
    # the integrated source divides by omega*pi: omega = 0 made it all nan
    with pytest.raises(ValueError, match="omega must be nonzero"):
        hard_forchheimer(40, 1.0, seed=1, omega=0.0)


_BAD_DATA = {
    # each divided by M = 0 (ZeroDivisionError)
    "empty-fields": lambda: ForchheimerProblem1D([], [], 1.0),
    "smooth-M=0": lambda: smooth_forchheimer(0, 1.0),
    "hard-M=0": lambda: hard_forchheimer(0, 1.0, 1),
    # each was accepted and gave nan or inf data, or warned on the way
    "L=nan": lambda: ForchheimerProblem1D(np.ones(4), np.zeros(4), 1.0, L=np.nan),
    "L=inf": lambda: ForchheimerProblem1D(np.ones(4), np.zeros(4), 1.0, L=np.inf),
    "smooth-L=nan": lambda: smooth_forchheimer(10, 1.0, L=np.nan),
    "smooth-L=inf": lambda: smooth_forchheimer(10, 1.0, L=np.inf),
    "lambda-nan": lambda: ForchheimerProblem1D([1.0, np.nan, 1.0], np.zeros(3), 1.0),
    "lambda-inf": lambda: ForchheimerProblem1D([1.0, np.inf, 1.0], np.zeros(3), 1.0),
    "source-nan": lambda: ForchheimerProblem1D(np.ones(3), [0.0, np.nan, 0.0], 1.0),
    "source-inf": lambda: ForchheimerProblem1D(np.ones(3), [0.0, -np.inf, 0.0], 1.0),
    "dirichlet-nan": lambda: ForchheimerProblem1D(np.ones(3), np.zeros(3), 1.0,
                                                  dirichlet=(np.nan, 1.0)),
    "dirichlet-inf": lambda: smooth_forchheimer(10, 1.0, dirichlet=(0.0, np.inf)),
    "amplitude-inf": lambda: hard_forchheimer(10, 1.0, 1, amplitude=np.inf),
    "amplitude-nan": lambda: hard_forchheimer(10, 1.0, 1, amplitude=np.nan),
    "omega-inf": lambda: hard_forchheimer(10, 1.0, 1, omega=np.inf),
    "omega-nan": lambda: hard_forchheimer(10, 1.0, 1, omega=np.nan),
    # numpy's OverflowError from the log-uniform draw
    "contrast-inf": lambda: hard_forchheimer(10, 1.0, 1, contrast=(1e-2, np.inf)),
    "2d-dirichlet-nan": lambda: DiffusionProblem2D(4, 4, dirichlet_value=np.nan),
    "2d-dirichlet-inf": lambda: DiffusionProblem2D(4, 4, dirichlet_value=np.inf),
    "2d-source-nan": lambda: DiffusionProblem2D(
        4, 4, source=lambda x, y: np.full_like(x, np.nan)),
}


@pytest.mark.parametrize("make", _BAD_DATA.values(), ids=_BAD_DATA)
def test_constructors_reject_empty_and_nonfinite_data(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------- diffusion 2D


def test_diffusion_constant_state():
    prob = DiffusionProblem2D(6, 5, source=lambda x, y: 0.0 * x)
    assert np.allclose(prob.residual(np.ones(30)), 0.0, atol=1e-15)


def _dense_poisson(nx, ny, dval_coeff=1.0):
    """Loop-built 5-point matrix for the u=0 linearization (coefficient 1)."""
    Tx, Ty = (1.0 / ny) / (1.0 / nx), (1.0 / nx) / (1.0 / ny)
    n = nx * ny
    A = np.zeros((n, n))
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if i + 1 < nx:
                A[k, k] += Tx
                A[k, k + 1] -= Tx
                A[k + 1, k + 1] += Tx
                A[k + 1, k] -= Tx
            else:
                A[k, k] += 2.0 * Tx * dval_coeff
            if j + 1 < ny:
                A[k, k] += Ty
                A[k, k + nx] -= Ty
                A[k + nx, k + nx] += Ty
                A[k + nx, k] -= Ty
    return A


def test_diffusion_linearization_is_poisson():
    prob = DiffusionProblem2D(7, 4)
    J = prob.jacobian(np.zeros(28)).toarray()
    assert np.allclose(J, _dense_poisson(7, 4), atol=1e-13)


def test_diffusion_jacobian_matches_fd():
    prob = DiffusionProblem2D(9, 8)
    rng = np.random.default_rng(8)
    n = prob.dof_count
    for _ in range(10):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        eps = 1e-6 * (1.0 + np.linalg.norm(u))
        fd = (prob.residual(u + eps * v) - prob.residual(u - eps * v)) / (2 * eps)
        Jv = prob.jacobian(u) @ v
        assert np.linalg.norm(Jv - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def _manufactured_pair():
    # u* = 1 + A cos(pi x / 2) cos(pi y): satisfies u=1 at x=1 and zero
    # normal derivative at the three Neumann edges
    A = 0.5
    kx, ky = np.pi / 2, np.pi

    def u_exact(x, y):
        return 1.0 + A * np.cos(kx * x) * np.cos(ky * y)

    def f(x, y):
        cx, cy = np.cos(kx * x), np.cos(ky * y)
        sx, sy = np.sin(kx * x), np.sin(ky * y)
        u = 1.0 + A * cx * cy
        ux = -A * kx * sx * cy
        uy = -A * ky * cx * sy
        lap = -A * (kx**2 + ky**2) * cx * cy
        return -(2.0 * u * (ux**2 + uy**2) + (1.0 + u**2) * lap)

    return u_exact, f


def test_diffusion_manufactured_consistency():
    u_exact, f = _manufactured_pair()

    def max_residual(n):
        prob = DiffusionProblem2D(n, n, source=f)
        xc = (np.arange(n) + 0.5) / n
        X, Y = np.meshgrid(xc, xc)
        return np.max(np.abs(prob.residual(u_exact(X, Y).ravel())))

    r16, r32 = max_residual(16), max_residual(32)
    assert r32 < r16 / 2.0


@pytest.mark.parametrize("nx, ny", [(8.9, 8), (8, 8.0), ("8", 8), (0, 4),
                                    (4, -1)])
def test_diffusion_rejects_non_integer_or_empty_grids(nx, ny):
    # int() used to truncate 8.9 cells to 8 silently
    with pytest.raises(ValueError, match="positive integer number of cells"):
        DiffusionProblem2D(nx, ny)


def test_diffusion_accepts_numpy_integer_grids():
    prob = DiffusionProblem2D(np.int64(6), np.uint8(5))
    assert (prob.nx, prob.ny) == (6, 5) and type(prob.nx) is int
    assert np.array_equal(prob.source_cells, DiffusionProblem2D(6, 5).source_cells)


def test_diffusion_rejects_wrong_shape():
    prob = DiffusionProblem2D(4, 4)
    with pytest.raises(ValueError):
        prob.residual(np.zeros(15))


# ------------------------------------------------- fixed Jacobian pattern


def _assembled_jacobian(prob, u):
    """Oracle: each Jacobian assembled from scratch through scipy conversions.

    1D: the three diagonals through sp.diags; 2D: the per-face COO list
    converted to CSR, which sums repeated entries.
    """
    if isinstance(prob, ForchheimerProblem1D):
        upad = np.concatenate(([prob.dirichlet[0]], u, [prob.dirichlet[1]]))
        g = prob.transmissibilities * (upad[:-1] - upad[1:])
        w = q_flux_derivative(g, prob.beta) * prob.transmissibilities
        off = -w[1:-1]
        return sp.diags([off, w[1:] + w[:-1], off], [-1, 0, 1], format="csr")
    nx, ny = prob.nx, prob.ny
    U = u.reshape(ny, nx)
    idx = np.arange(nx * ny).reshape(ny, nx)
    Tx, Ty = prob.hy / prob.hx, prob.hx / prob.hy
    rows, cols, data = [], [], []
    for L, R, T in ((idx[:, :-1], idx[:, 1:], Tx), (idx[:-1, :], idx[1:, :], Ty)):
        L, R = L.ravel(), R.ravel()
        uL, uR = u[L], u[R]
        mean_a = 1.0 + 0.5 * (uL**2 + uR**2)
        dL = T * (mean_a + uL * (uL - uR))
        dR = T * (-mean_a + uR * (uL - uR))
        rows.extend([L, L, R, R])
        cols.extend([L, R, L, R])
        data.extend([dL, dR, -dL, -dR])
    ub = U[:, -1]
    rows.append(idx[:, -1])
    cols.append(idx[:, -1])
    data.append(2.0 * Tx * ((1.0 + ub**2) + 2.0 * ub * (ub - prob.dirichlet_value)))
    coo = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny),
    )
    return coo.tocsr()


@pytest.mark.parametrize("prob", [
    smooth_forchheimer(30, beta=1.0),
    hard_forchheimer(25, beta=10.0, seed=3),
    DiffusionProblem2D(7, 5),
    DiffusionProblem2D(6, 6),
], ids=["1d-smooth", "1d-hard", "2d-7x5", "2d-6x6"])
def test_jacobian_pattern_is_fixed_and_matches_assembly(prob):
    n = prob.dof_count
    rng = np.random.default_rng(31)
    # the problem's pattern is every Jacobian's, shared and read-only
    first = prob.pattern
    assert first.format == "csr" and first.has_canonical_format
    assert first.shape == (n, n)
    assert not (first.indptr.flags.writeable or first.indices.flags.writeable)
    for u in (np.zeros(n), rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        J = prob.jacobian(u)
        assert J.format == "csr" and J.has_canonical_format
        assert np.array_equal(J.indptr, first.indptr)
        assert np.array_equal(J.indices, first.indices)
        assert np.shares_memory(J.indices, first.indices)
        # The fixed 1D pattern keeps an entry that happens to vanish, which
        # the dia-to-CSR conversion of the oracle drops; none vanishes here.
        want = _assembled_jacobian(prob, u)
        want.sort_indices()
        assert np.array_equal(J.indptr, want.indptr)
        assert np.array_equal(J.indices, want.indices)
        assert J.data.tobytes() == want.data.tobytes()


def _sliced_residual(prob, u):
    """Oracle: the residual summed over whole-mesh slices, cell by cell.

    1D: q at the right face minus q at the left face minus the source; 2D:
    minus the source, plus the x flux where the cell is left of a face,
    minus it where it is right, the same for y, plus the Dirichlet flux.
    """
    if isinstance(prob, ForchheimerProblem1D):
        upad = np.concatenate(([prob.dirichlet[0]], u, [prob.dirichlet[1]]))
        a = q_flux(prob.transmissibilities * (upad[:-1] - upad[1:]), prob.beta)
        return a[1:] - a[:-1] - prob.source
    U = u.reshape(prob.ny, prob.nx)
    res = -prob.source_cells.copy()
    for uL, uR, T, left, right in (
            (U[:, :-1], U[:, 1:], prob.hy / prob.hx,
             res[:, :-1], res[:, 1:]),
            (U[:-1, :], U[1:, :], prob.hx / prob.hy,
             res[:-1, :], res[1:, :])):
        flux = T * (1.0 + 0.5 * (uL**2 + uR**2)) * (uL - uR)
        left += flux
        right -= flux
    ub = U[:, -1]
    res[:, -1] += (2.0 * prob.hy / prob.hx * (1.0 + ub**2)
                   * (ub - prob.dirichlet_value))
    return res.ravel()


@pytest.mark.parametrize("prob", [
    smooth_forchheimer(30, beta=1.0),
    smooth_forchheimer(7, beta=0.0),
    hard_forchheimer(25, beta=10.0, seed=3),
    DiffusionProblem2D(7, 5),
    DiffusionProblem2D(1, 4),
    DiffusionProblem2D(6, 1),
], ids=["1d-smooth", "1d-darcy", "1d-hard", "2d-7x5", "2d-1x4", "2d-6x1"])
def test_residual_matches_sliced_sums_bit_for_bit(prob):
    # the row kernels keep every cell's summation order
    rng = np.random.default_rng(34)
    n = prob.dof_count
    for u in (np.zeros(n), rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        assert prob.residual(u).tobytes() == _sliced_residual(prob, u).tobytes()


# ------------------------------------------------------------ row kernels


def _outputs(kernels, X):
    """The residual and Jacobian rows of kernels at X, as bytes.

    Both derive from one face pass, the Jacobian first, and each must equal
    the kernels' own residual(X) and jacobian(X) bit for bit; deriving
    either leaves the pass as it was.
    """
    faces = kernels.faces(X)
    data = kernels.jacobian_of(faces).tobytes()
    rows = kernels.residual_of(faces).tobytes()
    assert kernels.jacobian_of(faces).tobytes() == data
    assert rows == kernels.residual(X).tobytes()
    assert data == kernels.jacobian(X).tobytes()
    return rows, data


def _check_row_kernels(prob, layout, rng):
    """Every subdomain's row kernels against the global evaluations, bit for bit."""
    positions = per_block_positions(prob, layout)
    n = prob.dof_count
    for u in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        F, J = prob.residual(u), prob.jacobian(u)
        for pos in positions:
            rows, data = _outputs(block_kernels(prob, [pos]), block_vector([pos], u))
            assert rows == F[pos.overlap].tobytes()
            assert data == J.data[pos.rows].tobytes()


def test_row_kernels_1d_bit_identical_on_every_interval():
    # every contiguous cell interval of every mesh with 1 to 49 cells, so
    # every subdomain of every 1D layout: single cells (I = M, k = 0), the
    # whole mesh with its empty halo (I = 1), and everything between; the
    # row block of an interval is a slice of the data array
    rng = np.random.default_rng(32)
    for M in range(1, 50):
        probs = [smooth_forchheimer(M, 1.0)] + [smooth_forchheimer(M, 0.0)] * (M <= 12)
        for prob in probs:
            states = [(u, prob.residual(u), prob.jacobian(u)) for u in
                      (rng.standard_normal(M), 1e3 * rng.standard_normal(M))]
            indptr, indices = states[0][2].indptr, states[0][2].indices
            for lo in range(M):
                for hi in range(lo + 1, M + 1):
                    cells = np.arange(lo, hi)
                    halo = np.array([c for c in (lo - 1, hi) if 0 <= c < M], dtype=int)
                    entries = local_entries(np.concatenate((cells, halo)),
                                            indices[indptr[lo]:indptr[hi]])
                    kernels = prob.row_kernels(cells, entries)
                    for u, F, J in states:
                        rows, data = _outputs(kernels, u[np.concatenate((cells, halo))])
                        assert rows == F[lo:hi].tobytes()
                        assert data == J.data[J.indptr[lo]:J.indptr[hi]].tobytes()


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (6, 1), (2, 6), (6, 4),
                                    (9, 6), (8, 12), (10, 5)])
def test_row_kernels_2d_bit_identical_on_every_subdomain(nx, ny):
    rng = np.random.default_rng(33)
    prob = DiffusionProblem2D(nx, ny)
    for N in range(1, min(nx, ny) + 1):
        if nx % N or ny % N:
            continue
        for k in range(min(nx, ny) // N + 1 if N > 1 else 1):
            _check_row_kernels(prob, build_2d_layout(nx, ny, N, k), rng)


def _check_stacked_row_kernels(prob, layout, rng):
    """Stacked row kernels against the global evaluations, bit for bit.

    On the layout's whole subdomain set (the stack's own kernels), the set
    in reverse, and every other subdomain: each block's part of the stacked
    output must equal the global rows.
    """
    stack, positions = block_positions(prob, layout), per_block_positions(prob, layout)
    sets = [(positions, stack.kernels)]
    for chosen in (positions[::-1], positions[::2]):
        sets.append((chosen, block_kernels(prob, chosen)))
    n = prob.dof_count
    for u in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        F, J = prob.residual(u), prob.jacobian(u)
        for chosen, kernels in sets:
            rows, data = _outputs(kernels, block_vector(chosen, u))
            assert rows == np.concatenate([F[p.overlap] for p in chosen]).tobytes()
            assert data == np.concatenate([J.data[p.rows] for p in chosen]).tobytes()


@pytest.mark.parametrize("M", [1, 2, 9, 17, 40])
def test_stacked_row_kernels_1d_bit_identical_on_every_layout(M):
    # I = M with and without overlap, I = 1, and everything between
    rng = np.random.default_rng(35)
    for prob in (smooth_forchheimer(M, 1.0), hard_forchheimer(M, 10.0, seed=2)):
        for I in range(1, M + 1):
            for k in range(min(3, M // I) + 1):
                layout = build_1d_layout(M, I, k)
                _check_stacked_row_kernels(prob, layout, rng)


@pytest.mark.parametrize("nx, ny", [(1, 6), (6, 1), (6, 4), (9, 6), (8, 12), (10, 5)])
def test_stacked_row_kernels_2d_bit_identical_on_every_layout(nx, ny):
    rng = np.random.default_rng(36)
    prob = DiffusionProblem2D(nx, ny)
    for N in range(1, min(nx, ny) + 1):
        if nx % N or ny % N:
            continue
        for k in range(min(nx, ny) // N + 1 if N > 1 else 1):
            layout = build_2d_layout(nx, ny, N, k)
            _check_stacked_row_kernels(prob, layout, rng)


_KERNEL_PROBLEMS = [
    smooth_forchheimer(12, beta=1.0),
    hard_forchheimer(9, beta=10.0, seed=5),
    DiffusionProblem2D(6, 5),
    DiffusionProblem2D(1, 4),
    DiffusionProblem2D(5, 1),
]
_KERNEL_IDS = ["1d-smooth", "1d-hard", "2d-6x5", "2d-1x4", "2d-5x1"]


@pytest.mark.parametrize("prob", _KERNEL_PROBLEMS, ids=_KERNEL_IDS)
def test_row_kernels_bit_identical_on_shuffled_and_repeated_rows(prob):
    # rows in any order, repeats included, each row the global one; X is u
    # itself (entries: the pattern's columns) and u in a shuffled order
    rng = np.random.default_rng(37)
    n = prob.dof_count
    J0 = prob.jacobian(prob.initial_state())
    rows = np.concatenate((rng.permutation(n), rng.integers(0, n, 2 * n)))
    entries = np.concatenate([J0.indices[J0.indptr[r]:J0.indptr[r + 1]] for r in rows])
    perm = rng.permutation(n)
    for u in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        F, J = prob.residual(u), prob.jacobian(u)
        want_rows = F[rows].tobytes()
        want_data = np.concatenate(
            [J.data[J.indptr[r]:J.indptr[r + 1]] for r in rows]).tobytes()
        for X, at in ((u, entries), (u[perm], local_entries(perm, entries))):
            assert _outputs(prob.row_kernels(rows, at), X) == (want_rows, want_data)


@pytest.mark.parametrize("prob", _KERNEL_PROBLEMS, ids=_KERNEL_IDS)
def test_row_kernels_reject_entries_off_the_pattern(prob):
    J = prob.jacobian(prob.initial_state())
    rows = np.arange(1, prob.dof_count)
    entries = J.indices[J.indptr[1]:]
    prob.row_kernels(rows, entries)
    for wrong in (entries[1:], np.append(entries, 0), J.indices):
        with pytest.raises(ValueError, match="pattern"):
            prob.row_kernels(rows, wrong)


@pytest.mark.parametrize("prob", _KERNEL_PROBLEMS, ids=_KERNEL_IDS)
def test_all_rows_face_pass_gives_the_global_evaluations(prob):
    rng = np.random.default_rng(38)
    n = prob.dof_count
    kernels = prob.row_kernels(np.arange(n), prob.pattern.indices)
    for u in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        assert _outputs(kernels, u) == (prob.residual(u).tobytes(),
                                        prob.jacobian(u).data.tobytes())


@pytest.mark.parametrize("M", [1, 2, 13, 40])
def test_1d_face_pass_computes_each_face_once(M):
    # all rows hold the mesh's M + 1 faces; a stack holds m_i + 1 per block,
    # its blocks' overlaps sharing no face
    prob = smooth_forchheimer(M, beta=1.0)
    u = np.linspace(0.0, 1.0, M)
    gradients, _ = prob.row_kernels(np.arange(M), prob.pattern.indices).faces(u)
    assert len(gradients) == M + 1
    for I in range(1, M + 1):
        for k in range(min(3, M // I) + 1):
            layout = build_1d_layout(M, I, k)
            stack = block_positions(prob, layout)
            gradients, _ = stack.kernels.faces(stack.gather(u))
            assert len(gradients) == stack.size + layout.n_subdomains

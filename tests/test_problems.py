"""Tests for the discrete problems against independent dense/FD oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import per_block_positions

from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.local_solver import block_positions
from raspen.problems import (
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
    first = prob.jacobian(np.zeros(n))
    for u in (np.zeros(n), rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        J = prob.jacobian(u)
        assert J.format == "csr" and J.has_canonical_format
        assert np.array_equal(J.indptr, first.indptr)
        assert np.array_equal(J.indices, first.indices)
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


def _check_row_kernels(prob, subdomains, rng):
    """Every subdomain's row kernels against the global evaluations, bit for bit."""
    positions = per_block_positions(prob, SimpleNamespace(subdomains=subdomains))
    n = prob.dof_count
    for u in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        F, J = prob.residual(u), prob.jacobian(u)
        for pos in positions:
            x = u[pos.cells]
            residual_rows, jacobian_rows = prob.row_kernels([(pos.overlap, pos.halo)])
            assert residual_rows(x).tobytes() == F[pos.overlap].tobytes()
            assert jacobian_rows(x).tobytes() == J.data[pos.rows].tobytes()


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
            for lo in range(M):
                for hi in range(lo + 1, M + 1):
                    cells = np.arange(lo, hi)
                    halo = np.array([c for c in (lo - 1, hi) if 0 <= c < M], dtype=int)
                    residual_rows, jacobian_rows = prob.row_kernels([(cells, halo)])
                    for u, F, J in states:
                        x = u[np.concatenate((cells, halo))]
                        assert residual_rows(x).tobytes() == F[lo:hi].tobytes()
                        assert (jacobian_rows(x).tobytes()
                                == J.data[J.indptr[lo]:J.indptr[hi]].tobytes())


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (6, 1), (2, 6), (6, 4),
                                    (9, 6), (8, 12), (10, 5)])
def test_row_kernels_2d_bit_identical_on_every_subdomain(nx, ny):
    rng = np.random.default_rng(33)
    prob = DiffusionProblem2D(nx, ny)
    for N in range(1, min(nx, ny) + 1):
        if nx % N or ny % N:
            continue
        for k in range(min(nx, ny) // N + 1 if N > 1 else 1):
            _check_row_kernels(prob, build_2d_layout(nx, ny, N, k).subdomains, rng)


def _check_stacked_row_kernels(prob, subdomains, rng):
    """Stacked row kernels against the global evaluations, bit for bit.

    On the layout's whole subdomain set (the stack's own kernels), the set
    in reverse, and every other subdomain: each block's part of the stacked
    output must equal the global rows.
    """
    layout = SimpleNamespace(subdomains=subdomains)
    stack, positions = block_positions(prob, layout), per_block_positions(prob, layout)
    sets = [(positions, (stack.residual, stack.jacobian))]
    for chosen in (positions[::-1], positions[::2]):
        sets.append((chosen, prob.row_kernels([(p.overlap, p.halo) for p in chosen])))
    n = prob.dof_count
    for u in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
        F, J = prob.residual(u), prob.jacobian(u)
        for chosen, (residual_rows, jacobian_rows) in sets:
            X = u[np.concatenate([p.cells for p in chosen])]
            assert residual_rows(X).tobytes() == np.concatenate(
                [F[p.overlap] for p in chosen]).tobytes()
            assert jacobian_rows(X).tobytes() == np.concatenate(
                [J.data[p.rows] for p in chosen]).tobytes()


@pytest.mark.parametrize("M", [1, 2, 9, 17, 40])
def test_stacked_row_kernels_1d_bit_identical_on_every_layout(M):
    # I = M with and without overlap, I = 1, and everything between
    rng = np.random.default_rng(35)
    for prob in (smooth_forchheimer(M, 1.0), hard_forchheimer(M, 10.0, seed=2)):
        for I in range(1, M + 1):
            for k in range(min(3, M // I) + 1):
                layout = build_1d_layout(M, I, k)
                _check_stacked_row_kernels(prob, layout.subdomains, rng)


@pytest.mark.parametrize("nx, ny", [(1, 6), (6, 1), (6, 4), (9, 6), (8, 12), (10, 5)])
def test_stacked_row_kernels_2d_bit_identical_on_every_layout(nx, ny):
    rng = np.random.default_rng(36)
    prob = DiffusionProblem2D(nx, ny)
    for N in range(1, min(nx, ny) + 1):
        if nx % N or ny % N:
            continue
        for k in range(min(nx, ny) // N + 1 if N > 1 else 1):
            layout = build_2d_layout(nx, ny, N, k)
            _check_stacked_row_kernels(prob, layout.subdomains, rng)


@pytest.mark.parametrize("prob, cells", [
    (smooth_forchheimer(12, beta=1.0), np.arange(3, 7)),
    (DiffusionProblem2D(6, 5), np.array([7, 8, 13, 14])),
], ids=["1d", "2d"])
def test_row_kernels_need_the_whole_halo(prob, cells):
    J = prob.jacobian(prob.initial_state())
    halo = np.setdiff1d(J[cells].indices, cells)
    prob.row_kernels([(cells, halo)])
    with pytest.raises(ValueError, match="halo"):
        prob.row_kernels([(cells, halo[1:])])

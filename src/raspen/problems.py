"""Discrete nonlinear problems: 1D Forchheimer flow and 2D nonlinear diffusion.

Both problems expose the same contract: `dof_count`, `residual(u)` returning
a vector of the same length, and `jacobian(u)` returning the exact sparse
derivative of the residual as a CSR matrix whose sparsity pattern does not
depend on u.  Each problem builds that pattern once, so an evaluation only
fills the data array.  Residuals are written in integrated
finite-volume form (flux balance minus integrated source per cell), so a
zero residual means discrete conservation cell by cell.
"""

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NonlinearProblem",
    "ForchheimerProblem1D",
    "DiffusionProblem2D",
    "q_flux",
    "q_flux_derivative",
    "build_transmissibilities",
    "smooth_forchheimer",
    "hard_forchheimer",
    "default_diffusion_source",
]

# below this the Darcy limit q(g)=g is used verbatim
DARCY_THRESHOLD = 1e-12


class NonlinearProblem:
    """Contract shared by the concrete problems.

    Subclasses provide `dof_count`, `residual(u)` and `jacobian(u)`; both
    evaluations must be pure (no state mutated), and jacobian(u) must be the
    exact derivative of residual at u.  jacobian(u) returns a canonical CSR
    matrix (sorted indices, no duplicates) with the same indptr and indices
    at every u, entries that happen to vanish included.  That pattern is
    the stencil the local solvers and the harness read: the blocks are
    gathered from the data array at positions computed once.
    """

    @property
    def dof_count(self):
        raise NotImplementedError

    def residual(self, u):
        raise NotImplementedError

    def jacobian(self, u):
        raise NotImplementedError

    def initial_state(self):
        """Cold-start iterate used by the solvers and the harness."""
        return np.zeros(self.dof_count)


def _csr_pattern(rows, cols, n):
    """Fixed CSR pattern of the n-by-n entries (rows[k], cols[k]).

    Returns (indptr, indices, target): target[k] is the slot of entry k in
    the data array, repeated entries sharing one slot.  The index arrays
    are int32, as scipy stores them, and read-only, since every Jacobian
    of the problem shares them.
    """
    unique, target = np.unique(rows * n + cols, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
    indices = (unique % n).astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices, target


def q_flux(g, beta):
    """Flux function q(g) = sgn(g)(-1 + sqrt(1 + 4*beta*|g|)) / (2*beta).

    Evaluated in the equivalent form 2g / (1 + sqrt(1 + 4*beta*|g|)) which
    is exact for g = 0 and free of cancellation for small beta*|g|.  For
    beta below the Darcy threshold the linear limit q(g) = g is returned.
    """
    g = np.asarray(g, dtype=float)
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta <= DARCY_THRESHOLD:
        return g.copy() if g.ndim else float(g)
    out = 2.0 * g / (1.0 + np.sqrt(1.0 + 4.0 * beta * np.abs(g)))
    return out if g.ndim else float(out)


def q_flux_derivative(g, beta):
    """q'(g) = 1 / sqrt(1 + 4*beta*|g|) (even, positive, q'(0) = 1)."""
    g = np.asarray(g, dtype=float)
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta <= DARCY_THRESHOLD:
        out = np.ones_like(g)
    else:
        out = 1.0 / np.sqrt(1.0 + 4.0 * beta * np.abs(g))
    return out if g.ndim else float(out)


def build_transmissibilities(lambda_field, h):
    """Two-point flux transmissibilities on a uniform 1D mesh.

    Returns the M+1 face values: interior faces combine the neighbouring
    cell permeabilities harmonically over the two half cells,
    T = 1 / (h/(2*lam_left) + h/(2*lam_right)); boundary faces see a single
    half cell, T = 2*lam/h.
    """
    lam = np.asarray(lambda_field, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("permeability must be strictly positive")
    if h <= 0:
        raise ValueError("cell size must be positive")
    T = np.empty(len(lam) + 1)
    T[1:-1] = 1.0 / (h / (2.0 * lam[:-1]) + h / (2.0 * lam[1:]))
    T[0] = 2.0 * lam[0] / h
    T[-1] = 2.0 * lam[-1] / h
    return T


class ForchheimerProblem1D(NonlinearProblem):
    """TPFA finite-volume discretization of 1D Forchheimer flow.

    The continuous model is (q(-lambda(x) u'))' = f on (0, L) with Dirichlet
    values at both ends, where q captures the inertial correction to Darcy
    flow.  Cell K carries one unknown; the residual is

        residual_K = q(T_{K+1/2} (u_K - u_{K+1}))
                   + q(T_{K-1/2} (u_K - u_{K-1})) - f_K

    with the Dirichlet values substituted for u_0 and u_{M+1} and f_K the
    integrated source over cell K.  `lambda_field` holds per-cell averaged
    permeabilities and `source` the per-cell integrals; use the factory
    helpers for the standard fields.
    """

    def __init__(self, lambda_field, source, beta, L=1.5, dirichlet=(0.0, 1.0)):
        self.lambda_field = np.asarray(lambda_field, dtype=float)
        self.source = np.asarray(source, dtype=float)
        if self.lambda_field.shape != self.source.shape or self.lambda_field.ndim != 1:
            raise ValueError("lambda_field and source must be 1D of equal length")
        self.M = len(self.lambda_field)
        self.L = float(L)
        self.h = self.L / self.M
        self.beta = float(beta)
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and nonnegative")
        self.dirichlet = (float(dirichlet[0]), float(dirichlet[1]))
        self.transmissibilities = build_transmissibilities(self.lambda_field, self.h)
        # Jacobian entries in the order jacobian() lists their values:
        # sub-diagonal, diagonal, super-diagonal
        cells = np.arange(self.M)
        self._indptr, self._indices, self._slots = _csr_pattern(
            np.concatenate((cells[1:], cells, cells[:-1])),
            np.concatenate((cells[:-1], cells, cells[1:])),
            self.M,
        )

    @property
    def dof_count(self):
        return self.M

    def _face_gradients(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.M,):
            raise ValueError(f"expected state vector of length {self.M}")
        upad = np.concatenate(([self.dirichlet[0]], u, [self.dirichlet[1]]))
        return self.transmissibilities * (upad[:-1] - upad[1:])

    def residual(self, u):
        a = q_flux(self._face_gradients(u), self.beta)
        return a[1:] - a[:-1] - self.source

    def jacobian(self, u):
        qp = q_flux_derivative(self._face_gradients(u), self.beta)
        w = qp * self.transmissibilities
        off = -w[1:-1]
        data = np.empty(len(self._indices))
        data[self._slots] = np.concatenate((off, w[1:] + w[:-1], off))
        return sp.csr_matrix((data, self._indices, self._indptr),
                             shape=(self.M, self.M))


def _cell_edges(M, L):
    return np.linspace(0.0, L, M + 1)


def smooth_forchheimer(M, beta, L=1.5, dirichlet=(0.0, 1.0)):
    """Forchheimer problem with permeability cos(x) and source cos(x).

    Cell permeabilities are exact cell averages and the source is integrated
    exactly (both are antiderivatives of sin), so refining the mesh changes
    only the discretization, not the data sampling.
    """
    edges = _cell_edges(M, L)
    sin_diff = np.sin(edges[1:]) - np.sin(edges[:-1])
    h = L / M
    lam = sin_diff / h
    if np.any(lam <= 0):
        raise ValueError(f"cos permeability is not positive on (0, {L})")
    return ForchheimerProblem1D(lam, sin_diff, beta, L=L, dirichlet=dirichlet)


def hard_forchheimer(
    M,
    beta,
    seed,
    L=1.5,
    contrast=(1e-2, 1e2),
    amplitude=1.0,
    omega=20.0,
    dirichlet=(0.0, 1.0),
):
    """Stand-in hard case: seeded log-uniform permeability, oscillating source.

    Per-cell permeability is drawn log-uniformly from `contrast`, the source
    is f(x) = amplitude * sin(omega*pi*x) integrated exactly per cell.  The
    same (M, seed) pair always produces the same fields.
    """
    rng = np.random.default_rng(seed)
    lo, hi = contrast
    if not (0 < lo <= hi):
        raise ValueError("contrast bounds must satisfy 0 < lo <= hi")
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=M))
    edges = _cell_edges(M, L)
    w = omega * np.pi
    f = amplitude * (np.cos(w * edges[:-1]) - np.cos(w * edges[1:])) / w
    return ForchheimerProblem1D(lam, f, beta, L=L, dirichlet=dirichlet)


def default_diffusion_source(x, y):
    """Source used by the 2D diffusion experiments: smooth, genuinely 2D."""
    return 1.0 + np.cos(np.pi * x) * np.cos(np.pi * y)


class DiffusionProblem2D(NonlinearProblem):
    """Flux-form finite differences for -div((1 + u^2) grad u) = f on [0,1]^2.

    Unknowns sit at the nx-by-ny cell centers (row-major, cell (ix, iy) ->
    iy*nx + ix).  Interior edge coefficients are the arithmetic mean of
    1 + u^2 at the two adjacent unknowns; the Dirichlet edge x=1 (value 1)
    is eliminated into the residual through a half-cell flux with the
    one-sided cell coefficient, and the remaining edges are zero-flux.
    The linearization at u = 0 is therefore the plain 5-point Poisson
    matrix with this boundary closure.
    """

    def __init__(self, nx, ny, source=default_diffusion_source, dirichlet_value=1.0):
        self.nx, self.ny = int(nx), int(ny)
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per direction")
        self.hx, self.hy = 1.0 / self.nx, 1.0 / self.ny
        self.dirichlet_value = float(dirichlet_value)
        self.source = source
        xc = (np.arange(self.nx) + 0.5) * self.hx
        yc = (np.arange(self.ny) + 0.5) * self.hy
        X, Y = np.meshgrid(xc, yc)
        self.source_cells = np.asarray(source(X, Y), dtype=float) * self.hx * self.hy
        # Jacobian entries in the order jacobian() lists their values: per
        # x face then per y face the couplings (L,L), (L,R), (R,L), (R,R),
        # then the Dirichlet diagonal of the x=1 column
        idx = np.arange(self.nx * self.ny).reshape(self.ny, self.nx)
        rows, cols = [], []
        for L, R in ((idx[:, :-1].ravel(), idx[:, 1:].ravel()),
                     (idx[:-1, :].ravel(), idx[1:, :].ravel())):
            rows.extend([L, L, R, R])
            cols.extend([L, R, L, R])
        rows.append(idx[:, -1])
        cols.append(idx[:, -1])
        self._indptr, self._indices, self._slots = _csr_pattern(
            np.concatenate(rows), np.concatenate(cols), self.nx * self.ny)

    @property
    def dof_count(self):
        return self.nx * self.ny

    def _grid(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.nx * self.ny,):
            raise ValueError(f"expected state vector of length {self.nx * self.ny}")
        return u.reshape(self.ny, self.nx)

    def residual(self, u):
        U = self._grid(u)
        res = -self.source_cells.copy()
        Tx, Ty = self.hy / self.hx, self.hx / self.hy

        uL, uR = U[:, :-1], U[:, 1:]
        mean_a = 1.0 + 0.5 * (uL**2 + uR**2)
        flux = Tx * mean_a * (uL - uR)
        res[:, :-1] += flux
        res[:, 1:] -= flux

        uB, uT = U[:-1, :], U[1:, :]
        mean_a = 1.0 + 0.5 * (uB**2 + uT**2)
        flux = Ty * mean_a * (uB - uT)
        res[:-1, :] += flux
        res[1:, :] -= flux

        # Dirichlet edge x=1: half-cell flux toward the boundary value
        ub = U[:, -1]
        res[:, -1] += 2.0 * Tx * (1.0 + ub**2) * (ub - self.dirichlet_value)
        return res.ravel()

    def jacobian(self, u):
        U = self._grid(u)
        Tx, Ty = self.hy / self.hx, self.hx / self.hy
        data = []

        def faces(uL, uR, T):
            d = uL - uR
            mean_a = 1.0 + 0.5 * (uL**2 + uR**2)
            dL = T * (mean_a + uL * d)
            dR = T * (-mean_a + uR * d)
            data.extend([dL, dR, -dL, -dR])

        faces(U[:, :-1].ravel(), U[:, 1:].ravel(), Tx)
        faces(U[:-1, :].ravel(), U[1:, :].ravel(), Ty)
        ub = U[:, -1]
        data.append(2.0 * Tx * ((1.0 + ub**2) + 2.0 * ub * (ub - self.dirichlet_value)))
        # repeated entries are summed in listed order, as a COO-to-CSR
        # conversion of the same list sums them
        data = np.bincount(self._slots, weights=np.concatenate(data),
                           minlength=len(self._indices))
        n = self.nx * self.ny
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(n, n))

    def initial_state(self):
        """Constant lift of the Dirichlet value.

        With a nonnegative source and zero-flux side walls the solution sits
        above the x=1 boundary value everywhere, so the constant lift is the
        natural cold start; a zero start lies outside the solution's range.
        """
        return np.full(self.nx * self.ny, self.dirichlet_value)

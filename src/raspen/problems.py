"""Discrete nonlinear problems: 1D Forchheimer flow and 2D nonlinear diffusion.

Both meet the NonlinearProblem contract.  Residuals are written in
integrated finite-volume form (flux balance minus integrated source per
cell), so a zero residual means discrete conservation cell by cell.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .local_solver import SolveError

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

# the floor of the residual norm ForchheimerProblem1D.discrete_solution must reach
DISCRETE_RESIDUAL = 1e-10
_ZERO = np.zeros(1)  # the row kernels' values end in it


class NonlinearProblem:
    """Contract shared by the concrete problems.

    A problem has dof_count unknowns; residual(u) returns the residual, a
    vector of that length, and jacobian(u) its exact derivative as a CSR
    matrix on pattern.  pattern is a canonical CSR matrix (sorted indices,
    no duplicates) whose indptr and indices every jacobian(u) shares,
    entries that happen to vanish included; its data is never read.  It is
    the only description of the stencil the solvers read, and no solver
    evaluates a Jacobian to find it.  row_kernels evaluates any rows of
    both.  All evaluations must be pure (no state mutated).  Subclasses set
    their stencil with _set_stencil.  residual(u) and jacobian(u) are the
    all-rows kernels, _all_rows, built at first use; subclasses bind both
    in their own class body, where perfbench's tracer patches them.  So the
    tracer counts the callers of residual and jacobian: the 1D reference's
    check of its flux integration, outer Newton's spurious-zero check, a
    coarse correction's F(u), a coarse action's J(u) and the harness's
    first RAS residual.  The local sweeps and derivatives read row kernels
    of the stacked rows, and the iterates of coarse and direct Newton (so
    the 2D reference solves) the all-rows kernels themselves (_all_rows),
    so none of them shows there.
    """

    def _set_stencil(self, have, offsets, rows_class):
        """Set pattern from the stencil of every cell, and the row kernels' class.

        Row c of the pattern holds the columns c + offsets[k] for which
        have[c, k] is set; the offsets are sorted, so the pattern is
        canonical, and its index arrays are int32, as scipy stores them, and
        read-only.  rows_class(problem, rows, entries) builds the row kernels.
        """
        n = len(have)
        indptr = np.append(0, np.cumsum(have.sum(axis=1))).astype(np.int32)
        indices = (np.arange(n)[:, None] + offsets)[have].astype(np.int32)
        data = np.ones(len(indices))
        for a in (indptr, indices, data):
            a.flags.writeable = False
        self.pattern = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        self._rows_class = rows_class

    @property
    def dof_count(self):
        return self.pattern.shape[0]

    @cached_property
    def _all_rows(self):
        """The row kernels of all rows, built at first use."""
        return self.row_kernels(np.arange(self.dof_count), self.pattern.indices)

    def row_kernels(self, rows, entries):
        """Residual and Jacobian rows of the global cells rows, from local values.

        rows may come in any order and repeat; entries gives, for every
        entry of their rows in the Jacobian pattern, row by row in the
        pattern's order, where its column's value sits in a local vector X
        (ValueError if they do not match the pattern).  Returns the kernels,
        whose residual(X) and jacobian(X) give residual(u)[rows] and the
        rows' Jacobian data in the pattern's order, bit for bit, when X holds
        u there: residual and jacobian are row_kernels(arange(n), pattern
        indices) at X = u.  Each composes faces(X), one pass over the rows'
        faces, with residual_of or jacobian_of, which derive from a pass and
        leave it as it was; jacobian_of is values_of(faces)[take], whose
        values end in a 0.0 that take does not read.  Building the kernels
        costs index work; calling them reads only X.
        """
        return self._rows_class(self, rows, entries)

    def residual(self, u):
        return self._all_rows.residual(self._state(u))

    def jacobian(self, u):
        P = self.pattern
        return sp.csr_matrix((self._all_rows.jacobian(self._state(u)), P.indices,
                              P.indptr), shape=P.shape)

    def initial_state(self):
        """Cold-start iterate used by the solvers and the harness."""
        return np.zeros(self.dof_count)

    def _state(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dof_count,):
            raise ValueError(f"expected state vector of length {self.dof_count}")
        return u


def _columns(have, entries):
    """Where in X each row's stencil columns sit, as a table shaped like have.

    The columns a row does not hold read 0.
    """
    entries = np.asarray(entries)
    if entries.shape != (have.sum(),):
        raise ValueError(f"{entries.size} entries do not match the rows' "
                         f"pattern, which holds {have.sum()}")
    table = np.zeros(have.shape, dtype=np.intp)
    table[have] = entries
    return table


class _RowKernels:
    """A face pass, faces(X), and the residual and Jacobian derived from it."""

    def residual(self, X):
        return self.residual_of(self.faces(X))

    def jacobian(self, X):
        return self.jacobian_of(self.faces(X))

    def jacobian_of(self, faces):
        return self.values_of(faces)[self.take]


def _root(g, beta):
    """sqrt(1 + 4 beta |g|), from which q and q' derive."""
    return np.sqrt(1.0 + 4.0 * beta * np.abs(g))


def _q(g, root):
    return g / ((1.0 + root) * 0.5)


def _dq(g, root):
    return 1.0 / root


def _flux(f, g, beta):
    """f(g, root) at a finite, nonnegative beta; a float for a scalar g."""
    if not 0 <= beta < np.inf:  # nan fails too
        raise ValueError("beta must be finite and nonnegative")
    g = np.asarray(g, dtype=float)
    with np.errstate(over="ignore"):  # beta * g first: 4 beta alone may overflow
        root = _root(beta * g, 1.0)
    huge = np.isinf(root) & np.isfinite(g)  # 1 + 4 beta |g| overflowed: drop the 1
    out = f(g, np.where(huge, 2.0 * np.sqrt(beta) * np.sqrt(np.abs(g)), root))
    return out if g.ndim else float(out)


def q_flux(g, beta):
    """Flux function q(g) = sgn(g)(-1 + sqrt(1 + 4*beta*|g|)) / (2*beta).

    Evaluated in the equivalent form g / ((1 + sqrt(1 + 4*beta*|g|)) / 2),
    which is exact for g = 0, free of cancellation for small beta*|g| and,
    at beta = 0, the Darcy law q(g) = g exactly at every finite g.
    """
    return _flux(_q, g, beta)


def q_flux_derivative(g, beta):
    """q'(g) = 1 / sqrt(1 + 4*beta*|g|) (even, positive, q'(0) = 1)."""
    return _flux(_dq, g, beta)


def build_transmissibilities(lambda_field, h):
    """Two-point flux transmissibilities on a uniform 1D mesh.

    Returns the M+1 face values: interior faces combine the neighbouring
    cell permeabilities harmonically over the two half cells,
    T = 1 / (h/(2*lam_left) + h/(2*lam_right)); boundary faces see a single
    half cell, T = 2*lam/h.
    """
    lam = np.asarray(lambda_field, dtype=float)
    if not np.all((lam > 0) & (lam < np.inf)):  # nan fails too
        raise ValueError("permeability must be strictly positive and finite")
    if not 0 < h < np.inf:
        raise ValueError("cell size must be positive and finite")
    T = np.empty(len(lam) + 1)
    T[1:-1] = 1.0 / (h / (2.0 * lam[:-1]) + h / (2.0 * lam[1:]))
    T[[0, -1]] = 2.0 * lam[[0, -1]] / h
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
        if (self.lambda_field.shape != self.source.shape or self.lambda_field.ndim != 1
                or not self.lambda_field.size):
            raise ValueError("lambda_field and source must be 1D of equal, "
                             "nonzero length")
        self.M = len(self.lambda_field)
        self.L = float(L)
        self.h = self.L / self.M
        self.beta = float(beta)
        if not 0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and nonnegative")
        self.dirichlet = (float(dirichlet[0]), float(dirichlet[1]))
        if not (np.isfinite(self.source).all() and np.isfinite(self.dirichlet).all()):
            raise ValueError("source and dirichlet data must be finite")
        self.transmissibilities = build_transmissibilities(self.lambda_field, self.h)
        self._set_stencil(_tridiagonal(np.arange(self.M), self.M), [-1, 0, 1],
                          _ForchheimerRows)

    residual, jacobian = NonlinearProblem.residual, NonlinearProblem.jacobian

    def discrete_solution(self):
        """The u with residual(u) = 0, by integrating the face fluxes.

        Face f carries the flux phi_f = c + S_f, S_f the sources left of f,
        and the drop (phi_f + beta phi_f |phi_f|) / T_f, which q inverts.
        c, where the drops sum to d0 - d1, is bisected to adjacent floats,
        from where max(phi), and min(phi), is q((d0 - d1) / sum(1 / T)); u
        is d0 less the cumulative drops at the end whose sum is nearer.
        SolveError if the bracket ends non-finite, if the roundoff bound
        4 eps max(T) ||u|| overflows (rounding u to floats moves F that far:
        a row is a difference of two fluxes q(T du), q 1-Lipschitz), or if
        ||F(u)|| exceeds both that bound and DISCRETE_RESIDUAL; both norms
        are scaled by the largest entry, so neither overflows by its squares
        and the bound only where its own value does.
        """
        S, T = np.append(0.0, np.cumsum(self.source)), self.transmissibilities
        drop = self.dirichlet[0] - self.dirichlet[1]

        def drops(c):
            return (c + S) * (1.0 + self.beta * np.abs(c + S)) / T

        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            mid = q_flux(drop / np.sum(1.0 / T), self.beta)
            lo, hi = mid - S.max(), mid - S.min()
            while lo < (c := 0.5 * (lo + hi)) < hi:
                lo, hi = (c, hi) if drops(c).sum() < drop else (lo, c)
            c = min((lo, hi), key=lambda c: abs(drops(c).sum() - drop))
            u = self.dirichlet[0] - np.cumsum(drops(c)[:-1])
            rnorm = _scaled_norm(self.residual(u))
            bound = max(DISCRETE_RESIDUAL,
                        _scaled_norm(u, 4 * np.finfo(float).eps * T.max()))
        if not (np.isfinite([lo, hi, bound]).all() and rnorm <= bound):
            raise SolveError(f"flux integration: residual norm {rnorm:.3e} "
                             f"(bound {bound:.3e})")
        return u


def _scaled_norm(v, factor=1.0):
    """factor ||v||_2 as (factor max|v|) ||v / max|v|||, free of squares."""
    big = np.abs(v).max()
    return factor * big * np.linalg.norm(v / big) if big else 0.0


class _ForchheimerRows(_RowKernels):
    """ForchheimerProblem1D's row kernels, on the rows' faces, each once.

    The row of cell c is q at its right face, T_{c+1} (u_c - u_{c+1}),
    minus q at its left face, T_c (u_{c-1} - u_c), minus its source, as in
    the global evaluation; the Dirichlet values stand in for cells -1 and
    M.  X is read padded to (dirichlet[0], dirichlet[1], X).  A row's left
    face is the previous row's right face when both read the same values
    at the same T: all rows hold M + 1 faces, a stack m_i + 1 per block.
    """

    def __init__(self, problem, rows, entries):
        have, m = _tridiagonal(rows, problem.M), len(rows)
        # c-1, c, c+1 in the padded X
        at = np.where(have, _columns(have, entries) + 2, [0, 0, 1])
        new = np.full(m, 2)  # the faces each row adds
        new[1:] -= (at[1:, :2] == at[:-1, 1:]).all(axis=1) & (rows[1:] == rows[:-1] + 1)
        self.at = np.cumsum(new) - [[2], [1]]  # each row's left and right face
        faces = np.empty((3, new.sum()), dtype=np.intp)  # left, right, T index
        faces[:, self.at] = [[at[:, 0], at[:, 1]], [at[:, 1], at[:, 2]],
                             [rows, rows + 1]]
        self.left, self.right = faces[:2]
        self.T = problem.transmissibilities[faces[2]]
        self.source, self.beta = problem.source[rows], problem.beta
        self.ends = np.array(problem.dirichlet)
        # row c holds -w at its left face, w right + w left, -w at its right
        self.take = np.column_stack((self.at[0], len(self.T) + np.arange(m),
                                     self.at[1]))[have]

    def faces(self, X):
        u = np.concatenate((self.ends, X))
        g = self.T * (u[self.left] - u[self.right])
        return g, _root(g, self.beta)

    def residual_of(self, faces):
        a = _q(*faces)[self.at]
        return a[1] - a[0] - self.source

    def values_of(self, faces):
        w = _dq(*faces) * self.T
        wl, wr = w[self.at]
        return np.concatenate((-w, wr + wl, _ZERO))


def _tridiagonal(cells, M):
    """Which of the columns c-1, c, c+1 the Jacobian row of each cell c holds."""
    have = np.ones((len(cells), 3), dtype=bool)
    have[:, 0], have[:, 2] = cells > 0, cells < M - 1
    return have


def _five_point(cells, nx, ny):
    """Which of the columns c-nx, c-1, c, c+1, c+nx the row of each cell c holds."""
    iy, ix = np.divmod(cells, nx)
    have = np.ones((len(cells), 5), dtype=bool)
    have[:, 0], have[:, 1], have[:, 3], have[:, 4] = (
        iy > 0, ix > 0, ix < nx - 1, iy < ny - 1)
    return have


def _cell_edges(M, L):
    """The M + 1 edges of M equal cells on (0, L)."""
    if not (isinstance(M, (int, np.integer)) and M >= 1):
        raise ValueError(f"mesh must be a positive integer number of cells, got {M!r}")
    if not 0 < L < np.inf:
        raise ValueError(f"domain length must be positive and finite, got {L!r}")
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
    is f(x) = amplitude * sin(omega*pi*x) integrated exactly per cell, which
    needs omega != 0.  The same (M, seed) pair always produces the same
    fields.
    """
    if not 0 < abs(omega) < np.inf:
        raise ValueError("omega must be nonzero and finite")
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    lo, hi = contrast
    if not (0 < lo <= hi < np.inf):
        raise ValueError("contrast bounds must satisfy 0 < lo <= hi < inf")
    edges = _cell_edges(M, L)
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=M))
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
    matrix with this boundary closure.  source(X, Y) is read at the cell
    centres and broadcast to the grid, so a constant source is a number.
    """

    def __init__(self, nx, ny, source=default_diffusion_source, dirichlet_value=1.0):
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (nx, ny)):
            raise ValueError(f"grid must have a positive integer number of cells "
                             f"per direction, got {nx!r}, {ny!r}")
        self.nx, self.ny = int(nx), int(ny)
        self.hx, self.hy = 1.0 / self.nx, 1.0 / self.ny
        self.dirichlet_value = float(dirichlet_value)
        self.source = source
        xc = (np.arange(self.nx) + 0.5) * self.hx
        yc = (np.arange(self.ny) + 0.5) * self.hy
        X, Y = np.meshgrid(xc, yc)
        self.source_cells = (np.broadcast_to(np.asarray(source(X, Y), dtype=float),
                                             X.shape) * self.hx * self.hy)
        if not (np.isfinite(self.dirichlet_value) and np.isfinite(self.source_cells).all()):
            raise ValueError("source and dirichlet_value must be finite")
        self._set_stencil(_five_point(np.arange(self.nx * self.ny), self.nx, self.ny),
                          [-self.nx, -1, 0, 1, self.nx], _DiffusionRows)

    residual, jacobian = NonlinearProblem.residual, NonlinearProblem.jacobian

    def initial_state(self):
        """Constant lift of the Dirichlet value.

        With a nonnegative source and zero-flux side walls the solution sits
        above the x=1 boundary value everywhere, so the constant lift is the
        natural cold start; a zero start lies outside the solution's range.
        """
        return np.full(self.nx * self.ny, self.dirichlet_value)


class _DiffusionRows(_RowKernels):
    """DiffusionProblem2D's row kernels: each row's four face fluxes.

    A face's flux is T a (u_L - u_R), L its -x (-y) cell, R the other, a
    the mean of 1 + u^2 at the two.  Row c sums, in the global evaluation's
    order, minus its source, its E flux, minus its W flux, its N flux,
    minus its S flux, then the Dirichlet flux of the x = 1 edge, each term
    as T a (u_c - u_n) at its neighbour n, which negates W and S exactly.
    An absent neighbour reads u_c with T = 0, and the Dirichlet term off
    the edge has coefficient 0, so both add exactly 0.0.  The diagonal sums
    T (a + u_c (u_c - u_n)) in the same order; the coupling to n is
    T (u_n (u_c - u_n) - a) + 0.0, a sum from 0.0 like the global one.
    """

    def __init__(self, problem, rows, entries):
        have = _five_point(rows, problem.nx, problem.ny)
        at = _columns(have, entries)
        # rows c, then its S, W, E and N neighbours, in X
        self.at = np.where(have, at, at[:, 2:3]).T[[2, 0, 1, 3, 4]]
        Tx, Ty = problem.hy / problem.hx, problem.hx / problem.hy
        self.T = np.where(have[:, [0, 1, 3, 4]], [Ty, Tx, Tx, Ty], 0.0).T.copy()
        self.dv, m = problem.dirichlet_value, len(rows)
        self.boundary = np.where(rows % problem.nx == problem.nx - 1, 2.0 * Tx, 0.0)
        self.neg_source = 0.0 - problem.source_cells.ravel()[rows]
        self.take = (np.arange(m)[:, None] + m * np.arange(5))[have]

    def faces(self, X):
        """u_c, u_n, u_c^2, the faces' mean a and u_c - u_n, n the neighbours."""
        u = X[self.at]
        sq = u**2
        uc, un = u[0], u[1:]
        mean_a = sq[1:] + sq[0]
        mean_a *= 0.5
        mean_a += 1.0
        return uc, un, sq[0], mean_a, uc - un

    def residual_of(self, faces):
        uc, _, sq, mean_a, d = faces
        flux = self.T * mean_a
        flux *= d
        s, w, e, n = flux
        return (self.neg_source + e + w + n + s
                + self.boundary * (1.0 + sq) * (uc - self.dv))

    def values_of(self, faces):
        uc, un, sq, mean_a, d = faces
        diagonal = uc * d
        diagonal += mean_a
        diagonal *= self.T
        s, w, e, n = diagonal
        centre = (e + w + n + s
                  + self.boundary * ((1.0 + sq) + 2.0 * uc * (uc - self.dv)))
        coupling = d * un
        coupling -= mean_a
        coupling *= self.T
        coupling += 0.0
        return np.concatenate((coupling[:2].ravel(), centre, coupling[2:].ravel(),
                               _ZERO))

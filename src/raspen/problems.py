"""Discrete nonlinear problems: 1D Forchheimer flow and 2D nonlinear diffusion.

Both problems expose the same contract: `dof_count`, `residual(u)` returning
a vector of the same length, `jacobian(u)` returning the exact sparse
derivative of the residual as a CSR matrix whose sparsity pattern does not
depend on u, and `row_kernels(blocks)`, which evaluates the residual rows of
several fixed cell sets at once, and the matching Jacobian entries, from
the values on each set and its halo alone, stacked in block order.  Each
problem builds its pattern once, so an evaluation only fills the data
array.  Both are face-flux codes with one kernel each: the face values of
the faces touching the cells, summed into the cells' rows; `residual` and
`jacobian` are its one-block, all-cells case.
Residuals are written in integrated finite-volume form (flux balance minus
integrated source per cell), so a zero residual means discrete conservation
cell by cell.
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

    Subclasses provide `dof_count`, `residual(u)`, `jacobian(u)` and
    `row_kernels(blocks)`; all evaluations must be pure (no state
    mutated), and jacobian(u) must be the exact derivative of residual at u.
    jacobian(u) returns a canonical CSR matrix (sorted indices, no
    duplicates) with the same indptr and indices at every u, entries that
    happen to vanish included.  That pattern is the stencil the local
    solvers and the harness read: local_solver.block_positions computes
    every subdomain's block positions and halo from it at once, in one pass
    over all subdomains.  A local solve never evaluates the
    global residual or Jacobian: it calls the row kernels, so its cost
    grows with the subdomain, not with the mesh.
    """

    @property
    def dof_count(self):
        raise NotImplementedError

    def residual(self, u):
        raise NotImplementedError

    def jacobian(self, u):
        raise NotImplementedError

    def row_kernels(self, blocks):
        """The residual and Jacobian rows of cell blocks as functions of local values.

        blocks is a sequence of (cells, halo) pairs of disjoint arrays of
        global cell indices; each halo must hold every cell outside its
        cells that a row of them couples to in the Jacobian pattern.  The
        local vector of a block is x = u[concatenate((cells, halo))], and
        the kernels read the blocks' local vectors concatenated in block
        order, X.  Returns (residual_rows, jacobian_rows), two functions of
        X: residual_rows(X) stacks each block's residual(u)[cells] and
        jacobian_rows(X) each block's row data, jacobian(u)[cells].data in
        the pattern's order, both in block order and each block's part
        bit-identical to the global evaluations.  Blocks may share cells;
        each is evaluated as if alone.  Building the kernels may cost index
        work on the cells; calling them reads only X.
        """
        raise NotImplementedError

    def initial_state(self):
        """Cold-start iterate used by the solvers and the harness."""
        return np.zeros(self.dof_count)

    def _state(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dof_count,):
            raise ValueError(f"expected state vector of length {self.dof_count}")
        return u


def _stencil_pattern(have, offsets):
    """The fixed CSR pattern of a stencil, one row per row of have.

    Row c holds the columns c + offsets[k] for which have[c, k] is set; the
    offsets are sorted and no row holds a column twice, so the pattern is
    canonical.  Returns (indptr, indices), int32 as scipy stores them and
    read-only, since every Jacobian of the problem shares them.
    """
    indptr = np.append(0, np.cumsum(have.sum(axis=1))).astype(np.int32)
    indices = (np.arange(len(have))[:, None] + offsets)[have].astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def _local_index(cells, halo, wanted):
    """Positions of the global cells `wanted` in concatenate((cells, halo))."""
    local = np.concatenate((cells, halo))
    table = np.full(max(local.max(), wanted.max(initial=0)) + 1, -1)
    table[local] = np.arange(len(local))
    found = table[wanted]
    if (found < 0).any():
        raise ValueError("the halo does not hold every neighbour of the cells")
    return found


def _indexer(index):
    """index, or the equal slice when it runs through consecutive integers.

    Indexing by a slice takes a view where an index array gathers a copy.
    """
    if len(index) and index[-1] - index[0] == len(index) - 1 and (
            index[1:] - index[:-1] == 1).all():
        return slice(index[0], index[-1] + 1)
    return index


def _touched(n, *faces):
    """The sorted distinct entries of the face index arrays, all below n."""
    mark = np.zeros(n, dtype=bool)
    for f in faces:
        mark[f] = True
    return np.flatnonzero(mark)


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
        cells = np.arange(self.M)
        self._indptr, self._indices = _stencil_pattern(
            _tridiagonal(cells, self.M), [-1, 0, 1])
        self._all_rows = self.row_kernels([(cells, cells[:0])])

    @property
    def dof_count(self):
        return self.M

    def residual(self, u):
        return self._all_rows[0](self._state(u))

    def jacobian(self, u):
        return sp.csr_matrix((self._all_rows[1](self._state(u)), self._indices,
                              self._indptr), shape=(self.M, self.M))

    def row_kernels(self, blocks):
        rows = _ForchheimerRows(self, blocks)
        return rows.residual, rows.jacobian


class _ForchheimerRows:
    """ForchheimerProblem1D's row kernels on the faces touching the blocks' cells.

    Face f lies between cells f-1 and f, the Dirichlet values standing in
    for cells -1 and M; a cell's row is q at its right face minus q at its
    left face minus its source, as in the global evaluation.  The faces are
    listed block by block, so a face that two blocks touch is listed twice.
    """

    def __init__(self, problem, blocks):
        M = problem.M
        total = sum(len(cells) + len(halo) for cells, halo in blocks)
        left, right, lf, rf, T, source, have = ([] for _ in range(7))
        width = n_faces = 0  # values of X and faces listed so far
        for cells, halo in blocks:
            faces = _touched(M + 1, cells, cells + 1)
            # each face's cells in the block's local vector padded to
            # (dirichlet[0], x, dirichlet[1]), whose ends stand in for cells
            # -1 and M (cell indices shifted by one), moved to the padded X,
            # (dirichlet[0], X, dirichlet[1])
            n = len(cells) + len(halo)
            ends = np.concatenate(([0], np.arange(1, n + 1) + width, [total + 1]))[
                _local_index(np.append(0, cells + 1), np.append(halo + 1, M + 1),
                             np.concatenate((faces, faces + 1)))]
            left.append(ends[:len(faces)])
            right.append(ends[len(faces):])
            lf.append(np.searchsorted(faces, cells) + n_faces)
            rf.append(np.searchsorted(faces, cells + 1) + n_faces)
            T.append(problem.transmissibilities[faces])
            source.append(problem.source[cells])
            have.append(_tridiagonal(cells, M))
            width, n_faces = width + n, n_faces + len(faces)
        self.left = _indexer(np.concatenate(left))
        self.right = _indexer(np.concatenate(right))
        self.lf, self.rf = _indexer(np.concatenate(lf)), _indexer(np.concatenate(rf))
        self.T, self.source = np.concatenate(T), np.concatenate(source)
        self.beta = problem.beta
        self.d0, self.d1 = np.array(problem.dirichlet[:1]), np.array(problem.dirichlet[1:])
        # the row of cell c holds, in column order, -w at its left face,
        # w right + w left, and -w at its right face
        have = np.concatenate(have)
        m = len(have)
        self.take = (np.arange(m)[:, None] + [0, m, 2 * m])[have]

    def _gradients(self, X):
        padded = np.concatenate((self.d0, X, self.d1))
        return self.T * (padded[self.left] - padded[self.right])

    def residual(self, X):
        a = q_flux(self._gradients(X), self.beta)
        return a[self.rf] - a[self.lf] - self.source

    def jacobian(self, X):
        w = q_flux_derivative(self._gradients(X), self.beta) * self.T
        wl, wr = w[self.lf], w[self.rf]
        return np.concatenate((-wl, wr + wl, -wr))[self.take]


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
    if omega == 0:
        raise ValueError("omega must be nonzero")
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
        cells = np.arange(self.nx * self.ny)
        self._indptr, self._indices = _stencil_pattern(
            _five_point(cells, self.nx, self.ny), [-self.nx, -1, 0, 1, self.nx])
        self._all_rows = self.row_kernels([(cells, cells[:0])])

    @property
    def dof_count(self):
        return self.nx * self.ny

    def residual(self, u):
        return self._all_rows[0](self._state(u))

    def jacobian(self, u):
        n = self.nx * self.ny
        return sp.csr_matrix((self._all_rows[1](self._state(u)), self._indices,
                              self._indptr), shape=(n, n))

    def initial_state(self):
        """Constant lift of the Dirichlet value.

        With a nonnegative source and zero-flux side walls the solution sits
        above the x=1 boundary value everywhere, so the constant lift is the
        natural cold start; a zero start lies outside the solution's range.
        """
        return np.full(self.nx * self.ny, self.dirichlet_value)

    def row_kernels(self, blocks):
        rows = _DiffusionRows(self, blocks)
        return rows.residual, rows.jacobian


class _DiffusionRows:
    """DiffusionProblem2D's row kernels on the faces touching the blocks' cells.

    x face iy*(nx-1)+ix joins cell L = (ix, iy) to R = (ix+1, iy), y face
    iy*nx+ix joins L = (ix, iy) to R = (ix, iy+1).  Each row sums its terms
    by one np.bincount in the global evaluation's order: minus the source,
    the x flux where the cell is L, minus it where the cell is R, the same
    for y, then the Dirichlet flux.  A Jacobian entry sums its couplings,
    listed per x face then per y face as (L,L), (L,R), (R,L), (R,R), then
    the Dirichlet diagonal, by one np.bincount in that order.  The terms are
    grouped by kind across blocks (the x faces of every block, block by
    block, then the y faces), which keeps each row's order, since a row
    only gets terms of its own block.  Terms of rows outside the cells go
    to one extra bin, which is dropped.
    """

    def __init__(self, problem, blocks):
        nx, ny = problem.nx, problem.ny
        nxf, nyf = (nx - 1) * ny, nx * (ny - 1)
        m_all = sum(len(cells) for cells, _ in blocks)
        # per block, the X positions and the rows (m_all, the extra bin,
        # outside the cells) of the L and R cells of its x faces, then of
        # its y faces
        ends, rows = ([[], [], [], []] for _ in range(2))
        bound, bound_rows, neg_source, have = [], [], [], []
        width = m = 0  # values of X and rows listed so far
        for cells, halo in blocks:
            iy, ix = np.divmod(cells, nx)
            xf = _touched(nxf, (cells - iy)[ix < nx - 1], (cells - iy - 1)[ix > 0])
            yf = _touched(nyf, cells[iy < ny - 1], cells[iy > 0] - nx)
            xL = xf + xf // max(nx - 1, 1)
            local = _local_index(cells, halo, np.concatenate((xL, xL + 1, yf, yf + nx)))
            at, row = local + width, np.where(local < len(cells), local + m, m_all)
            bounds = np.cumsum([0, len(xf), len(xf), len(yf), len(yf)])
            for k in range(4):
                ends[k].append(at[bounds[k]:bounds[k + 1]])
                rows[k].append(row[bounds[k]:bounds[k + 1]])
            edge = np.flatnonzero(ix == nx - 1)
            bound.append(edge + width)
            bound_rows.append(edge + m)
            neg_source.append(-problem.source_cells.ravel()[cells])
            have.append(_five_point(cells, nx, ny))
            width, m = width + len(cells) + len(halo), m + len(cells)
        self.left = np.concatenate(ends[0] + ends[2])
        self.right = np.concatenate(ends[1] + ends[3])
        rxL, rxR, ryL, ryR = (np.concatenate(part) for part in rows)
        self.Tx = problem.hy / problem.hx
        self.T = np.concatenate((np.full(len(rxL), self.Tx),
                                 np.full(len(ryL), problem.hx / problem.hy)))
        self.bound, bound_rows = np.concatenate(bound), np.concatenate(bound_rows)
        self.neg_source = np.concatenate(neg_source)
        self.dv, self.m, self.nx_faces = problem.dirichlet_value, m, len(rxL)

        self.r_bins = np.concatenate((np.arange(m), rxL, rxR, ryL, ryR, bound_rows))
        # slot[p, k]: where stacked row p holds column k of the stencil
        # (c-nx, c-1, c, c+1, c+nx) in the stacked row data, which lists the
        # held entries row by row; row m of slot is the extra bin
        have = np.concatenate(have)
        self.size = int(have.sum())
        slot = np.append(np.cumsum(have) - 1, np.full(5, self.size)).reshape(m + 1, 5)
        self.j_bins = np.concatenate((
            slot[rxL, 2], slot[rxL, 3], slot[rxR, 1], slot[rxR, 2],
            slot[ryL, 2], slot[ryL, 4], slot[ryR, 0], slot[ryR, 2],
            slot[bound_rows, 2]))

    def _faces(self, X):
        uL, uR = X[self.left], X[self.right]
        return uL, uR, 1.0 + 0.5 * (uL**2 + uR**2)

    def residual(self, X):
        uL, uR, mean_a = self._faces(X)
        flux = self.T * mean_a * (uL - uR)
        ub = X[self.bound]
        nf, k = -flux, self.nx_faces
        terms = (self.neg_source, flux[:k], nf[:k], flux[k:], nf[k:],
                 2.0 * self.Tx * (1.0 + ub**2) * (ub - self.dv))
        return np.bincount(self.r_bins, np.concatenate(terms), self.m + 1)[:-1]

    def jacobian(self, X):
        uL, uR, mean_a = self._faces(X)
        d = uL - uR
        dL = self.T * (mean_a + uL * d)
        dR = self.T * (-mean_a + uR * d)
        ub = X[self.bound]
        ndL, ndR, k = -dL, -dR, self.nx_faces
        terms = (dL[:k], dR[:k], ndL[:k], ndR[:k], dL[k:], dR[k:], ndL[k:], ndR[k:],
                 2.0 * self.Tx * ((1.0 + ub**2) + 2.0 * ub * (ub - self.dv)))
        return np.bincount(self.j_bins, np.concatenate(terms), self.size + 1)[:-1]

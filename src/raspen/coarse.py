"""Galerkin coarse problem and the two flavors of coarse correction.

The coarse function tests the fine residual against the interpolation
basis: F_0(u_0) = P_0^T F(P_0 u_0), one DOF per subdomain.  The test
space has to match the trial space here: aggregating residuals with
plain per-coarse-cell sums instead (the other natural finite-volume
choice) breaks the Galerkin symmetry, and the resulting two-level
correction amplifies interface modes -- on the linear Darcy problem the
two-level iteration operator then has spectral radius around 5-6 and the
fixed point diverges.

The full-approximation-scheme correction C_0(u) (used by the two-level
Newton solver on the restricted Schwarz function) solves

    F_0(R_0 u + C_0(u)) = F_0(R_0 u) - P_0^T F(u),

by coarse Newton from the initial guess R_0 u, which makes J_0 = F_0'(R_0 u)
a free by-product of the first step.  The additive-Schwarz variant instead
precomputes the coarse solution u_0* (F_0(u_0*) = 0) once and solves

    F_0(C_0^A(u) + u_0*) = -P_0^T F(u)

from the initial guess u_0*.  Both are one coarse Newton solve that
differs only in its start value and right-hand side, as is the base solve
for u_0*.  Coarse Newton factors each iterate's dense coarse Jacobian,
its start's included, once by LU (dgetrf), steps with those factors
(dgetrs) and fails with CoarseSolveError on a non-finite residual (the
start's included), a singular Jacobian or a spent budget.
The three solves run under the sweep's np.errstate(over="ignore",
invalid="ignore"): a non-finite or huge state's face passes read inf - inf
or overflow on the way to that error, and warn nothing.
Both corrections retain the factors at the converged iterate (J^_0) for
the outer Jacobian actions

    dC_0/du   = -R_0 + J^_0^{-1} (J_0 R_0 - P_0^T J(u)),
    dC_0^A/du = -J^_0^{-1} P_0^T J(u).

An action takes the fine Jacobian J(u) from its caller, which assembles it
once per state and makes sure that the correction was solved at u.

A CoarseSpace is built once per problem and layout (precond), from J's
fixed pattern and P_0, evaluating no Jacobian: P_0^T as CSR, for every
restriction, the Galerkin map, and the problem's all-rows row kernels,
which give residual(u) and jacobian(u).data bit for bit.  J's pattern is
fixed, so the entries of J_0 = P_0^T J P_0 are a fixed linear function of
J.data, which the map applies in two sparse stages, onto the entries of
J P_0 and then onto those of J_0, with a few terms per entry of J in
each.  J.data is the kernels' values[take], so the first stage reads the
values themselves, each term at its entry's value, in the same order.
Coarse Newton prolongs each iterate, its start included, once and makes
one face pass there, from which it derives F_0 (residual_of and a CSR
product) and J_0 (values_of, two CSR products and a scatter into a dense
N x N array): no global residual or Jacobian, and no sparse matrix built
per iterate.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from .local_solver import SolveError, csr_apply, read_only

__all__ = [
    "CoarseSpace",
    "CoarseSolveResult",
    "CoarseSolveError",
    "coarse_space",
    "coarse_residual",
    "coarse_jacobian",
    "fas_correction",
    "fas_correction_jacobian_action",
    "aspin_coarse_setup",
    "aspin_coarse_correction",
    "aspin_coarse_jacobian_action",
]


class CoarseSolveError(SolveError):
    """The coarse Newton solve failed to converge or became singular."""


@dataclass(frozen=True, eq=False)
class CoarseSolveResult:
    """Outcome of one coarse correction solve.

    J0 is the coarse Jacobian at the initial guess (read by the FAS action
    only); J0_hat_lu is the LU factorization (lu, piv), as dgetrf returns
    it and dgetrs takes it, of the coarse Jacobian at the converged iterate.
    """

    correction: np.ndarray
    J0: np.ndarray = field(repr=False)
    J0_hat_lu: tuple = field(repr=False)
    inner_iterations: int


@dataclass(frozen=True, eq=False)
class CoarseSpace:
    """G2 @ (G1 @ values) are J_0^T's entries, at `slots` of an N x N array.

    kernels are the problem's all-rows row kernels, and values their
    values_of at P_0 u_0, whose length is G1's column count (module
    docstring).  P0T, G1, G2 and slots are read-only, the matrices'
    arrays included.
    """

    problem: object
    layout: object
    kernels: object = field(repr=False)
    P0T: sp.csr_matrix = field(repr=False)
    G1: sp.csr_matrix = field(repr=False)
    G2: sp.csr_matrix = field(repr=False)
    slots: np.ndarray = field(repr=False)


def _stage(P0, rows, cols):
    """Map X's entries, at (rows, cols), onto X P_0's, at row * N + column."""
    width = np.diff(P0.indptr)[cols]
    e = np.repeat(np.arange(cols.size), width)
    p = np.arange(e.size) + np.repeat(P0.indptr[cols] - width.cumsum() + width, width)
    keys = rows[e] * P0.shape[1] + P0.indices[p]
    order = np.argsort(keys, kind="stable")  # np.unique's slots and inverse, one sort
    new = np.diff(keys[order], prepend=-1) != 0  # where the sorted keys (all >= 0) change
    dest, slots = np.empty_like(order), keys[order[new]]
    dest[order] = np.cumsum(new) - 1
    return sp.csr_matrix((P0.data[p], (dest, e)), shape=(slots.size, cols.size)), slots


def coarse_space(problem, layout):
    """P_0^T and the Galerkin map of J's pattern; evaluates no Jacobian."""
    if problem.dof_count != layout.n_cells:
        raise ValueError("problem and layout dimensions disagree")
    P0, n, J, kernels = layout.P0, layout.n_subdomains, problem.pattern, problem._all_rows
    G1, jp = _stage(P0, np.repeat(np.arange(J.shape[0]), np.diff(J.indptr)), J.indices)
    G2, slots = _stage(P0, jp % n, jp // n)  # X = (J P_0)^T: X P_0 = J_0^T
    # J.data is values[take]: G1's columns read the values instead, term for
    # term, and one face pass at zero gives the values' length
    values = kernels.values_of(kernels.faces(np.zeros(J.shape[0])))
    G1 = sp.csr_matrix((G1.data, kernels.take[G1.indices], G1.indptr),
                       shape=(G1.shape[0], len(values)))
    P0T = P0.T.tocsr()
    read_only(P0T, G1, G2, slots)
    return CoarseSpace(problem, layout, kernels, P0T, G1, G2, slots)


def _faces(space, u0):
    """The kernels' face pass at P_0 u_0, for a coarse vector u_0 of the space."""
    u0, n = np.asarray(u0, dtype=float), space.layout.n_subdomains
    if u0.shape != (n,):
        raise ValueError(f"expected coarse vector of length {n}")
    return space.kernels.faces(csr_apply(space.layout.P0, u0))


def _galerkin_jacobian(space, values):
    """Dense P_0^T J P_0, from the kernels' values of J, by the Galerkin map."""
    J0T = np.zeros((space.layout.n_subdomains,) * 2)
    J0T.reshape(-1)[space.slots] = csr_apply(space.G2, csr_apply(space.G1, values))
    return J0T.T


def coarse_residual(space, u0):
    """F_0(u_0) = P_0^T F(P_0 u_0)."""
    return csr_apply(space.P0T, space.kernels.residual_of(_faces(space, u0)))


def coarse_jacobian(space, u0):
    """Dense F_0'(u_0) = P_0^T J(P_0 u_0) P_0, by the Galerkin map."""
    return _galerkin_jacobian(space, space.kernels.values_of(_faces(space, u0)))


def _coarse_newton(space, start, rhs, settings, what):
    """Solve F_0(start + c) = rhs for c by coarse Newton from start (module docstring).

    Callers run it under np.errstate(over="ignore", invalid="ignore").
    """
    w = np.asarray(start, dtype=float).copy()
    for iterations in range(settings.max_inner + 1):  # the last one returns or raises
        faces = _faces(space, w)
        r = csr_apply(space.P0T, space.kernels.residual_of(faces)) - rhs
        rnorm = np.linalg.norm(r)
        if not np.isfinite(rnorm):
            raise CoarseSolveError(f"{what}: " + (
                "coarse Newton's residual is finite, but its norm overflowed"
                if np.isfinite(r).all() else "coarse Newton produced non-finite values"))
        if rnorm > settings.inner_tol and iterations == settings.max_inner:
            raise CoarseSolveError(
                f"{what}: coarse Newton did not reach {settings.inner_tol} "
                f"within {settings.max_inner} iterations (residual {rnorm:.3e})"
            )
        J = _galerkin_jacobian(space, space.kernels.values_of(faces))
        J0 = J if iterations == 0 else J0
        *factors, info = dgetrf(J)
        if info > 0:
            raise CoarseSolveError(f"{what}: singular coarse Jacobian")
        if rnorm <= settings.inner_tol:
            return CoarseSolveResult(w - start, J0, tuple(factors), iterations)
        w -= dgetrs(*factors, r)[0]


def fas_correction(space, u, settings):
    """Full-approximation-scheme coarse correction C_0(u)."""
    u0 = csr_apply(space.layout.R0, np.asarray(u, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = coarse_residual(space, u0) - csr_apply(space.P0T, space.problem.residual(u))
        return _coarse_newton(space, u0, rhs, settings, "FAS coarse correction")


def fas_correction_jacobian_action(result, space, J_u, v):
    """Apply dC_0/du = -R_0 + J^_0^{-1}(J_0 R_0 - P_0^T J(u)) to v, J_u = J(u)."""
    R0v = csr_apply(space.layout.R0, v)
    w = result.J0 @ R0v - csr_apply(space.P0T, csr_apply(J_u, v))
    return -R0v + dgetrs(*result.J0_hat_lu, w)[0]


def aspin_coarse_setup(space, settings):
    """Solve F_0(u_0*) = 0 once, from zero; u_0* is the result's correction."""
    zero = np.zeros(space.layout.n_subdomains)
    with np.errstate(over="ignore", invalid="ignore"):
        return _coarse_newton(space, zero, zero, settings, "coarse base solve")


def aspin_coarse_correction(space, u, base, settings):
    """F_0(C_0^A + u_0*) = -P_0^T F(u), from base = aspin_coarse_setup(...)."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = -csr_apply(space.P0T, space.problem.residual(np.asarray(u, dtype=float)))
        return _coarse_newton(space, base.correction, rhs, settings,
                              "AS coarse correction")


def aspin_coarse_jacobian_action(result, space, J_u, v):
    """Apply dC_0^A/du = -J^_0^{-1} P_0^T J(u) to v, J_u the fine J(u)."""
    return -dgetrs(*result.J0_hat_lu, csr_apply(space.P0T, csr_apply(J_u, v)))[0]

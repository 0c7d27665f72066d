"""The four preconditioned nonlinear functions and their Jacobian actions.

All four systems recast the original problem F(u) = 0 as a fixed-point
correction equation built from subdomain solves:

    RASPEN1:  sum_i P~_i C_i(u) = 0                 (restricted gluing)
    ASPIN1:   sum_i P_i C_i(u) = 0                  (additive gluing)
    RASPEN2:  P_0 C_0(u) + sum_i P~_i C_i(w) = 0,   w = u + P_0 C_0(u)
    ASPIN2:   P_0 C_0^A(u) + sum_i P_i C_i(u) = 0

where C_i are the local corrections, C_0 the full-approximation-scheme
coarse correction (applied multiplicatively inside RASPEN2) and C_0^A the
additive coarse correction around the precomputed coarse solution u_0*.
Each system also applies its derivative matrix-free: RASPEN kinds always
differentiate exactly, reusing the factorizations the corrections already
produced; ASPIN kinds default to the cheaper inexact derivative that
freezes all local Jacobians at the current iterate u (one fresh global
Jacobian per outer iteration), with the exact variant available as
jacobian_mode="exact".

A residual evaluation caches everything the subsequent Jacobian actions
need; actions verify they are applied at the cached state and raise
StaleCacheError otherwise.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .coarse import (
    aspin_coarse_correction,
    aspin_coarse_jacobian_action,
    aspin_coarse_setup,
    fas_correction,
    fas_correction_jacobian_action,
)
from .decomposition import prolong, restricted_prolong
from .local_solver import (
    SolverSettings,
    StaleCacheError,
    local_correction_jacobian_action,
    sweep_locals,
)

__all__ = ["KINDS", "PreconditionedSystem"]

KINDS = ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2")


@dataclass
class _EvalCache:
    """Everything produced by one residual evaluation at state u."""

    u: np.ndarray
    residual: np.ndarray
    locals_: list
    ls_in_max: int
    ls_in_min: int
    coarse: object = None
    w: np.ndarray = None           # RASPEN2: u + P_0 C_0(u)
    J_u: object = None             # fine Jacobian at u, assembled on demand
    inexact_lus: list = field(default=None, repr=False)


class PreconditionedSystem:
    """One preconditioned nonlinear function bound to a problem and layout.

    kind selects the function; jacobian_mode selects the derivative
    ("exact" for all kinds, "inexact" only for the ASPIN kinds, which it is
    the default for).  Jacobian actions are valid only at the state of the
    most recent residual evaluation.
    """

    def __init__(self, kind, problem, layout, settings=None, jacobian_mode=None):
        kind = str(kind).upper()
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.problem = problem
        self.layout = layout
        if problem.dof_count != layout.n_cells:
            raise ValueError("problem and layout dimensions disagree")
        self.settings = settings if settings is not None else SolverSettings()
        if jacobian_mode is None:
            jacobian_mode = "inexact" if kind.startswith("ASPIN") else "exact"
        jacobian_mode = str(jacobian_mode).lower()
        if jacobian_mode not in ("exact", "inexact"):
            raise ValueError("jacobian_mode must be 'exact' or 'inexact'")
        if jacobian_mode == "inexact" and not kind.startswith("ASPIN"):
            raise ValueError(f"{kind} has no inexact Jacobian variant")
        self.jacobian_mode = jacobian_mode
        self._u0_star = None
        self._cache = None

    @property
    def two_level(self):
        return self.kind in ("RASPEN2", "ASPIN2")

    @property
    def restricted(self):
        return self.kind.startswith("RASPEN")

    @property
    def u0_star(self):
        """Coarse base solution for ASPIN2, computed once per system."""
        if self._u0_star is None:
            self._u0_star = aspin_coarse_setup(
                self.problem, self.layout, self.settings
            )
        return self._u0_star

    @property
    def last_counts(self):
        """(ls_in_max, ls_in_min) of the most recent residual evaluation."""
        if self._cache is None:
            raise StaleCacheError("no residual evaluation cached")
        return self._cache.ls_in_max, self._cache.ls_in_min

    def _glue(self, results, w=None):
        """Assemble sum_i P~_i C_i (restricted) or sum_i P_i C_i (additive)."""
        extend = restricted_prolong if self.restricted else prolong
        acc = np.zeros(self.layout.n_cells)
        for res in results:
            acc += extend(self.layout, res.subdomain, res.correction)
        return acc

    def residual(self, u):
        """Evaluate the preconditioned function, caching all intermediates."""
        u = np.asarray(u, dtype=float).copy()
        if self.kind in ("RASPEN1", "ASPIN1"):
            results, mx, mn = sweep_locals(self.problem, self.layout, u, self.settings)
            cache = _EvalCache(u, self._glue(results), results, mx, mn)
        elif self.kind == "RASPEN2":
            c0 = fas_correction(self.problem, self.layout, u, self.settings)
            pc0 = self.layout.P0 @ c0.correction
            w = u + pc0
            results, mx, mn = sweep_locals(self.problem, self.layout, w, self.settings)
            cache = _EvalCache(
                u, pc0 + self._glue(results), results,
                max(mx, c0.inner_iterations), mn, coarse=c0, w=w,
            )
        else:  # ASPIN2
            c0 = aspin_coarse_correction(
                self.problem, self.layout, u, self.u0_star, self.settings
            )
            results, mx, mn = sweep_locals(self.problem, self.layout, u, self.settings)
            cache = _EvalCache(
                u, self.layout.P0 @ c0.correction + self._glue(results), results,
                max(mx, c0.inner_iterations), mn, coarse=c0,
            )
        self._cache = cache
        return cache.residual.copy()

    def _require_cache(self, u):
        if self._cache is None:
            raise StaleCacheError("jacobian_action before any residual evaluation")
        if not np.array_equal(u, self._cache.u):
            raise StaleCacheError(
                "jacobian_action at a state other than the last residual evaluation"
            )
        return self._cache

    def _fine_jacobian(self, cache):
        if cache.J_u is None:
            cache.J_u = self.problem.jacobian(cache.u).tocsr()
        return cache.J_u

    def _inexact_factors(self, cache):
        """LU factors of R_i J(u) P_i, built once per outer iterate."""
        if cache.inexact_lus is None:
            J = self._fine_jacobian(cache)
            lus = []
            for sub in self.layout.subdomains:
                A = J[sub.overlap][:, sub.overlap].tocsc()
                lus.append(spla.splu(A))
            cache.inexact_lus = lus
        return cache.inexact_lus

    def _exact_local_sum(self, cache, v, at_state):
        extend = restricted_prolong if self.restricted else prolong
        acc = np.zeros(self.layout.n_cells)
        for res in cache.locals_:
            dv = local_correction_jacobian_action(res, v, at_state)
            acc += extend(self.layout, res.subdomain, dv)
        return acc

    def _inexact_local_sum(self, cache, Jv):
        acc = np.zeros(self.layout.n_cells)
        for sub, lu in zip(self.layout.subdomains, self._inexact_factors(cache)):
            acc[sub.overlap] -= lu.solve(Jv[sub.overlap])
        return acc

    def jacobian_action(self, u, v):
        """Apply the derivative of the preconditioned function at u to v."""
        cache = self._require_cache(u)
        v = np.asarray(v, dtype=float)

        if self.kind in ("RASPEN1", "ASPIN1"):
            if self.jacobian_mode == "exact":
                return self._exact_local_sum(cache, v, cache.u)
            Jv = self._fine_jacobian(cache) @ v
            return self._inexact_local_sum(cache, Jv)

        if self.kind == "RASPEN2":
            t = fas_correction_jacobian_action(
                cache.coarse, self.problem, self.layout, cache.u, v,
                J_u=self._fine_jacobian(cache),
            )
            pt = self.layout.P0 @ t
            return pt + self._exact_local_sum(cache, v + pt, cache.w)

        # ASPIN2
        t = aspin_coarse_jacobian_action(
            cache.coarse, self.problem, self.layout, cache.u, v,
            J_u=self._fine_jacobian(cache),
        )
        pt = self.layout.P0 @ t
        if self.jacobian_mode == "exact":
            return pt + self._exact_local_sum(cache, v, cache.u)
        Jv = self._fine_jacobian(cache) @ v
        return pt + self._inexact_local_sum(cache, Jv)

    def fixed_point_step(self, u):
        """One sweep of the underlying fixed-point iteration: u + residual(u)."""
        u = np.asarray(u, dtype=float)
        return u + self.residual(u)

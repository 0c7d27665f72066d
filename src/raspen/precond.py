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
Each system also applies its derivative matrix-free, by one formula for
all four kinds: the coarse derivative (two-level kinds), then every local
derivative -A_ii^{-1} R_i J glued like the corrections, applied to v, or
to v plus the prolonged coarse action inside RASPEN2.  The local blocks
are taken at each solved local state (exact mode, always used by the
RASPEN kinds) or all at the one global Jacobian J(u) (inexact mode, the
ASPIN default; the exact variant is jacobian_mode="exact").

A residual evaluation caches everything the subsequent Jacobian actions
need; the local blocks are built and factored at the first action, so an
evaluation that no action follows factors nothing.  Actions verify they
are applied at the cached state and raise StaleCacheError otherwise.
Every local block, in the inner solves and the actions alike, is gathered
at the block positions of one block_positions call, made when the system
is built; the fine Jacobian J(u) the inexact blocks and the coarse actions
read is assembled at most once per evaluation.
"""

from dataclasses import dataclass

import numpy as np

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
    block_positions,
    local_correction_jacobian_action,
    local_jacobian,
    solved_jacobian,
    sweep_locals,
)

__all__ = ["KINDS", "PreconditionedSystem"]

KINDS = ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2")


@dataclass
class _EvalCache:
    """Everything produced by one residual evaluation at state u."""

    u: np.ndarray
    locals_: list
    ls_in_max: int
    ls_in_min: int
    coarse: object = None
    J_u: object = None             # fine Jacobian at u, assembled on demand
    blocks: list = None            # LocalJacobians, built at the first action


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
        self._positions = block_positions(problem, layout)
        self._u0_star = None
        self._cache = None

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

    def _glue(self, subdomain_vectors):
        """Assemble sum_i P~_i x_i (restricted) or sum_i P_i x_i (additive)."""
        extend = restricted_prolong if self.restricted else prolong
        acc = np.zeros(self.layout.n_cells)
        for i, x in subdomain_vectors:
            acc += extend(self.layout, i, x)
        return acc

    def residual(self, u):
        """Evaluate the preconditioned function, caching all intermediates."""
        u = np.asarray(u, dtype=float).copy()
        coarse, pc0, local_state = None, 0.0, u
        if self.kind == "RASPEN2":
            coarse = fas_correction(self.problem, self.layout, u, self.settings)
            pc0 = self.layout.P0 @ coarse.correction
            local_state = u + pc0
        elif self.kind == "ASPIN2":
            coarse = aspin_coarse_correction(
                self.problem, self.layout, u, self.u0_star, self.settings
            )
            pc0 = self.layout.P0 @ coarse.correction
        results, mx, mn = sweep_locals(self.problem, self._positions,
                                       local_state, self.settings)
        if coarse is not None:
            mx = max(mx, coarse.inner_iterations)
        glued = self._glue((res.subdomain, res.correction) for res in results)
        self._cache = _EvalCache(u, results, mx, mn, coarse)
        return pc0 + glued

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
            cache.J_u = self.problem.jacobian(cache.u)
        return cache.J_u

    def _blocks(self, cache):
        """The local blocks of this evaluation, built once at the first action."""
        if cache.blocks is None:
            if self.jacobian_mode == "exact":
                cache.blocks = [solved_jacobian(self.problem, pos, res)
                                for pos, res in zip(self._positions,
                                                    cache.locals_)]
            else:
                J = self._fine_jacobian(cache)
                cache.blocks = [local_jacobian(J, pos, cache.u)
                                for pos in self._positions]
        return cache.blocks

    def jacobian_action(self, u, v):
        """Apply the derivative of the preconditioned function at u to v."""
        cache = self._require_cache(u)
        v = np.asarray(v, dtype=float)
        pt = 0.0
        if cache.coarse is not None:
            coarse_action = (fas_correction_jacobian_action
                             if self.kind == "RASPEN2"
                             else aspin_coarse_jacobian_action)
            pt = self.layout.P0 @ coarse_action(
                cache.coarse, self.layout, cache.u, self._fine_jacobian(cache), v)
        x = v + pt if self.kind == "RASPEN2" else v
        # no per-block state check: _require_cache checked the state once
        # and the blocks belong to that cache
        return pt + self._glue(
            (block.subdomain, local_correction_jacobian_action(block, x))
            for block in self._blocks(cache)
        )

    def fixed_point_step(self, u):
        """One sweep of the underlying fixed-point iteration: u + residual(u)."""
        u = np.asarray(u, dtype=float)
        return u + self.residual(u)

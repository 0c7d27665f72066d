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
The local corrections are concatenated in the layout's stacked overlap
space and glued in one call: by P~ (restricted_prolong) for the RASPEN
kinds, by P (prolong) for the ASPIN kinds.
Each system also applies its derivative matrix-free, by one formula for
all four kinds: the coarse derivative (two-level kinds), then every local
derivative -A_ii^{-1} R_i J glued like the corrections, applied to v, or
to v plus the prolonged coarse action inside RASPEN2.  The local
derivatives of an evaluation are one LocalJacobian over all subdomains,
so an action applies them with one CSR product and one band
back-substitution, and glues the stacked result directly.  The blocks
are taken at each solved local state (exact mode, always used by the
RASPEN kinds) or all at u (inexact mode, the ASPIN default; the exact
variant is jacobian_mode="exact"), by one local_jacobian call either way.

A residual evaluation caches everything the subsequent Jacobian actions
need, in place of the previous evaluation's cache; the stacked local
blocks are built and factored, in one band LU, at the first action, so an
evaluation that no action follows factors nothing.  Actions verify they
are applied at the cached state and raise StaleCacheError otherwise.
The local solves of an evaluation are one sweep: all subdomains take
their inner Newton steps together, and its one stacked result, which
carries the sweep's stack and its local vector at the solved states, is
glued as it is and alone gives the exact blocks.  The sweep and the
blocks use the PositionStack that block_positions builds, for all
subdomains in one pass, when the system is built: it reads the
problem's pattern, evaluating no Jacobian, and holds the stacked row
kernels and band geometry that every evaluation shares.  The
inner solves and the local blocks evaluate only those row kernels, on
all overlap rows at once, so a one-level evaluation and its actions, of
either mode, assemble no global residual or Jacobian, and a sweep costs
O(sum_i m_i).  The fine Jacobian J(u), which only the coarse actions
read, is assembled at most once per evaluation; the coarse solves
evaluate the global residual and Jacobian.
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
    sweep_locals,
)

__all__ = ["KINDS", "PreconditionedSystem"]

KINDS = ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2")


@dataclass
class _EvalCache:
    """Everything produced by one residual evaluation at state u."""

    u: np.ndarray
    locals_: object                # the sweep's one LocalSolveResult
    ls_in_max: int
    ls_in_min: int
    coarse: object = None
    J_u: object = None             # fine Jacobian at u, for the coarse actions
    block: object = None           # stacked LocalJacobian, built at the first action


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

    def _glue(self, stacked):
        """sum_i P~_i x_i (restricted) or sum_i P_i x_i (additive) in one call."""
        glue = restricted_prolong if self.restricted else prolong
        return glue(self.layout, stacked)

    def residual(self, u):
        """Evaluate the preconditioned function, caching all intermediates."""
        # frees the previous state's band before the sweep makes its own
        self._cache = None
        u = self.problem._state(u).copy()
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
        result, mx, mn = sweep_locals(self._positions, local_state, self.settings)
        if coarse is not None:
            mx = max(mx, coarse.inner_iterations)
        glued = self._glue(result.correction)
        self._cache = _EvalCache(u, result, mx, mn, coarse)
        return pc0 + glued

    def _require_cache(self, u):
        if self._cache is None:
            raise StaleCacheError("jacobian_action before any residual evaluation")
        if not np.array_equal(u, self._cache.u):
            raise StaleCacheError(
                "jacobian_action at a state other than the last residual evaluation"
            )
        return self._cache

    def _block(self, cache):
        """The stacked local block of this evaluation, built at the first action."""
        if cache.block is None:
            X = (cache.locals_.X if self.jacobian_mode == "exact"
                 else cache.u[self._positions.cells])
            cache.block = local_jacobian(self._positions, X)
        return cache.block

    def jacobian_action(self, u, v):
        """Apply the derivative of the preconditioned function at u to v."""
        cache = self._require_cache(self.problem._state(u))
        v = self.problem._state(v)
        pt = 0.0
        if cache.coarse is not None:
            if cache.J_u is None:
                cache.J_u = self.problem.jacobian(cache.u)
            coarse_action = (fas_correction_jacobian_action
                             if self.kind == "RASPEN2"
                             else aspin_coarse_jacobian_action)
            pt = self.layout.P0 @ coarse_action(cache.coarse, self.layout,
                                                cache.J_u, v)
        x = v + pt if self.kind == "RASPEN2" else v
        # no state check in the coarse or local action: _require_cache
        # checked the state once, and both belong to that cache
        return pt + self._glue(
            local_correction_jacobian_action(self._block(cache), x))

    def fixed_point_step(self, u):
        """One sweep of the underlying fixed-point iteration: u + residual(u)."""
        u = np.asarray(u, dtype=float)
        return u + self.residual(u)

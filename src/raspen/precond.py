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
derivatives are taken at each solved local state (exact mode, always used
by the RASPEN kinds) or all at u (inexact mode, the ASPIN default; the
exact variant is jacobian_mode="exact").  The stack, the sweep and the two
forms of the local derivatives are described in local_solver.

residual(u) returns an Evaluation, a frozen handle holding a read-only
copy of u, the value F~(u), the sweep's result and the coarse result,
with their Newton counts, which the drivers' ledger combines into cost;
jacobian_action takes that handle, so an action is always applied at the
state its evaluation solved at.  The evaluation's LocalJacobian is built
by one local_jacobian call at the first action and kept, so an evaluation
that no action follows factors nothing.  A system builds its
PositionStack once, and a two-level system its CoarseSpace beside it; a
one-level evaluation and its actions evaluate only the stack's row
kernels, no global residual or Jacobian.  The fine Jacobian J(u), which only the coarse actions read, is
assembled at most once per evaluation.  The coarse solves evaluate the
global residual and Jacobian; they and the coarse actions restrict by
P_0^T, take J_0 by the Galerkin map and solve by dgetrs.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coarse import (
    aspin_coarse_correction,
    aspin_coarse_jacobian_action,
    aspin_coarse_setup,
    coarse_space,
    fas_correction,
    fas_correction_jacobian_action,
)
from .decomposition import prolong, restricted_prolong
from .local_solver import (
    SolverSettings,
    block_positions,
    local_correction_jacobian_action,
    local_jacobian,
    sweep_locals,
)

__all__ = ["KINDS", "Evaluation", "PreconditionedSystem"]

KINDS = ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2")


@dataclass(frozen=True, eq=False)
class Evaluation:
    """One evaluation F~(u) of a PreconditionedSystem, with its derivative data.

    u is a read-only copy of the state, value the function's value there,
    locals_ the sweep's LocalSolveResult, with each subdomain's inner
    Newton count, and coarse the coarse result (None for the one-level
    kinds).  The stacked LocalJacobian (block) and the fine J(u) (J_u,
    which only the coarse actions read) are built at their first use and
    kept.
    """

    u: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)
    locals_: object = field(repr=False)
    coarse: object = field(repr=False)
    exact: bool  # blocks at the solved local states, else all at u

    @property
    def coarse_count(self):
        """The coarse solve's Newton count; 0 for the one-level kinds."""
        return self.coarse.inner_iterations if self.coarse is not None else 0

    @cached_property
    def block(self):
        stack = self.locals_.positions
        return local_jacobian(stack, self.locals_.X if self.exact
                              else stack.gather(self.u))

    @cached_property
    def J_u(self):
        return self.locals_.positions.problem.jacobian(self.u)


class PreconditionedSystem:
    """One preconditioned nonlinear function bound to a problem and layout.

    kind selects the function; jacobian_mode selects the derivative
    ("exact" for all kinds, "inexact" only for the ASPIN kinds, which it is
    the default for).  residual(u) returns an Evaluation, and
    jacobian_action applies the derivative at the state of the evaluation
    it is given.
    """

    def __init__(self, kind, problem, layout, settings=None, jacobian_mode=None):
        kind = str(kind).upper()
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.problem = problem
        self.layout = layout
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
        self._coarse = coarse_space(problem, layout) if kind.endswith("2") else None

    @property
    def restricted(self):
        return self.kind.startswith("RASPEN")

    @cached_property
    def coarse_base(self):
        """ASPIN2's coarse base solve, once per system: u_0* and its factors."""
        return aspin_coarse_setup(self._coarse, self.settings)

    def _glue(self, stacked):
        """sum_i P~_i x_i (restricted) or sum_i P_i x_i (additive) in one call."""
        glue = restricted_prolong if self.restricted else prolong
        return glue(self.layout, stacked)

    def residual(self, u):
        """Evaluate the preconditioned function at u, as an Evaluation."""
        u = self.problem._state(u).copy()
        u.flags.writeable = False
        coarse, pc0, local_state = None, 0.0, u
        if self.kind == "RASPEN2":
            coarse = fas_correction(self._coarse, u, self.settings)
            pc0 = self.layout.P0 @ coarse.correction
            local_state = u + pc0
        elif self.kind == "ASPIN2":
            coarse = aspin_coarse_correction(self._coarse, u, self.coarse_base,
                                             self.settings)
            pc0 = self.layout.P0 @ coarse.correction
        result = sweep_locals(self._positions, local_state, self.settings)
        return Evaluation(u, pc0 + self._glue(result.correction), result,
                          coarse, self.jacobian_mode == "exact")

    def jacobian_action(self, evaluation, v):
        """Apply the derivative of the preconditioned function at evaluation.u to v."""
        v = self.problem._state(v)
        pt = 0.0
        if evaluation.coarse is not None:
            coarse_action = (fas_correction_jacobian_action
                             if self.kind == "RASPEN2"
                             else aspin_coarse_jacobian_action)
            pt = self.layout.P0 @ coarse_action(evaluation.coarse, self._coarse,
                                                evaluation.J_u, v)
        x = v + pt if self.kind == "RASPEN2" else v
        return pt + self._glue(
            local_correction_jacobian_action(evaluation.block, x))

"""
Continuation in the nonlinearity strength
=========================================

The flow model's beta parameter dials the nonlinearity from an affine
Darcy problem (beta = 0) up to a strongly nonlinear one.  Solving a
ladder of increasing beta values, each warm-started from the previous
solution, costs little per stage; the final stage beats a cold start.
"""

import numpy as np

from raspen.decomposition import build_1d_layout
from raspen.newton import outer_newton
from raspen.precond import PreconditionedSystem
from raspen.problems import smooth_forchheimer


def make_system(beta):
    problem = smooth_forchheimer(60, beta=beta)
    return PreconditionedSystem("RASPEN1", problem, build_1d_layout(60, 6, 2))


# the ladder: affine warm-up, then progressively harder stages, each
# started from the solution of the stage before
betas = (0.0, 0.1, 0.2, 0.5, 1.0)
runs, u = [], np.zeros(60)
for beta in betas:
    runs.append(outer_newton(make_system(beta), u))
    u = runs[-1].u
print("warm-started ladder:")
for beta, run in zip(betas, runs):
    print(f"  beta={beta:<4g} outer={run.outer_iterations} "
          f"LS={run.ledger.LS_total}")

# the same final problem from a cold start, for comparison
cold = outer_newton(make_system(1.0), np.zeros(60))
print(f"cold start at beta=1: outer={cold.outer_iterations} "
      f"LS={cold.ledger.LS_total}")

# per stage the warm start keeps Newton in its quadratic regime: the
# affine stage takes a single iteration and each later stage only a few
assert all(run.converged for run in runs) and cold.converged
assert runs[-1].outer_iterations < cold.outer_iterations

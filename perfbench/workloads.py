"""The benchmark's workloads: inputs, one timed pass, and expected outcomes.

Every workload drives raspen through its public API only.  Library
functions are looked up through their modules at call time (for example
`newton.outer_newton`), so the traced run sees the calls the recorder wraps.

`setup(seed)` builds what a user builds before solving and is timed as
setup_s; `run_pass(state)` executes the workload's solver runs once and
yields one `Run` per run, so that set-up can be timed between runs.  Only the rough sweep reads the seed: it is the
seed of the random permeability field.
"""

import dataclasses
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from raspen import decomposition, harness, newton, precond, problems
from raspen.coarse import CoarseSolveError
from raspen.local_solver import LocalSolveError

# Output directories of the harness sweeps live (briefly) under here.
OUT_DIR = Path(__file__).resolve().parent / "out"

# Relative l1 error against the reference solution that every converged
# run must reach; outer_tol = 1e-8 on the residual lands runs at 1e-7 or
# better on these problems.
ERROR_BOUND = 1e-6
# The additive fixed point stalls: within its step budget its error must
# never get below this floor (criterion 4 of the acceptance suite).
AS_FLOOR = 1e-2
# Fixed-point steps given to ASPIN1 on fp-sweep; it never converges, and
# each of its steps costs about as much as 5 RASPEN1 steps.
AS_STEP_BUDGET = 20
# A reference solution must solve F(u) = 0 to this residual norm.
REFERENCE_RESIDUAL = 1e-10
SWEEP_BETAS = (1.0, 10.0, 100.0)
SWEEP_METHODS = "newton,raspen1,aspin1,raspen2,aspin2"


@dataclass
class Run:
    """Outcome of one solver run inside a pass."""

    label: str
    kind: str              # RASPEN1/ASPIN1/RASPEN2/ASPIN2, or "direct"
    converged: bool
    expected: object       # expected convergence flag; None: seed-dependent
    outer: int
    ls: int
    error: float           # final relative l1 error against the reference
    seconds: float
    floor: float = np.inf  # lowest error seen (budgeted fixed point only)

    @property
    def preconditioned(self):
        return self.kind != "direct"


def _checked_reference(problem):
    u_ref = newton.reference_solution(problem)
    rnorm = np.linalg.norm(problem.residual(u_ref))
    if not rnorm <= REFERENCE_RESIDUAL:
        raise RuntimeError(f"reference solution has residual norm {rnorm:.3e}")
    return u_ref


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def newton_pass(state):
    """The four preconditioned outer Newton runs plus direct Newton."""
    problem, layout, u0, u_ref = state
    for kind in precond.KINDS:
        system = precond.PreconditionedSystem(kind, problem, layout)
        run, dt = _timed(newton.outer_newton, system, u0, u_ref=u_ref)
        yield Run(kind, kind, run.converged, True, run.outer_iterations,
                  run.ledger.LS_total, newton.relative_l1_error(run.u, u_ref), dt)
    run, dt = _timed(newton.direct_newton, problem, u0, u_ref=u_ref)
    yield Run("direct", "direct", run.converged, True, run.outer_iterations,
              run.ledger.LS_total, newton.relative_l1_error(run.u, u_ref), dt)


# ------------------------------------------------------------ fp-sweep

def fp_setup(seed):
    problem = problems.smooth_forchheimer(100, 1.0, L=1.0)
    layout = decomposition.build_1d_layout(100, 8, 3)
    x = (np.arange(100) + 0.5) / 100.0
    u0 = 0.5 * np.sin(40 * np.pi * x)
    return problem, layout, u0, _checked_reference(problem)


def fp_pass(state):
    problem, layout, u0, u_ref = state
    for kind, budget, expected in (("RASPEN1", None, True), ("RASPEN2", None, True),
                                   ("ASPIN1", AS_STEP_BUDGET, False)):
        system = precond.PreconditionedSystem(kind, problem, layout)
        run, dt = _timed(newton.fixed_point_solve, system, u0,
                         max_steps=budget, u_ref=u_ref)
        errors = run.ledger.error
        yield Run(kind, kind, run.converged, expected, run.outer_iterations,
                  run.ledger.LS_total, newton.relative_l1_error(run.u, u_ref),
                  dt, floor=min(errors) if errors else np.inf)


# ----------------------------------------------------------- newton-1d/2d

def newton1d_setup(seed):
    problem = problems.smooth_forchheimer(800, 1.0)
    layout = decomposition.build_1d_layout(800, 40, 3)
    u0 = problem.initial_state()
    return problem, layout, u0, _checked_reference(problem)


def newton2d_setup(seed):
    problem = problems.DiffusionProblem2D(64, 64)
    layout = decomposition.build_2d_layout(
        64, 64, 8, 1, dirichlet_value=problem.dirichlet_value)
    u0 = problem.initial_state()
    return problem, layout, u0, _checked_reference(problem)


# ------------------------------------------------- harness (raspen run) sweeps

def sweep_config(seed, beta, field):
    """One `raspen run` config of the harness sweeps."""
    raw = {"problem": "forchheimer1d", "mesh": "240", "subdomains": "8",
           "overlap": "2", "beta": f"{beta:g}", "methods": SWEEP_METHODS}
    if field == "random":
        raw.update(field="random", seed=str(seed))
    return harness.config_from_dict(raw)


def _sweep_setup(seed, field):
    # Users pay for the reference solves on every `raspen run`, so set-up
    # is config building only; the references belong to the pass.  On the
    # rough field whether a run converges depends on the seed.
    configs = [(beta, sweep_config(seed, beta, field)) for beta in SWEEP_BETAS]
    return configs, (True if field == "smooth" else None)


def sweep_pass(state):
    """Run each config through harness.run_experiment, as `raspen run` does.

    An aborted call (the harness raises before any row is written) counts
    all of its methods as failed runs.
    """
    configs, expected = state
    methods = SWEEP_METHODS.split(",")
    OUT_DIR.mkdir(exist_ok=True)
    for beta, config in configs:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as outdir:
            config = dataclasses.replace(config, outdir=outdir)
            t0 = time.perf_counter()
            try:
                rows = harness.run_experiment(config)
            except (LocalSolveError, CoarseSolveError):
                rows = None
                share = (time.perf_counter() - t0) / len(methods)
            else:
                written = (Path(outdir) / "results.csv").read_text().splitlines()
                if len(written) != len(rows) + 1:
                    raise RuntimeError(f"results.csv has {len(written)} lines "
                                       f"for {len(rows)} rows")
        if rows is None:
            for m in methods:
                yield Run(f"{m} beta={beta:g} (aborted)",
                          "direct" if m == "newton" else m.upper(), False,
                          expected, 0, 0, np.inf, share)
            continue
        for r in rows:
            kind = "direct" if r.method == "newton" else r.method.upper()
            error = r.ledger.error[-1] if r.ledger is not None else np.inf
            yield Run(f"{r.method} beta={beta:g}", kind, r.converged, expected,
                      r.outer_iters, r.LS_total, error, r.wall_time)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    # shipped published table and the (I, k, beta) cell the pass reproduces
    reference: tuple = ()


# Each workload makes one layer do most of its work (see README.md).
WORKLOADS = {w.name: w for w in (
    # local Newton solves and global Jacobian assembly; no GMRES at all
    Workload("fp-sweep", fp_setup, fp_pass),
    # 40 small subdomains: per-call overhead of GMRES and local actions
    Workload("newton-1d", newton1d_setup, newton_pass,
             ("smooth_overlap_sweep.csv", 40, 3, 1.0)),
    # M = 4096: length-M work (orthogonalization, coupling matvecs, assembly)
    Workload("newton-2d", newton2d_setup, newton_pass,
             ("diffusion2d_scalability.csv", 8, 1, 0.0)),
    # the `raspen run` path: config, reference solves, CSV/JSON writes
    Workload("harness-sweep", lambda seed: _sweep_setup(seed, "smooth"), sweep_pass),
    # the same on the seeded rough field, where runs fail depending on the
    # seed; not in BENCHMARK.json, whose workloads must not fail
    Workload("rough-sweep", lambda seed: _sweep_setup(seed, "random"), sweep_pass),
)}

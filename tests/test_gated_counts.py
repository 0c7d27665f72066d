"""The exact outer/LS counts of the benchmark's four gated workloads.

The benchmark (perfbench/run.py) gates these counts on every change, and
the acceptance tests allow one outer iteration and 15% of LS against the
published tables.  Here each workload's set-up and one pass run as the
benchmark runs them, from perfbench/workloads.py, and the totals over the
preconditioned runs must be exact.  On the outer Newton workloads each
kind's GMRES iterations per outer iteration are pinned too, so that shifts
which cancel in the totals still show.  The 2D scale probe, which no
gated workload runs, has its GMRES iterations per outer step pinned the
same way, and on fp-sweep each kind's total inner iterations are pinned.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

from raspen import decomposition, newton, precond, problems  # noqa: E402

GATED = {
    "fp-sweep": (494, 1615),
    "newton-1d": (17, 883),
    "newton-2d": (14, 602),
    "harness-sweep": (72, 1614),
}


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_counts_are_exact(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    workload = workloads.WORKLOADS[name]
    runs = [r for r in workload.run_pass(workload.setup(1)) if r.preconditioned]
    assert all(r.converged is r.expected for r in runs if r.expected is not None)
    assert (sum(r.outer for r in runs), sum(r.ls for r in runs)) == GATED[name]


# each fp-sweep kind's inner Newton iterations, summed over every sweep's
# subdomains: LS_total keeps only each sweep's slowest subdomain, so a shift
# among the others would not show there
FP_INNER_ITERATIONS = {"RASPEN1": 8044, "RASPEN2": 815, "ASPIN1": 2595}


def test_fp_sweep_inner_iterations_are_exact():
    problem, layout, u0, u_ref = workloads.WORKLOADS["fp-sweep"].setup(1)
    got = {}
    for kind, budget in (("RASPEN1", None), ("RASPEN2", None),
                         ("ASPIN1", workloads.AS_STEP_BUDGET)):
        system = precond.PreconditionedSystem(kind, problem, layout)
        run = newton.fixed_point_solve(system, u0, max_steps=budget, u_ref=u_ref)
        got[kind] = sum(map(sum, run.ledger.inner_counts))
    assert got == FP_INNER_ITERATIONS


# ledger.ls_G of each kind's outer_newton run: one GMRES solve per outer
# iteration, and 0 on the terminal evaluation
GMRES_PER_OUTER = {
    "newton-1d": {"RASPEN1": [72, 72, 72, 74, 0], "ASPIN1": [73, 73, 73, 73, 73, 0],
                  "RASPEN2": [7, 13, 13, 0], "ASPIN2": [23, 18, 17, 18, 18, 0]},
    "newton-2d": {"RASPEN1": [61, 62, 62, 0], "ASPIN1": [66, 65, 66, 67, 0],
                  "RASPEN2": [14, 16, 16, 0], "ASPIN2": [20, 20, 19, 20, 0]},
}


@pytest.mark.parametrize("name", GMRES_PER_OUTER)
def test_gmres_iterations_per_outer_step_are_exact(name):
    problem, layout, u0, u_ref = workloads.WORKLOADS[name].setup(1)
    got = {}
    for kind in precond.KINDS:
        system = precond.PreconditionedSystem(kind, problem, layout)
        got[kind] = newton.outer_newton(system, u0, u_ref=u_ref).ledger.ls_G
    assert got == GMRES_PER_OUTER[name]


# the scale probe: a 128 x 128 grid in 16 x 16 subdomains of overlap 1, a
# band stack (h > kl + ku) of 24,964 rows, four times newton-2d's
SCALE_PROBE_GMRES_PER_OUTER = {"RASPEN2": [14, 17, 17, 0],
                               "RASPEN1": [123, 124, 124, 0]}


@pytest.mark.parametrize("kind", SCALE_PROBE_GMRES_PER_OUTER)
def test_scale_probe_gmres_iterations_per_outer_step_are_exact(kind):
    problem = problems.DiffusionProblem2D(128, 128)
    layout = decomposition.build_2d_layout(128, 128, 16, 1)
    system = precond.PreconditionedSystem(kind, problem, layout)
    stack = system._positions
    assert stack.size == 24964 and stack.halo > stack.kl + stack.ku
    run = newton.outer_newton(system, problem.initial_state())
    assert run.converged
    assert run.ledger.ls_G == SCALE_PROBE_GMRES_PER_OUTER[kind]

"""The exact outer/LS counts of the benchmark's four gated workloads.

The benchmark (perfbench/run.py) gates these counts on every change, and
the acceptance tests allow one outer iteration and 15% of LS against the
published tables.  Here each workload's set-up and one pass run as the
benchmark runs them, from perfbench/workloads.py, and the totals over the
preconditioned runs must be exact.  On the outer Newton workloads each
kind's GMRES iterations per outer iteration are pinned too, so that shifts
which cancel in the totals still show.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

from raspen import newton, precond  # noqa: E402

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

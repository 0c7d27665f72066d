"""The exact outer/LS counts of the benchmark's four gated workloads.

The benchmark (perfbench/run.py) gates these counts on every change, and
the acceptance tests allow one outer iteration and 15% of LS against the
published tables.  Here each workload's set-up and one pass run as the
benchmark runs them, from perfbench/workloads.py, and the totals over the
preconditioned runs must be exact.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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

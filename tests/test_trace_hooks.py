"""The benchmark's per-layer trace hooks still find every layer they wrap.

perfbench/tracer.py patches raspen's functions by name from outside the
package, so renaming or removing a traced function would otherwise break
only `perfbench/run.py --trace 1`, silently.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla
# harness too: installed() imports it, and the module set must not change
from raspen import (decomposition, harness, local_solver, newton,  # noqa: F401
                    precond, problems)
from raspen.decomposition import build_1d_layout

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

_PATCHED_CLASSES = (problems.ForchheimerProblem1D, problems.DiffusionProblem2D,
                    precond.PreconditionedSystem)


def _bindings():
    """Every attribute of every raspen module and traced class, plus splu."""
    owners = [m for name, m in sys.modules.items()
              if name.split(".")[0] == "raspen" and m is not None]
    owners += _PATCHED_CLASSES
    out = {(id(owner), attr): value
           for owner in owners for attr, value in vars(owner).items()}
    out["splu"] = spla.splu
    return out


@pytest.mark.parametrize("cls", _PATCHED_CLASSES[:2], ids=lambda c: c.__name__)
def test_problem_classes_define_their_own_residual_and_jacobian(cls):
    for method in ("residual", "jacobian"):
        assert method in vars(cls), (
            f"{cls.__name__}.{method} must be defined on the class itself: the "
            f"tracer patches and restores it per class, and restoring an "
            f"inherited method leaves a copy in the subclass")


def test_trace_hooks_cover_every_layer_and_restore_the_originals():
    problem = problems.smooth_forchheimer(40, 1.0)
    layout = build_1d_layout(40, 4, 2)
    before = _bindings()
    recorder = tracer.Recorder()
    with recorder.installed():
        changed = {key for key, value in _bindings().items()
                   if before.get(key) is not value}
        for kind in precond.KINDS:
            system = precond.PreconditionedSystem(kind, problem, layout)
            assert newton.outer_newton(system, problem.initial_state()).converged
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if before[key] is not value] == []
    assert {(id(precond), "prolong"), (id(precond), "restricted_prolong"),
            (id(local_solver), "sweep_locals")} <= changed

    metrics = {name: value for name, (value, _) in
               tracer.layer_metrics(recorder).items()}
    for name in ("decomposition.glue.calls", "local_solver.solve.calls",
                 "local_solver.action.calls", "local_solver.sweep.calls",
                 "coarse.correction.calls", "coarse.action.calls",
                 "coarse.setup.s", "precond.action.calls", "krylov.gmres.calls"):
        assert metrics[name] > 0, name
    # one glue per residual evaluation and per ASPIN Jacobian action: a
    # RASPEN action on this tridiagonal stack is one product of the owned
    # rows, which glues nothing and applies no local action
    assert metrics["decomposition.glue.calls"] == (
        metrics["precond.residual.calls"] + metrics["local_solver.action.calls"])
    runs = [span[tracer.RUN] for span in recorder.spans
            if span[tracer.NAME] == "newton.driver"]
    assert len(runs) == len(precond.KINDS)
    count = Counter((span[tracer.RUN], span[tracer.NAME]) for span in recorder.spans)
    for run, kind in zip(runs, precond.KINDS):
        actions = count[run, "precond.action"]
        glued = 0 if kind.startswith("RASPEN") else actions
        assert actions > 0 and count[run, "local_solver.action"] == glued, kind
        assert count[run, "decomposition.glue"] == (
            count[run, "precond.residual"] + glued), kind


def test_tracer_counts_one_build_per_layout():
    # decomposition.build.calls is 2: neither builder goes through the other
    recorder = tracer.Recorder()
    with recorder.installed():
        decomposition.build_1d_layout(40, 4, 2)
        decomposition.build_2d_layout(8, 8, 2, 1)
    assert [span[tracer.NAME] for span in recorder.spans] == [
        "decomposition.build", "decomposition.build"]

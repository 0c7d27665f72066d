"""The benchmark's per-layer trace hooks still find every layer they wrap.

perfbench/tracer.py patches raspen's functions by name from outside the
package, so renaming or removing a traced function would otherwise break
only `perfbench/run.py --trace 1`, silently.
"""

import sys
from pathlib import Path

import scipy.sparse.linalg as spla
# harness too: installed() imports it, and the module set must not change
from raspen import harness, local_solver, newton, precond, problems  # noqa: F401
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
                 "coarse.action.calls", "precond.action.calls",
                 "krylov.gmres.calls"):
        assert metrics[name] > 0, name
    # one glue per residual evaluation and per Jacobian action
    assert metrics["decomposition.glue.calls"] == (
        metrics["precond.residual.calls"] + metrics["precond.action.calls"])

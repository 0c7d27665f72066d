"""Span recorder that wraps raspen's public functions from outside the package.

`Recorder.installed()` replaces each traced function at every name a raspen
module binds it to (for example both `raspen.local_solver.sweep_locals` and
`raspen.precond.sweep_locals`), plus the problem classes' residual/jacobian
methods and `scipy.sparse.linalg.splu`, and restores the originals on exit.
Factor objects returned by `splu` are handed out behind a proxy whose
`solve` is traced too.  Nothing under src/ knows about the recorder.

A span is the list [id, parent, run, name, t0, t1, attrs].  Spans stay in
memory until `write` dumps them once; `layer_metrics` derives the per-layer
numbers from them.  A span opened with no enclosing span starts a new run
id, so every solver run, reference solve and harness call is its own run.
"""

import json
import sys
import time
import weakref
from contextlib import contextmanager

ID, PARENT, RUN, NAME, T0, T1, ATTRS = range(7)


class _TracedFactor:
    """Proxy for a SuperLU factor object that traces its `solve` calls."""

    def __init__(self, factor, recorder):
        self._factor = factor
        self.solve = recorder.wrap("scipy.lu_solve", factor.solve)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Recorder:
    """Collects spans and the factor-use counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._runs = 0
        self.factors_built = 0
        self.factors_used = 0
        self._used = weakref.WeakSet()
        self._patches = []

    def wrap(self, name, fn, describe=None):
        """Return fn wrapped in a span; describe(result, args) fills its attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                run = spans[parent][RUN]
            else:
                parent, run = -1, self._runs
                self._runs += 1
            span = [len(spans), parent, run, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                span[T1] = clock()
                stack.pop()
            if describe is not None:
                span[ATTRS] = describe(out, args)
            return out

        return traced

    # ----------------------------------------------------------- patching

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, name, describe=None):
        """Replace fn at every raspen module attribute bound to it."""
        traced = self.wrap(name, fn, describe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "raspen" and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, traced)

    def _on_local_result(self, result, _args):
        self.factors_built += 1
        return {"inner": result.inner_iterations}

    def _on_local_action(self, _out, args):
        result = args[0]
        if result not in self._used:
            self._used.add(result)
            self.factors_used += 1

    @contextmanager
    def installed(self):
        """Trace the layers while the block runs; restore everything after."""
        import scipy.sparse.linalg as spla

        from raspen import coarse, decomposition, harness, krylov
        from raspen import local_solver, newton, precond, problems

        def coarse_inner(result, _args):
            return {"inner": result.inner_iterations}

        def gmres_report(out, args):
            report = out[1]
            return {"iters": report.iterations, "n": len(args[1]),
                    "converged": report.converged}

        def harness_rows(rows, _args):
            return {"rows": len(rows),
                    "failed": sum(not r.converged for r in rows)}

        traced_splu = self.wrap("scipy.splu", spla.splu)
        try:
            for cls in (problems.ForchheimerProblem1D, problems.DiffusionProblem2D):
                for method in ("residual", "jacobian"):
                    self._patch(cls, method, self.wrap(
                        f"problems.{method}", getattr(cls, method)))
            self._patch(spla, "splu",
                        lambda *a, **k: _TracedFactor(traced_splu(*a, **k), self))
            for fn in (decomposition.build_1d_layout, decomposition.build_2d_layout):
                self._patch_function(fn, "decomposition.build")
            for fn in (decomposition.prolong, decomposition.restricted_prolong):
                self._patch_function(fn, "decomposition.glue")
            self._patch_function(local_solver.solve_local, "local_solver.solve",
                                 self._on_local_result)
            self._patch_function(local_solver.local_correction_jacobian_action,
                                 "local_solver.action", self._on_local_action)
            self._patch_function(local_solver.sweep_locals, "local_solver.sweep")
            for fn in (coarse.fas_correction, coarse.aspin_coarse_correction):
                self._patch_function(fn, "coarse.correction", coarse_inner)
            for fn in (coarse.fas_correction_jacobian_action,
                       coarse.aspin_coarse_jacobian_action):
                self._patch_function(fn, "coarse.action")
            self._patch_function(coarse.aspin_coarse_setup, "coarse.setup")
            self._patch(precond.PreconditionedSystem, "residual", self.wrap(
                "precond.residual", precond.PreconditionedSystem.residual))
            self._patch(precond.PreconditionedSystem, "jacobian_action", self.wrap(
                "precond.action", precond.PreconditionedSystem.jacobian_action))
            self._patch_function(krylov.gmres, "krylov.gmres", gmres_report)
            for fn in (newton.outer_newton, newton.fixed_point_solve):
                self._patch_function(fn, "newton.driver")
            self._patch_function(newton.reference_solution, "newton.reference")
            self._patch_function(newton.direct_newton, "newton.direct")
            self._patch_function(harness.run_experiment, "harness.run", harness_rows)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def write(self, path, **header):
        """Dump every span once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=["id", "parent", "run", "name", "t0", "t1", "attrs"],
                   spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")))


# ------------------------------------------------------------- derivation

def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    out = []
    for s in spans:
        covered, reach = 0.0, s[T0]
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, reach), min(hi, s[T1])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[T1] - s[T0]) - covered)
    return out


def gmres_orth_bytes(iterations, n):
    """Bytes modified Gram-Schmidt moves in one GMRES solve (computed, not measured).

    Iteration j projects against j+1 basis vectors; each projection is a dot
    product (reads w and V_i) and an update (reads w and V_i, writes w), so
    5 length-n float64 vectors, plus the norm (1) and normalization (2).
    """
    projections = iterations * (iterations + 1) // 2
    return 8 * n * (5 * projections + 3 * iterations)


def layer_metrics(recorder):
    """Per-layer totals of one traced pass: {metric name: (value, unit)}."""
    spans = recorder.spans
    selfs = self_times(spans)
    by_name = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s[NAME], []).append((s, own))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s[T1] - s[T0] for s, _ in by_name.get(name, ()))

    def self_total(name):
        return sum(own for _, own in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((s[ATTRS] or {}).get(key, 0) for s, _ in by_name.get(name, ()))

    def errors(name):
        return sum(1 for s, _ in by_name.get(name, ()) if "error" in (s[ATTRS] or {}))

    # slowest and mean subdomain solve per sweep
    solves_by_sweep = {}
    for s, _ in by_name.get("local_solver.solve", ()):
        solves_by_sweep.setdefault(s[PARENT], []).append(s[T1] - s[T0])
    critical = sum(max(d) for d in solves_by_sweep.values())
    mean_sum = sum(sum(d) / len(d) for d in solves_by_sweep.values())

    gmres = [s[ATTRS] for s, _ in by_name.get("krylov.gmres", ()) if s[ATTRS]]
    iters = sum(a["iters"] for a in gmres)
    gmres_self = self_total("krylov.gmres")

    built = recorder.factors_built
    use_ratio = recorder.factors_used / built if built else 0.0
    orth_bytes = sum(gmres_orth_bytes(a["iters"], a["n"]) for a in gmres)

    reference_ids = {s[ID] for s, _ in by_name.get("newton.reference", ())}
    floor_s = sum(s[T1] - s[T0] for s, _ in by_name.get("newton.direct", ())
                  if s[PARENT] not in reference_ids)

    return {
        "problems.residual.calls": (calls("problems.residual"), "count"),
        "problems.residual.s": (total("problems.residual"), "s"),
        "problems.jacobian.calls": (calls("problems.jacobian"), "count"),
        "problems.jacobian.s": (total("problems.jacobian"), "s"),
        "decomposition.build.s": (total("decomposition.build"), "s"),
        "decomposition.glue.calls": (calls("decomposition.glue"), "count"),
        "decomposition.glue.s": (total("decomposition.glue"), "s"),
        "local_solver.solve.calls": (calls("local_solver.solve"), "count"),
        "local_solver.solve.self_s": (self_total("local_solver.solve"), "s"),
        "local_solver.inner_iters": (
            attr_sum("local_solver.solve", "inner"), "count"),
        "local_solver.solve.failed": (errors("local_solver.solve"), "count"),
        "local_solver.action.calls": (calls("local_solver.action"), "count"),
        "local_solver.action.s": (total("local_solver.action"), "s"),
        "local_solver.factor_use_ratio": (use_ratio, "ratio"),
        "local_solver.sweep.calls": (calls("local_solver.sweep"), "count"),
        "local_solver.sweep.critical_s": (critical, "s"),
        "local_solver.sweep.imbalance": (
            critical / mean_sum if mean_sum else 0.0, "ratio"),
        "coarse.correction.calls": (calls("coarse.correction"), "count"),
        "coarse.correction.self_s": (self_total("coarse.correction"), "s"),
        "coarse.newton_iters": (attr_sum("coarse.correction", "inner"), "count"),
        "coarse.action.calls": (calls("coarse.action"), "count"),
        "coarse.action.s": (total("coarse.action"), "s"),
        "coarse.setup.s": (total("coarse.setup"), "s"),
        "coarse.failed": (
            errors("coarse.correction") + errors("coarse.setup"), "count"),
        "precond.residual.calls": (calls("precond.residual"), "count"),
        "precond.residual.self_s": (self_total("precond.residual"), "s"),
        "precond.action.calls": (calls("precond.action"), "count"),
        "precond.action.self_s": (self_total("precond.action"), "s"),
        "krylov.gmres.calls": (calls("krylov.gmres"), "count"),
        "krylov.gmres.iters": (iters, "count"),
        "krylov.gmres.self_s": (gmres_self, "s"),
        "krylov.gmres.self_s_per_iter": (gmres_self / iters if iters else 0.0, "s"),
        "krylov.gmres.unconverged": (
            sum(not a["converged"] for a in gmres), "count"),
        "krylov.gmres.orth_bytes": (orth_bytes, "bytes_computed"),
        "newton.driver.self_s": (self_total("newton.driver"), "s"),
        "newton.reference.s": (total("newton.reference"), "s"),
        "newton.direct.s": (floor_s, "s"),
        "harness.run.self_s": (self_total("harness.run"), "s"),
        "harness.rows_failed": (attr_sum("harness.run", "failed"), "count"),
        "scipy.splu.calls": (calls("scipy.splu"), "count"),
        "scipy.splu.s": (total("scipy.splu"), "s"),
        "scipy.lu_solve.calls": (calls("scipy.lu_solve"), "count"),
        "scipy.lu_solve.s": (total("scipy.lu_solve"), "s"),
    }

"""raspen benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload newton-1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  The
command repeats whole passes of the workload until --seconds have elapsed,
timing set-up (setup_s) between their solver runs, reports medians, and
prints every metric by name with its unit and sample count.  Every time is
wall time scaled to a fixed machine speed measured during the run (see
speed.py).  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}, where metrics are the end-to-end
metrics with --trace 0 and the per-layer ones with --trace 1.  A traced
run first measures untraced passes the same way, then runs set-up and one
pass with every layer wrapped (see tracer.py) and writes the spans to
perfbench/out/.  Exits 1 when a correctness check fails and 2 when the
library sources are missing.
"""

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One BLAS thread: raspen's dense work is tiny, and BLAS threads waking on
# a busy second core made pass times jitter by 15%.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# After each solver run set-up is repeated until this much time passed,
# at most SETUP_MAX_REPEATS times.
SETUP_SECONDS = 0.05
SETUP_MAX_REPEATS = 500

KIND_METRICS = ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2")


def _import_library():
    """Import raspen from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "raspen" / "__init__.py").is_file():
        print(f"perfbench: no raspen package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import raspen

    if Path(raspen.__file__).resolve().parent != SRC / "raspen":
        print(f"perfbench: imported raspen from {raspen.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None when it cannot be queried."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line
                    and line.rstrip().endswith(".so")}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": _blas_threads()}


def measure(workload, seed, seconds, clock):
    """Run whole passes until `seconds` elapsed, timing set-ups in between.

    After each solver run of a pass, off the pass's clock, set-up is timed
    until SETUP_SECONDS passed (at least once, at most SETUP_MAX_REPEATS
    times); the last state feeds the next pass.  Every stretch of work is
    kept as a pair of marks of `clock`, to be scaled once the run is over.
    Returns (set-up marks, passes), a pass being [(marks, run or None)]:
    one entry per step of the workload's generator, the last one None.
    """
    setups, passes = [], []

    def time_setups():
        spent = 0.0
        for _ in range(SETUP_MAX_REPEATS):
            t0 = clock.now()
            state = workload.setup(seed)
            setups.append((t0, clock.now()))
            spent += setups[-1][1] - t0
            if spent >= SETUP_SECONDS:
                break
        return state

    start = clock.now()
    state = time_setups()
    while not passes or clock.now() - start < seconds:
        steps, pending = [], workload.run_pass(state)
        while True:
            t0 = clock.now()
            run = next(pending, None)
            steps.append(((t0, clock.now()), run))
            if run is None:
                break
            state = time_setups()
        passes.append(steps)
    return setups, passes


def scaled_pass(clock, steps):
    """(scaled wall time, runs with speed-scaled seconds) of one pass."""
    wall, runs = 0.0, []
    for (a, b), run in steps:
        scaled = clock.scaled(a, b)
        wall += scaled
        if run is not None:
            # run.seconds is raw wall time inside this step
            runs.append(dataclasses.replace(
                run, seconds=run.seconds * scaled / (b - a) if b > a else 0.0))
    return wall, runs


def failed(run):
    """A run failed when it did not converge, unless a stall was expected."""
    return not run.converged and run.expected is not False


def pass_metrics(wall, runs):
    """End-to-end metrics of one pass; None where a value does not apply."""
    converged = sum(r.converged for r in runs)
    pre = [r for r in runs if r.preconditioned]
    out = {"s_per_solve": wall / converged if converged else None}
    for kind in KIND_METRICS:
        times = [r.seconds for r in runs if r.kind == kind]
        out[f"{kind}_s"] = sum(times) if times else None
    out["outer_iters"] = sum(r.outer for r in pre)
    out["LS_total"] = sum(r.ls for r in pre)
    out["failed_frac"] = sum(failed(r) for r in runs) / len(runs)
    return out


def outcome(runs):
    """What must repeat exactly between passes: flags and counts per run."""
    return [(r.label, r.converged, r.outer, r.ls) for r in runs]


def check_runs(runs, bounds):
    """Correctness failures of one pass, as printable lines."""
    error_bound, floor = bounds
    bad = []
    for r in runs:
        if r.expected is not None and r.converged != r.expected:
            bad.append(f"{r.label}: converged={r.converged}, expected {r.expected}")
        if r.converged and not r.error <= error_bound:
            bad.append(f"{r.label}: relative l1 error {r.error:.3e} > {error_bound:g}")
        if r.expected is False and not r.floor > floor:
            bad.append(f"{r.label}: error reached {r.floor:.3e}, "
                       f"below the stall floor {floor:g}")
    return bad


def reference_cells(workload, runs):
    """Cells of the shipped published table this pass misses (not gated)."""
    from raspen.harness import compare_table

    table, I, k, beta = workload.reference
    rows = [{"method": r.kind.lower(), "I": I, "k": k, "beta": beta,
             "outer_iters": r.outer, "LS_total": r.ls, "converged": r.converged}
            for r in runs if r.preconditioned]
    report = compare_table(rows, table)
    return [c for c in report.cells if not c.passed], len(report.cells)


def gated_metrics():
    """Names of the end-to-end metrics BENCHMARK.json gates."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _show(name, value, unit, note):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{name}: {shown} {unit} ({note})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import speed
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(workloads.WORKLOADS)})")
    workload = workloads.WORKLOADS[args.workload]
    bounds = (workloads.ERROR_BOUND, workloads.AS_FLOOR)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in environment().items()))

    recorder = tracer.Recorder()
    with speed.SpeedClock() as clock:
        setup_marks, steps = measure(workload, args.seed, args.seconds, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            with recorder.installed():
                traced_state = workload.setup(args.seed)
                t0 = clock.now()
                traced_runs = list(workload.run_pass(traced_state))
                traced_marks = (t0, clock.now())
    setups = [clock.scaled(a, b) for a, b in setup_marks]
    passes = [scaled_pass(clock, pass_steps) for pass_steps in steps]
    kernel_s = [k for _, _, k in clock.samples]
    print(f"speed: {len(kernel_s)} kernel samples, median {statistics.median(kernel_s):.4g} s "
          f"per call (reference {speed.REFERENCE_KERNEL_S:g} s), "
          f"quartiles {' '.join(f'{q:.4g}' for q in statistics.quantiles(kernel_s, n=4))}")
    raw_s = [sum(b - a for (a, b), _ in pass_steps) for pass_steps in steps]
    print(f"raw pass wall times: {' '.join(f'{t:.4f}' for t in raw_s)} s "
          f"(scaled: {' '.join(f'{w:.4f}' for w, _ in passes)} s)")

    bad = []
    first = outcome(passes[0][1])
    for i, (_, runs) in enumerate(passes):
        bad += check_runs(runs, bounds)
        if outcome(runs) != first:
            bad.append(f"pass {i + 1}: flags or counts differ from pass 1")
    for r in passes[0][1]:
        print(f"run {r.label}: converged={r.converged} outer={r.outer} LS={r.ls} "
              f"error={r.error:.2e} {r.seconds:.4f} s")

    per_pass = [pass_metrics(wall, runs) for wall, runs in passes]
    n = len(passes)
    e2e = {name: (_median(p[name] for p in per_pass), "s")
           for name in ["s_per_solve"] + [f"{k}_s" for k in KIND_METRICS]}
    e2e["setup_s"] = (statistics.median(setups), "s")
    for name in ("outer_iters", "LS_total"):
        e2e[name] = (statistics.median_low(p[name] for p in per_pass), "count")
    e2e["failed_frac"] = (_median(p["failed_frac"] for p in per_pass), "ratio")
    for name, (value, unit) in e2e.items():
        note = f"median of {len(setups)} set-ups" if name == "setup_s" else \
            f"median of {n} passes"
        _show(name, value, unit, note)
    if workload.reference:
        cells, total = reference_cells(workload, passes[0][1])
        for c in cells:
            print(f"ref {workload.reference[0]}: {c.line()}")
        _show("ref_cells_failed", len(cells), "count",
              f"of {total} cells of {workload.reference[0]}, not gated")
    _show("peak_rss_mb", peak_rss_mb, "MB", "process peak")

    attempted = sum(len(runs) for _, runs in passes)
    n_failed = sum(failed(r) for _, runs in passes for r in runs)
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]}
               for name in gated_metrics()}

    if args.trace:
        traced_wall = clock.scaled(*traced_marks)
        bad += check_runs(traced_runs, bounds)
        if outcome(traced_runs) != first:
            bad.append("traced pass: flags or counts differ from the untraced passes")
        traced_s = pass_metrics(traced_wall, traced_runs)["s_per_solve"]
        untraced_s = e2e["s_per_solve"][0]
        # spans onto the speed-scaled work timeline: samples taken inside a
        # span are cut out of it, and its times read like every other time
        for span in recorder.spans:
            span[tracer.T0] = clock.scaled_time(span[tracer.T0])
            span[tracer.T1] = clock.scaled_time(span[tracer.T1])
        layers = tracer.layer_metrics(recorder)
        layers["trace.overhead_frac"] = (
            traced_s / untraced_s - 1.0 if traced_s and untraced_s else None, "ratio")
        for name, (value, unit) in layers.items():
            label = "computed from vector lengths" if unit == "bytes_computed" \
                else "traced pass"
            _show(name, value, unit, label)
        out = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.write(out, workload=args.workload, seed=args.seed,
                       times="speed-scaled work seconds (see speed.py)")
        print(f"spans: {len(recorder.spans)} written to {out}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}

    for line in bad:
        print(f"INCORRECT {line}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

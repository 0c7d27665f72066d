"""Tests of the benchmark's own arithmetic and inputs (run with PYTHONPATH=src)."""

import dataclasses
import json
import pickle
import signal
from pathlib import Path

import numpy as np
import pytest
import speed
import tracer
import workloads
from raspen.problems import hard_forchheimer


def _span(sid, parent, t0, t1, name="x", attrs=None):
    return [sid, parent, 0, name, t0, t1, attrs]


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),    # child
        _span(2, 1, 2.0, 3.0),    # grandchild: covered by 1, not by 0 again
        _span(3, 0, 5.0, 6.5),    # second child
        _span(4, -1, 20.0, 21.0),  # unrelated root
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),    # overlaps child 1 on [4, 6]
        _span(3, 0, 9.0, 12.0),   # runs past the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_sweep_critical_time_and_imbalance():
    recorder = tracer.Recorder()
    recorder.spans = [
        _span(0, -1, 0.0, 4.0, "local_solver.sweep"),
        _span(1, 0, 0.0, 1.0, "local_solver.solve", {"inner": 2}),
        _span(2, 0, 1.0, 4.0, "local_solver.solve", {"inner": 5}),
        _span(3, -1, 5.0, 7.0, "local_solver.sweep"),
        _span(4, 3, 5.0, 6.0, "local_solver.solve", {"inner": 1}),
        _span(5, 3, 6.0, 7.0, "local_solver.solve", {"inner": 1}),
    ]
    recorder.factors_built, recorder.factors_used = 4, 1
    m = {name: value for name, (value, _) in tracer.layer_metrics(recorder).items()}
    assert m["local_solver.sweep.calls"] == 2
    assert m["local_solver.sweep.critical_s"] == pytest.approx(3.0 + 1.0)
    assert m["local_solver.sweep.imbalance"] == pytest.approx(4.0 / (2.0 + 1.0))
    assert m["local_solver.inner_iters"] == 9
    assert m["local_solver.solve.self_s"] == pytest.approx(6.0)
    assert m["local_solver.factor_use_ratio"] == pytest.approx(0.25)


def test_layer_metrics_are_the_declared_per_layer_metrics():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    derived = [(name, unit) for name, (_, unit)
               in tracer.layer_metrics(tracer.Recorder()).items()]
    assert derived + [("trace.overhead_frac", "ratio")] == declared


def test_scaled_time_uses_the_speed_at_the_surrounding_samples():
    ref = speed.REFERENCE_KERNEL_S
    clock = speed.SpeedClock()
    clock.samples = [(1.0, 1.5, ref), (2.5, 3.0, 3 * ref)]
    # sample windows are cut out of the work; work before the first sample
    # goes at its speed, between two at their mean, after the last at its
    assert clock.scaled(0.0, 4.0) == pytest.approx(1.0 + 1.0 / 2 + 1.0 / 3)
    assert clock.scaled(1.7, 2.0) == pytest.approx(0.3 / 2)
    assert clock.scaled(2.0, 2.0) == 0.0
    assert clock.scaled_time(1.0) == clock.scaled_time(1.5) == 0.0


def test_speed_clock_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock(period=0.01, calls=1) as clock:
        t0 = clock.now()
        while clock.now() - t0 < 0.1:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4
    # at most the loop's 0.1 s, less the samples cut out, times the speed
    kernel_s = min(k for _, _, k in clock.samples)
    assert 0.0 < clock.scaled(t0, clock.now()) < 0.1 * speed.REFERENCE_KERNEL_S / kernel_s


def test_gmres_orth_bytes_counts_projections():
    # two iterations on length 10: 1 + 2 projections, 2 norms/normalizations
    assert tracer.gmres_orth_bytes(2, 10) == 8 * 10 * (5 * 3 + 3 * 2)
    assert tracer.gmres_orth_bytes(0, 10) == 0


@pytest.mark.parametrize("name", [n for n in workloads.WORKLOADS if n != "rough-sweep"])
def test_seed_leaves_fixed_workloads_unchanged(name):
    setup = workloads.WORKLOADS[name].setup
    assert pickle.dumps(setup(1)) == pickle.dumps(setup(2))


def test_seed_changes_only_the_rough_field():
    setup = workloads.WORKLOADS["rough-sweep"].setup
    (one, expected), (two, _) = setup(1), setup(2)
    assert expected is None
    for (beta1, c1), (beta2, c2) in zip(one, two):
        assert beta1 == beta2
        assert c1.seed == 1 and c2.seed == 2
        assert dataclasses.replace(c1, seed=c2.seed) == c2
        f1 = hard_forchheimer(c1.meshes[0], beta1, seed=c1.seed)
        f2 = hard_forchheimer(c2.meshes[0], beta2, seed=c2.seed)
        assert not np.array_equal(f1.lambda_field, f2.lambda_field)
        assert np.array_equal(f1.source, f2.source)

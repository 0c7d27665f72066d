"""Acceptance checks, one test per shipped claim.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured-output section of a failure) and asserts the same condition, so
the suite doubles as a checklist: operator algebra, Jacobian exactness,
the affine collapse to linear RAS, the fixed-point dichotomy, the
published outer/LS counts, 2D coarse-grid scalability, consistency at the
solution, and the seeded hard-field comparison.
"""

import time

import numpy as np
import pytest
from oracles import dense_darcy_system, schwarz_preconditioners

from raspen.coarse import (
    aspin_coarse_correction,
    aspin_coarse_setup,
    coarse_space,
    fas_correction,
)
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.harness import config_from_dict, run_experiment
from raspen.local_solver import SolverSettings
from raspen.newton import fixed_point_solve, outer_newton, reference_solution
from raspen.precond import PreconditionedSystem
from raspen.problems import DiffusionProblem2D, smooth_forchheimer


def _verdict(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _pou_matrices(layout):
    """Dense 0/1 restriction and glued prolongation per subdomain."""
    M = layout.n_cells
    for sub in layout.subdomains:
        R = np.zeros((len(sub.overlap), M))
        R[np.arange(len(sub.overlap)), sub.overlap] = 1.0
        P_tilde = np.zeros((M, len(sub.overlap)))
        P_tilde[sub.owned, sub.owned_local] = 1.0
        yield R, P_tilde


def test_criterion_1_partition_of_unity():
    t0 = time.perf_counter()
    layouts = [build_1d_layout(*mik) for mik in [(100, 8, 3), (60, 10, 1), (200, 40, 5)]]
    layouts += [build_2d_layout(16, 16, n, 1) for n in (2, 4)]
    ok = True
    for lay in layouts:
        glued = np.zeros((lay.n_cells, lay.n_cells))
        for R, P_tilde in _pou_matrices(lay):
            glued += P_tilde @ R
            # R_i P_i with P_i = R_i^T is the local identity, exactly
            ok &= np.array_equal(R @ R.T, np.eye(len(R)))
        ok &= np.array_equal(glued, np.eye(lay.n_cells))
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    _verdict(1, "partition of unity", ok,
             f"sum P~_i R_i = I and R_i P_i = I exact on 5 layouts, {dt:.2f}s < 1s")


def test_criterion_2_jacobian_matches_fd():
    t0 = time.perf_counter()
    tight = SolverSettings(inner_tol=1e-12)
    setups = [
        (smooth_forchheimer(60, 1.0), build_1d_layout(60, 4, 2), 46),
        (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1), 47),
    ]
    worst = 0.0
    for prob, lay, seed in setups:
        rng = np.random.default_rng(seed)
        u = 0.2 * rng.standard_normal(lay.n_cells)
        for kind in ("RASPEN1", "ASPIN1", "RASPEN2"):
            system = PreconditionedSystem(kind, prob, lay, tight, jacobian_mode="exact")
            ev = system.residual(u)
            directions = [rng.standard_normal(lay.n_cells) for _ in range(5)]
            actions = [system.jacobian_action(ev, v) for v in directions]
            probe = PreconditionedSystem(kind, prob, lay, tight, jacobian_mode="exact")
            for v, got in zip(directions, actions):
                eps = 1e-6
                fd = (probe.residual(u + eps * v).value
                      - probe.residual(u - eps * v).value) / (2 * eps)
                worst = max(worst, np.linalg.norm(got - fd) / max(1.0, np.linalg.norm(fd)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 30.0
    _verdict(2, "jacobian exactness", ok,
             f"max FD relative error {worst:.2e} < 1e-5 over 30 directions, {dt:.1f}s < 30s")


def test_criterion_3_affine_collapse():
    t0 = time.perf_counter()
    prob = smooth_forchheimer(60, 0.0)
    lay = build_1d_layout(60, 4, 2)
    A, b = dense_darcy_system(prob)
    M_ras, _ = schwarz_preconditioners(A, lay)
    P0 = lay.P0.toarray() if hasattr(lay.P0, "toarray") else np.asarray(lay.P0)
    Q = P0 @ np.linalg.solve(P0.T @ A @ P0, P0.T)
    rng = np.random.default_rng(48)
    u = 0.3 * rng.standard_normal(60)
    tight = SolverSettings(inner_tol=1e-13)
    one = PreconditionedSystem("RASPEN1", prob, lay, tight)
    two = PreconditionedSystem("RASPEN2", prob, lay, tight)
    lin = b - A @ u
    err1 = np.max(np.abs(one.residual(u).value - M_ras @ lin))
    err2 = np.max(np.abs(two.residual(u).value
                         - (Q + M_ras @ (np.eye(60) - A @ Q)) @ lin))
    run1 = outer_newton(one, np.zeros(60))
    run2 = outer_newton(two, np.zeros(60))
    dt = time.perf_counter() - t0
    ok = (err1 < 1e-10 and err2 < 1e-10
          and run1.converged and run1.outer_iterations == 1
          and run2.converged and run2.outer_iterations == 1
          and dt < 10.0)
    _verdict(3, "affine collapse", ok,
             f"dense RAS mismatch {err1:.1e}, two-level {err2:.1e} (both < 1e-10), "
             f"outers {run1.outer_iterations}/{run2.outer_iterations} == 1, {dt:.1f}s < 10s")


def test_criterion_4_fixed_point_dichotomy():
    t0 = time.perf_counter()
    prob = smooth_forchheimer(100, 1.0, L=1.0)
    lay = build_1d_layout(100, 8, 3)
    x = (np.arange(100) + 0.5) / 100.0
    u0 = 0.5 * np.sin(40 * np.pi * x)
    ras = fixed_point_solve(PreconditionedSystem("RASPEN1", prob, lay), u0)
    asr = fixed_point_solve(PreconditionedSystem("ASPIN1", prob, lay), u0)
    two = fixed_point_solve(PreconditionedSystem("RASPEN2", prob, lay), u0)
    as_floor = min(asr.ledger.error) if len(asr.ledger) else np.inf
    dt = time.perf_counter() - t0
    ok = (ras.converged and len(ras.ledger) <= 500
          and not asr.converged and as_floor > 1e-2
          and two.converged and len(two.ledger) < len(ras.ledger)
          and dt < 120.0)
    _verdict(4, "fixed-point dichotomy", ok,
             f"RAS converged in {len(ras.ledger)} steps, AS floor {as_floor:.1e} > 1e-2, "
             f"two-level {len(two.ledger)} < {len(ras.ledger)} steps, {dt:.0f}s < 120s")


@pytest.fixture(scope="module")
def overlap_sweep():
    """One outer-Newton run per (kind, I) at M = 20 I, overlap 3 cells."""
    t0 = time.perf_counter()
    runs = {}
    for I in (10, 20, 40):
        prob = smooth_forchheimer(20 * I, 1.0)
        lay = build_1d_layout(20 * I, I, 3)
        for kind in ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2"):
            system = PreconditionedSystem(kind, prob, lay)
            runs[kind, I] = outer_newton(system, np.zeros(20 * I))
    return runs, time.perf_counter() - t0


def test_criterion_5_outer_iteration_counts(overlap_sweep):
    runs, dt = overlap_sweep
    bands = {"RASPEN1": (3, 5), "RASPEN2": (2, 5), "ASPIN1": (4, 7), "ASPIN2": (4, 8)}
    ok = dt < 300.0
    cells = []
    for (kind, I), run in sorted(runs.items()):
        lo, hi = bands[kind]
        ok &= run.converged and lo <= run.outer_iterations <= hi
        cells.append(f"{kind} I={I}: {run.outer_iterations}")
    _verdict(5, "outer iteration counts", ok,
             "; ".join(cells) + f" all within published bands +-1, {dt:.0f}s < 300s")


def test_criterion_6_linear_solve_totals(overlap_sweep):
    runs, dt = overlap_sweep
    published = {"RASPEN1": 87, "ASPIN1": 118, "RASPEN2": 60, "ASPIN2": 130}
    ok = dt < 300.0
    cells = []
    for kind, want in published.items():
        got = runs[kind, 10].ledger.LS_total
        ok &= abs(got - want) <= 0.2 * want
        cells.append(f"{kind} LS {got} vs {want}")
    ras1, asp1 = runs["RASPEN1", 10].ledger.LS_total, runs["ASPIN1", 10].ledger.LS_total
    ras2, asp2 = runs["RASPEN2", 10].ledger.LS_total, runs["ASPIN2", 10].ledger.LS_total
    ok &= ras1 < asp1 and ras2 < asp2
    _verdict(6, "linear-solve totals", ok,
             "; ".join(cells) + f"; orderings {ras1}<{asp1} and {ras2}<{asp2}, "
             f"all within 20%, {dt:.0f}s < 300s")


def test_criterion_7_coarse_grid_scalability():
    t0 = time.perf_counter()
    first_ls_G = {}
    outers = []
    for mesh, N in ((16, 2), (32, 4)):
        prob = DiffusionProblem2D(mesh, mesh)
        lay = build_2d_layout(mesh, mesh, N, 1, dirichlet_value=prob.dirichlet_value)
        for kind in ("RASPEN1", "RASPEN2"):
            run = outer_newton(PreconditionedSystem(kind, prob, lay), prob.initial_state())
            assert run.converged
            first_ls_G[kind, N] = run.ledger.ls_G[0]
            outers.append(run.outer_iterations)
    growth1 = first_ls_G["RASPEN1", 4] / first_ls_G["RASPEN1", 2]
    growth2 = first_ls_G["RASPEN2", 4] / first_ls_G["RASPEN2", 2]
    dt = time.perf_counter() - t0
    ok = (growth1 >= 1.5 and growth2 <= 1.6
          and all(2 <= n <= 4 for n in outers) and dt < 600.0)
    _verdict(7, "coarse-grid scalability", ok,
             f"first-iteration ls_G growth N=2->4: one-level {growth1:.2f}x >= 1.5, "
             f"two-level {growth2:.2f}x <= 1.6, outers {outers} all 3+-1, {dt:.0f}s < 600s")


def test_criterion_8_consistency_at_solution():
    t0 = time.perf_counter()
    settings = SolverSettings()
    tol = 10 * settings.outer_tol
    setups = [
        (smooth_forchheimer(60, 1.0), build_1d_layout(60, 4, 2)),
        (DiffusionProblem2D(8, 8), build_2d_layout(8, 8, 2, 1)),
    ]
    worst_res, worst_coarse = 0.0, 0.0
    for prob, lay in setups:
        ustar = reference_solution(prob)
        for kind in ("RASPEN1", "ASPIN1", "RASPEN2", "ASPIN2"):
            system = PreconditionedSystem(kind, prob, lay, settings)
            worst_res = max(worst_res, np.max(np.abs(system.residual(ustar).value)))
        space = coarse_space(prob, lay)
        fas = fas_correction(space, ustar, settings)
        worst_coarse = max(worst_coarse, np.max(np.abs(fas.correction)))
        base = aspin_coarse_setup(space, settings)
        asc = aspin_coarse_correction(space, ustar, base, settings)
        worst_coarse = max(worst_coarse, np.max(np.abs(asc.correction)))
    dt = time.perf_counter() - t0
    ok = worst_res <= tol and worst_coarse <= tol and dt < 30.0
    _verdict(8, "consistency at the solution", ok,
             f"max |residual(u*)| {worst_res:.1e} and max coarse correction "
             f"{worst_coarse:.1e} both <= {tol:.0e}, {dt:.1f}s < 30s")


def test_criterion_9_seeded_hard_field(tmp_path):
    t0 = time.perf_counter()
    config = config_from_dict({
        "problem": "forchheimer1d",
        "field": "random",
        "seed": "2",
        "mesh": "120",
        "subdomains": "6",
        "overlap": "2",
        "beta": "1",
        "methods": "raspen1,aspin1,raspen2,aspin2,as-fp",
        "max_fixed_point": "120",
        "outdir": str(tmp_path / "hard"),
    })
    rows = {row.method: row for row in run_experiment(config)}
    ls = {m: rows[m].LS_total for m in ("raspen1", "aspin1", "raspen2", "aspin2")}
    dt = time.perf_counter() - t0
    ok = (all(rows[m].converged for m in ls)
          and ls["raspen1"] < ls["aspin1"] and ls["raspen2"] < ls["aspin2"]
          and not rows["as-fp"].converged and rows["as-fp"].reason != "")
    _verdict(9, "seeded hard field", ok,
             f"LS {ls['raspen1']}<{ls['aspin1']} and {ls['raspen2']}<{ls['aspin2']}, "
             f"AS fixed point reported '{rows['as-fp'].reason}', {dt:.0f}s")

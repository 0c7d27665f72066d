"""Tests for the experiment harness, its output files, and the CLI."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from oracles import layout_blocks

import raspen.harness as harness_mod
from raspen.cli import main as cli_main
from raspen.decomposition import build_1d_layout, build_2d_layout
from raspen.harness import (
    ITER_COLUMNS,
    ROW_COLUMNS,
    compare_table,
    config_from_dict,
    load_rows,
    parse_config,
    read_reference_table,
    reference_table_names,
    run_experiment,
)
from raspen.local_solver import LocalSolveError, SolveError
from raspen.newton import IterationLedger, RunResult, reference_solution
from raspen.precond import PreconditionedSystem
from raspen.problems import DiffusionProblem2D, smooth_forchheimer


def _cfg_text(**kv):
    return "".join(f"{key} = {value}\n" for key, value in kv.items())


def _write_cfg(path, **kv):
    path.write_text(_cfg_text(**kv))
    return path


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Overlap sweep matching a block of the shipped 1D reference table."""
    outdir = tmp_path_factory.mktemp("sweep")
    config = config_from_dict({
        "problem": "forchheimer1d", "mesh": "200", "subdomains": "10",
        "overlap": "1,3,5", "beta": "1.0", "methods": "raspen1",
        "outdir": str(outdir),
    })
    rows = run_experiment(config)
    return config, rows, outdir


def test_parse_config_file(tmp_path):
    path = _write_cfg(
        tmp_path / "exp.cfg",
        problem="forchheimer1d", mesh="100, 200", subdomains="8",
        overlap="1,3", beta="0.5,1.0", methods="raspen1, aspin2",
        outer_tol="1e-9", seed="3", outdir="out",
    )
    (tmp_path / "exp.cfg").write_text("# comment line\n" + path.read_text())
    config = parse_config(path)
    assert config.meshes == (100, 200)
    assert config.subdomains == (8,)
    assert config.overlaps == (1, 3)
    assert config.betas == (0.5, 1.0)
    assert config.methods == ("raspen1", "aspin2")
    assert config.settings.outer_tol == 1e-9
    assert config.seed == 3
    assert config.outdir == "out"


@pytest.mark.parametrize("raw", [
    {"mesh": "40", "nonsense": "1"},
    {"mesh": "40", "methods": ""},
    {"mesh": "40", "methods": "raspen7"},
    {"mesh": "40", "methods": "raspen1,raspen1"},
    {"mesh": "40", "cells_per_subdomain": "20"},
    {},
    {"mesh": "40", "jacobian_mode": "sloppy"},
    {"mesh": "40", "problem": "heat3d"},
    {"mesh": "8", "problem": "diffusion2d", "beta": "1.0"},
    {"mesh": "40", "problem": "diffusion2d", "field": "random"},
    {"mesh": "40", "field": "random", "contrast": "1"},
    {"mesh": "40", "outer_tol": "0"},
    {"mesh": "40", "inner_tol": "nan"},
    {"mesh": "40", "outer_tol": "nan"},
    {"mesh": "40", "gmres_tol": "inf"},
    {"mesh": "40", "subdomains": "4,4"},
    {"mesh": "40,60,40"},
    {"mesh": "40", "overlap": "1,2,1"},
    {"mesh": "40", "beta": "1,1.0"},
    {"mesh": "40", "beta": "nan"},
    {"mesh": "40", "beta": "inf"},
    {"mesh": "40", "beta": "nan,nan"},
    {"mesh": "40", "field": "random", "amplitude": "nan"},
    {"mesh": "40", "field": "random", "omega": "inf"},
    {"mesh": "40", "field": "random", "omega": "nan"},
    {"mesh": "40", "field": "random", "contrast": "1e-2,inf"},
    {"mesh": "40", "beta": "1,1.000001"},
])
def test_config_validation_errors(raw):
    with pytest.raises(ValueError):
        config_from_dict(raw)


# every config key, the attribute it sets (settings.* inside the nested
# SolverSettings) and the value a sample parses to, with its element type
_SCHEMA = {
    "problem": ({"mesh": "8", "problem": "diffusion2d"}, "problem", "diffusion2d"),
    "mesh": ({"mesh": "40, 80"}, "meshes", (40, 80)),
    "cells_per_subdomain": ({"cells_per_subdomain": "8"}, "cells_per_subdomain", 8),
    "subdomains": ({"mesh": "40", "subdomains": "2, 4"}, "subdomains", (2, 4)),
    "overlap": ({"mesh": "40", "overlap": "1, 2"}, "overlaps", (1, 2)),
    "beta": ({"mesh": "40", "beta": "1, 10"}, "betas", (1.0, 10.0)),
    "methods": ({"mesh": "40", "methods": "raspen1, aspin2"}, "methods",
                ("raspen1", "aspin2")),
    "field": ({"mesh": "40", "field": "random"}, "field", "random"),
    "contrast": ({"mesh": "40", "contrast": "1e-2, 1"}, "contrast", (0.01, 1.0)),
    "amplitude": ({"mesh": "40", "amplitude": "2"}, "amplitude", 2.0),
    "omega": ({"mesh": "40", "omega": "5"}, "omega", 5.0),
    "seed": ({"mesh": "40", "seed": "3"}, "seed", 3),
    "outdir": ({"mesh": "40", "outdir": "out"}, "outdir", "out"),
    "inner_tol": ({"mesh": "40", "inner_tol": "1e-10"}, "settings.inner_tol", 1e-10),
    "outer_tol": ({"mesh": "40", "outer_tol": "1e-9"}, "settings.outer_tol", 1e-9),
    "gmres_tol": ({"mesh": "40", "gmres_tol": "1e-7"}, "settings.gmres_tol", 1e-7),
    "max_inner": ({"mesh": "40", "max_inner": "7"}, "settings.max_inner", 7),
    "max_outer": ({"mesh": "40", "max_outer": "9"}, "settings.max_outer", 9),
    "max_fixed_point": ({"mesh": "40", "max_fixed_point": "30"},
                        "settings.max_fixed_point", 30),
}


def test_config_keys_are_the_schema():
    with pytest.raises(ValueError, match=r"^unknown config key 'nonsense' \(known: "
                       + ", ".join(sorted(_SCHEMA)) + r"\)$"):
        config_from_dict({"mesh": "40", "nonsense": "1"})
    assert len(_SCHEMA) == 19


@pytest.mark.parametrize("key", sorted(_SCHEMA))
def test_config_key_sets_its_attribute_with_its_type(key):
    raw, attr, want = _SCHEMA[key]

    def read(config):
        for part in attr.split("."):
            config = getattr(config, part)
        return config

    got = read(config_from_dict(raw))
    assert got == want
    # list keys parse to tuples; compare the element types too
    assert type(got) is type(want)
    items = (lambda x: x if isinstance(x, tuple) else (x,))
    assert list(map(type, items(got))) == list(map(type, items(want)))
    # the sample is not the default, so the key itself set the attribute
    others = {k: v for k, v in raw.items() if k != key}
    assert read(config_from_dict(others or {"mesh": "12"})) != want


def test_betas_that_print_alike_are_named():
    # distinct values, but one results.csv key and one curve file name
    with pytest.raises(ValueError, match=r"^beta entries 1\.0, 1\.000001, "
                       r"1\.0000001 print alike,"):
        config_from_dict({"mesh": "40", "beta": "1,1.000001,10,1.0000001"})


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("mesh = 40\nmesh = 60\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(path)


@pytest.mark.parametrize("raw, label", [
    ({"mesh": "40", "field": "random", "contrast": "10,1"}, "mesh=40 beta=1: contrast"),
    ({"mesh": "40", "field": "random", "omega": "0"}, "mesh=40 beta=1: omega"),
    ({"mesh": "40", "beta": "1,-1"}, "mesh=40 beta=-1: beta"),
    ({"mesh": "0"}, "mesh=0 beta=1: mesh"),
    ({"mesh": "0", "problem": "diffusion2d"}, "mesh=0 beta=0: grid"),
    ({"cells_per_subdomain": "-8", "subdomains": "2"}, "mesh=-16 beta=1: mesh"),
    ({"mesh": "40", "subdomains": "0"}, "mesh=40 subdomains=0 overlap=1: need"),
    ({"mesh": "40", "subdomains": "4,50"}, "mesh=40 subdomains=50 overlap=1: need"),
    ({"mesh": "40", "overlap": "-1"}, "mesh=40 subdomains=4 overlap=-1: need"),
    # 8 subdomains on 24 cells leave 3-cell blocks: 4 overlap layers reach
    # past a whole block
    ({"mesh": "24", "subdomains": "8", "overlap": "4"},
     "mesh=24 subdomains=8 overlap=4: overlap"),
], ids=["contrast-order", "omega-zero", "beta-negative", "mesh-zero", "grid-zero",
        "cells-negative", "subdomains-zero", "subdomains-past-cells",
        "overlap-negative", "overlap-past-block"])
def test_values_are_checked_where_the_matrix_is_built(tmp_path, raw, label):
    # the parser checks the schema and finiteness; the problem and layout
    # builders check the values, before run_experiment writes anything
    outdir = tmp_path / "never"
    config = config_from_dict({**raw, "methods": "raspen1", "outdir": str(outdir)})
    with pytest.raises(ValueError, match=f"^{label}"):
        run_experiment(config)
    assert not outdir.exists()


def test_sweep_matches_published_counts(sweep):
    _, rows, _ = sweep
    assert [r.outer_iters for r in rows] == [4, 4, 4]
    assert all(r.converged for r in rows)
    report = compare_table(rows, "smooth_overlap_sweep.csv")
    assert report.matched_rows == 3
    assert report.all_pass


def test_output_schemas(sweep):
    _, rows, outdir = sweep
    results = (outdir / "results.csv").read_text().splitlines()
    assert results[0] == ",".join(ROW_COLUMNS)
    assert len(results) == 1 + len(rows)
    assert results[1].startswith("raspen1,200,10,1,1,")
    iters = (outdir / "iterations.csv").read_text().splitlines()
    assert iters[0] == ",".join(ITER_COLUMNS)
    # one block per row: outer updates plus the confirming evaluation
    assert len(iters) == 1 + sum(len(r.ledger) for r in rows)
    for r in rows:
        curve = outdir / f"curve_raspen1_M200_I10_k{r.k}_beta1.csv"
        lines = curve.read_text().splitlines()
        assert lines[0] == "step,error,LS"
        assert len(lines) == 1 + len(r.ledger)
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["config"]["problem"] == "forchheimer1d"
    assert summary["config"]["overlaps"] == [1, 3, 5]
    assert summary["seed"] == 0
    assert set(summary["versions"]) == {"python", "numpy", "scipy", "raspen"}
    assert summary["reasons"] == {}


def test_rerun_is_byte_identical(sweep, tmp_path):
    config, _, outdir = sweep
    again = tmp_path / "again"
    run_experiment(dataclasses.replace(config, outdir=str(again)))
    for name in ["results.csv", "iterations.csv",
                 "curve_raspen1_M200_I10_k3_beta1.csv"]:
        assert (again / name).read_bytes() == (outdir / name).read_bytes()


def test_every_row_LS_matches_ledger(sweep):
    _, rows, _ = sweep
    for r in rows:
        assert r.LS_total == sum(r.ledger.ls_G) + sum(r.ledger.ls_in)


def test_every_method_keeps_its_per_iteration_counts(tmp_path):
    # each row's method,n,ls_G,ls_in,ls_min of iterations.csv, all seven
    # methods (89 rows), pinned by the sha256 of those integer columns as
    # recorded before the ledger derived ls_in and ls_min from its counts
    config = config_from_dict({
        "mesh": "40", "subdomains": "4", "overlap": "2",
        "methods": ",".join(harness_mod.METHODS), "max_fixed_point": "30",
        "outdir": str(tmp_path / "counts"),
    })
    run_experiment(config)
    lines = (tmp_path / "counts" / "iterations.csv").read_text().splitlines()
    wanted = [ITER_COLUMNS.index(c) for c in ("method", "n", "ls_G", "ls_in",
                                               "ls_min")]
    counts = [",".join(line.split(",")[i] for i in wanted) for line in lines[1:]]
    assert len(counts) == 89
    assert hashlib.sha256("\n".join(counts).encode()).hexdigest() == (
        "8afc8b58a859dc06902f7c34ef43102c21ebfca8639a90f9a6114777f822ae5a")


def test_newton_baseline_on_diffusion2d(tmp_path):
    config = config_from_dict({
        "problem": "diffusion2d", "mesh": "8", "subdomains": "2",
        "overlap": "1", "methods": "newton", "outdir": str(tmp_path / "d2"),
    })
    rows = run_experiment(config)
    assert len(rows) == 1
    assert rows[0].converged
    assert rows[0].beta == 0.0


def test_solver_failure_recorded_without_aborting(tmp_path):
    # one inner iteration cannot solve the subdomain problems, so the
    # preconditioned run fails; the plain Newton sibling still completes
    config = config_from_dict({
        "mesh": "40", "subdomains": "4", "overlap": "2",
        "methods": "raspen1,newton", "max_inner": "1",
        "outdir": str(tmp_path / "fail"),
    })
    rows = run_experiment(config)
    by_method = {r.method: r for r in rows}
    assert not by_method["raspen1"].converged
    assert "inner Newton" in by_method["raspen1"].reason
    assert by_method["newton"].converged
    text = (tmp_path / "fail" / "results.csv").read_text()
    assert "raspen1,40,4,2,1,0,0,false" in text
    summary = json.loads((tmp_path / "fail" / "summary.json").read_text())
    assert "raspen1_M40_I4_k2_beta1" in summary["reasons"]


def test_failed_outer_newton_row_keeps_its_ledger(tmp_path):
    # on this rough field raspen2 fails in outer iteration 1; its row, its
    # iterations and its curve keep the finished iteration 0
    config = config_from_dict({
        "mesh": "240", "subdomains": "8", "overlap": "2", "beta": "10",
        "field": "random", "seed": "1", "methods": "raspen2",
        "outdir": str(tmp_path / "late"),
    })
    (row,) = run_experiment(config)
    assert not row.converged
    assert row.reason.startswith("outer iteration 1: subdomain 1: inner Newton")
    assert (row.outer_iters, row.LS_total, len(row.ledger)) == (1, 50, 1)
    out = tmp_path / "late"
    assert "raspen2,240,8,2,10,1,50,false" in (out / "results.csv").read_text()
    assert (out / "iterations.csv").read_text().splitlines()[1].startswith(
        "raspen2,240,8,2,10,1,15,35,10,")
    curve = (out / "curve_raspen2_M240_I8_k2_beta10.csv").read_text()
    assert curve.splitlines() == ["step,error,LS", "1,1.000000000000e+00,50"]
    # the summary names the failed subdomain and its inner residual trail
    failures = json.loads((out / "summary.json").read_text())["failures"]
    assert failures == {"raspen2_M240_I8_k2_beta10": {
        "subdomain": 1, "residuals": list(row.failure.residuals)}}
    assert type(row.failure) is LocalSolveError and row.failure.subdomain == 1
    assert len(row.failure.residuals) > 1


@pytest.mark.parametrize("seed, beta", [("3", "1"), ("5", "1"), ("6", "10")])
def test_a_spurious_raspen2_zero_is_not_converged(tmp_path, seed, beta):
    # on these rough fields RASPEN2's function vanishes at a u with
    # ||F(u)|| between 2.6e-3 and 2.2 times ||F(u0)||, 0.08 to 7.2 absolute
    config = config_from_dict({
        "mesh": "240", "subdomains": "8", "overlap": "2", "beta": beta,
        "field": "random", "seed": seed, "methods": "raspen2",
        "outdir": str(tmp_path / "zero"),
    })
    (row,) = run_experiment(config)
    assert not row.converged and row.failure is None
    assert row.reason.startswith("spurious zero: ||F(u)|| = ")
    assert "against ||F(u0)|| = " in row.reason
    assert row.ledger.residual_norm[-1] <= config.settings.outer_tol
    text = (tmp_path / "zero" / "results.csv").read_text()
    assert text.splitlines()[1].endswith(",false")


def test_a_run_that_recorded_nothing_has_no_ledger(tmp_path):
    # one inner iteration fails every run at its first evaluation: as-fp
    # and ras-fp in their first step, raspen1 in outer iteration 0; none
    # keeps a ledger or writes a curve
    config = config_from_dict({
        "mesh": "40", "subdomains": "4", "overlap": "2",
        "methods": "as-fp,ras-fp,raspen1", "max_inner": "1",
        "outdir": str(tmp_path / "none"),
    })
    rows = run_experiment(config)
    assert [r.reason.split(": ")[0] for r in rows] == [
        "solve failed at step 1", "solve failed at step 1", "outer iteration 0"]
    for r in rows:
        assert not r.converged and r.ledger is None and r.LS_total == 0
        assert isinstance(r.failure, LocalSolveError)
    assert list((tmp_path / "none").glob("curve_*.csv")) == []
    iters = (tmp_path / "none" / "iterations.csv").read_text()
    assert iters == ",".join(ITER_COLUMNS) + "\n"


def test_summary_is_strict_json_with_non_finite_norms_named(tmp_path,
                                                           monkeypatch):
    failure = LocalSolveError("subdomain 2: inner Newton produced a "
                              "non-finite residual", subdomain=2,
                              residuals=[1.5, np.inf, np.nan])

    def failing(system, u0, *, u_ref):
        return RunResult(u0, IterationLedger(), False, 0,
                         f"outer iteration 0: {failure}", failure=failure)

    monkeypatch.setattr(harness_mod, "outer_newton", failing)
    config = config_from_dict({
        "mesh": "40", "subdomains": "4", "overlap": "2",
        "methods": "raspen1", "outdir": str(tmp_path / "nan"),
    })
    run_experiment(config)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "nan" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["failures"] == {"raspen1_M40_I4_k2_beta1": {
        "subdomain": 2, "residuals": [1.5, "inf", "nan"]}}


def test_reference_failure_recorded_without_aborting(tmp_path, monkeypatch):
    # a failed reference fails every row of its (mesh, beta) with its
    # reason, while the rows of the other betas still run
    def reference(problem, settings):
        if problem.beta == 1.0:
            raise SolveError("synthetic reference failure")
        return reference_solution(problem, settings)

    monkeypatch.setattr(harness_mod, "reference_solution", reference)
    config = config_from_dict({
        "mesh": "240", "subdomains": "8", "overlap": "2", "beta": "0,1,10",
        "field": "random", "seed": "2", "methods": "newton,raspen1",
        "outdir": str(tmp_path / "ref"),
    })
    rows = run_experiment(config)
    assert [(r.method, r.beta) for r in rows] == [
        (m, b) for b in (0.0, 1.0, 10.0) for m in ("newton", "raspen1")]
    for r in rows[2:4]:
        assert not r.converged and r.ledger is None
        assert r.reason == ("reference solution for mesh=240 beta=1: "
                            "synthetic reference failure")
    assert all(r.ledger is not None for r in rows[:2] + rows[4:])
    assert rows[5].converged
    text = (tmp_path / "ref" / "results.csv").read_text()
    assert "newton,240,8,2,1,0,0,false" in text
    assert "raspen1,240,8,2,1,0,0,false" in text
    reasons = json.loads((tmp_path / "ref" / "summary.json").read_text())[
        "reasons"]
    assert "synthetic reference failure" in reasons["newton_M240_I8_k2_beta1"]
    assert "synthetic reference failure" in reasons["raspen1_M240_I8_k2_beta1"]


def _geometric_off_interface_mask(problem, layout):
    """Oracle: the two-point flux stencils, from the grid geometry."""
    owner = np.empty(problem.dof_count, dtype=int)
    for idx, sub in enumerate(layout_blocks(layout)):
        owner[sub.owned] = idx
    if isinstance(problem, DiffusionProblem2D):
        own = owner.reshape(problem.ny, problem.nx)
        mask = np.ones_like(own, dtype=bool)
        mask[:, :-1] &= own[:, :-1] == own[:, 1:]
        mask[:, 1:] &= own[:, 1:] == own[:, :-1]
        mask[:-1, :] &= own[:-1, :] == own[1:, :]
        mask[1:, :] &= own[1:, :] == own[:-1, :]
        return mask.ravel()
    mask = np.ones(problem.dof_count, dtype=bool)
    mask[:-1] &= owner[:-1] == owner[1:]
    mask[1:] &= owner[1:] == owner[:-1]
    return mask


def test_rows_of_a_multi_mesh_sweep_name_their_mesh(tmp_path):
    config = config_from_dict({
        "mesh": "40,80", "subdomains": "4", "overlap": "2",
        "methods": "newton", "outdir": str(tmp_path / "meshes"),
    })
    run_experiment(config)
    results = (tmp_path / "meshes" / "results.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in results[1:]] == [
        ["newton", "40"], ["newton", "80"]]
    iters = (tmp_path / "meshes" / "iterations.csv").read_text().splitlines()
    assert {tuple(line.split(",")[:2]) for line in iters[1:]} == {
        ("newton", "40"), ("newton", "80")}


def test_cells_per_subdomain_scales_the_mesh_with_the_subdomains(tmp_path):
    # 8x8 cells per subdomain: 2 subdomains per side on 16^2, 4 on 32^2.
    # The counts are this code's; four of the eight cells differ from
    # diffusion2d_scalability.csv beyond the comparison tolerances
    config = config_from_dict({
        "problem": "diffusion2d", "cells_per_subdomain": "8",
        "subdomains": "2, 4", "overlap": "1",
        "methods": "raspen1, aspin1, raspen2, aspin2",
        "outdir": str(tmp_path / "cells"),
    })
    rows = run_experiment(config)
    assert [(r.method, r.mesh, r.I, r.k, r.beta) for r in rows] == [
        (method, 8 * I, I, 1, 0.0) for I in (2, 4)
        for method in ("raspen1", "aspin1", "raspen2", "aspin2")]
    assert [(r.outer_iters, r.LS_total) for r in rows] == [
        (3, 50), (4, 80), (3, 42), (4, 77), (3, 97), (4, 142), (3, 51), (4, 88)]
    assert all(r.converged for r in rows)
    results = (tmp_path / "cells" / "results.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in results[1:]] == ["16"] * 4 + ["32"] * 4


def test_first_ras_step_residual_export(tmp_path):
    # after one restricted Schwarz step the glued iterate keeps the local
    # solves' accuracy away from the subdomain interfaces, so the residual
    # sits at the inner tolerance there and concentrates at the interfaces
    # (Dolean, Gander, Kheriji, Kwok and Masson, SISC 2016)
    cases = [
        ({"mesh": "40", "subdomains": "4", "overlap": "2"},
         smooth_forchheimer(40, beta=1.0), build_1d_layout(40, 4, 2),
         "ras-fp_M40_I4_k2_beta1"),
        ({"problem": "diffusion2d", "mesh": "16", "subdomains": "2", "overlap": "1"},
         DiffusionProblem2D(16, 16), build_2d_layout(16, 16, 2, 1),
         "ras-fp_M16_I2_k1_beta0"),
    ]
    for raw, problem, layout, tag in cases:
        config = config_from_dict({**raw, "methods": "ras-fp", "max_fixed_point": "30",
                                   "outdir": str(tmp_path / tag)})
        run_experiment(config)
        lines = (tmp_path / tag / f"first_ras_residual_{tag}.csv").read_text().splitlines()
        assert lines[0] == "index,residual"
        values = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert values.size == problem.dof_count
        off = _geometric_off_interface_mask(problem, layout)
        assert off.any() and not off.all()
        assert np.max(np.abs(values[off])) <= config.settings.inner_tol
        assert np.max(np.abs(values[~off])) > 1e-3


@pytest.mark.parametrize("max_fixed_point", ["30", "600"], ids=["capped", "converged"])
def test_fixed_point_rows_evaluate_once_per_ledger_row(tmp_path, monkeypatch,
                                                       max_fixed_point):
    # ras-fp's first-step residual comes from step 1's own sweep: every
    # fixed-point row runs one evaluation per ledger row and no more
    calls = []
    residual = PreconditionedSystem.residual

    def counting(system, u):
        calls.append(system.kind)
        return residual(system, u)

    monkeypatch.setattr(PreconditionedSystem, "residual", counting)
    config = config_from_dict({
        "mesh": "40", "subdomains": "4", "overlap": "2",
        "methods": "ras-fp,as-fp", "max_fixed_point": max_fixed_point,
        "outdir": str(tmp_path / "fp"),
    })
    ras, as_ = run_experiment(config)
    assert ras.converged == (max_fixed_point == "600")
    assert (calls.count("RASPEN1"), calls.count("ASPIN1")) == (
        len(ras.ledger), len(as_.ledger))
    assert (tmp_path / "fp" / "first_ras_residual_ras-fp_M40_I4_k2_beta1.csv").exists()


def _ref_file(tmp_path, ls=92, outer=4):
    path = tmp_path / "ref.csv"
    path.write_text("method,I,k,beta,outer_iters,LS_total\n"
                    f"raspen1,10,3,1,{outer},{ls}\n")
    return path


def _result_rows(outer=4, ls=92, converged=True):
    return [{"method": "raspen1", "I": 10, "k": 3, "beta": 1.0,
             "outer_iters": outer, "LS_total": ls, "converged": converged}]


def test_compare_tolerance_rules(tmp_path):
    ref = _ref_file(tmp_path)
    assert compare_table(_result_rows(), ref).all_pass
    assert compare_table(_result_rows(outer=5), ref).all_pass
    report = compare_table(_result_rows(ls=120), ref)
    assert not report.all_pass
    failed = [c for c in report.cells if not c.passed]
    assert [c.metric for c in failed] == ["LS_total"]
    report = compare_table(_result_rows(converged=False), ref)
    assert all(not c.passed for c in report.cells)


def test_compare_rejects_rows_sharing_a_key(tmp_path):
    # a two-mesh sweep gives one row per mesh for the same (method, I, k, beta)
    rows = [dict(_result_rows()[0], mesh=mesh) for mesh in (200, 400)]
    with pytest.raises(ValueError, match="method=raspen1 I=10 k=3 beta=1;"):
        compare_table(rows, _ref_file(tmp_path))


def test_compare_rejects_reference_rows_sharing_a_key(tmp_path):
    # two reference rows for one cell compared one result row twice, with
    # PASS and FAIL for the same cells
    ref = tmp_path / "twice.csv"
    ref.write_text("method,I,k,beta,outer_iters,LS_total\n"
                   "raspen1,10,3,1,4,92\n"
                   "raspen1,10,3,1,9,300\n")
    with pytest.raises(ValueError, match=r"^two reference rows share "
                       r"method=raspen1 I=10 k=3 beta=1"):
        compare_table(_result_rows(), ref)


def test_compare_schema_and_overlap_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,I,k,outer_iters\nraspen1,10,3,4\n")
    with pytest.raises(ValueError, match="schema mismatch"):
        compare_table(_result_rows(), bad)
    other = tmp_path / "other.csv"
    other.write_text("method,I,k,beta,outer_iters,LS_total\n"
                     "aspin1,20,1,1,5,228\n")
    with pytest.raises(ValueError, match="no rows match"):
        compare_table(_result_rows(), other)


def test_load_rows_types(sweep):
    _, _, outdir = sweep
    rows = load_rows(outdir / "results.csv")
    assert rows[0]["method"] == "raspen1"
    assert isinstance(rows[0]["I"], int)
    assert isinstance(rows[0]["beta"], float)
    assert rows[0]["converged"] is True


def test_shipped_reference_tables():
    names = reference_table_names()
    assert "smooth_overlap_sweep.csv" in names
    assert "diffusion2d_scalability.csv" in names
    text = read_reference_table("smooth_overlap_sweep.csv")
    assert "raspen2,10,3,1,3,60" in text
    with pytest.raises(ValueError, match="unknown reference table"):
        read_reference_table("no_such_table.csv")


def test_cli_run_compare_roundtrip(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "exp.cfg", mesh="40", subdomains="4",
                     overlap="2", methods="raspen1,aspin1")
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    printed = capsys.readouterr().out
    assert "raspen1 M=40 I=4 k=2 beta=1" in printed
    # a reference equal to the results must pass, a skewed one must not
    ref = tmp_path / "selfref.csv"
    rows = load_rows(out / "results.csv")
    lines = ["method,I,k,beta,outer_iters,LS_total"]
    lines += [f"{r['method']},{r['I']},{r['k']},{r['beta']:g},"
              f"{r['outer_iters']},{r['LS_total']}" for r in rows]
    ref.write_text("\n".join(lines) + "\n")
    assert cli_main(["compare", str(out / "results.csv"), str(ref)]) == 0
    skew = tmp_path / "skewref.csv"
    skew.write_text("\n".join(lines[:1] + [
        line.rsplit(",", 1)[0] + ",9999" for line in lines[1:]
    ]) + "\n")
    assert cli_main(["compare", str(out / "results.csv"), str(skew)]) == 1


def test_cli_reference_tables(capsys):
    assert cli_main(["reference-tables"]) == 0
    printed = capsys.readouterr().out
    assert "== smooth_overlap_sweep.csv ==" in printed
    assert "method,I,k,beta,outer_iters,LS_total" in printed


def test_cli_run_requires_config(capsys):
    assert cli_main(["run"]) == 2
    assert "config file is required" in capsys.readouterr().err


def test_cli_run_takes_the_config_only_as_its_argument(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "exp.cfg", mesh="40", methods="raspen1")
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as caught:
        cli_main(["run", "--config", str(cfg), "--out", str(out)])
    assert caught.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_zero_omega(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "exp.cfg", mesh="40", methods="raspen1",
                     field="random", omega="0")
    out = tmp_path / "never"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 2
    assert "omega must be nonzero" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seed_override_is_validated(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "exp.cfg", mesh="40", methods="raspen1")
    out = tmp_path / "never"
    assert cli_main(["run", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    assert "error: seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seed_override(tmp_path):
    cfg = _write_cfg(tmp_path / "exp.cfg", mesh="40", subdomains="4",
                     overlap="2", methods="raspen1", field="random",
                     seed="0")
    out = tmp_path / "seeded"
    assert cli_main(["run", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["config"]["seed"] == 5

"""Experiment harness: flat-file configs, solver matrices, CSV/JSON output.

A config names one problem family and lists of meshes, subdomain counts,
overlaps, beta values, and methods; run_experiment executes the full cross
product and writes four kinds of artifact into the output directory:

  results.csv     one row per combination: method,mesh,I,k,beta,
                  outer_iters,LS_total,converged
  iterations.csv  long format, one row per outer iteration:
                  method,mesh,I,k,beta,n,ls_G,ls_in,ls_min,error,residual
  curve_*.csv     per-run error/work curves: step,error,LS
  summary.json    config echo, library versions, seed, failure reasons

Reruns of the same config and seed produce byte-identical CSVs (wall
times live only in the summary).  Per-combination solver failures are
recorded in the row as converged=false with the reason kept in the
summary; they never abort sibling combinations, and a failed outer
Newton run keeps the counts and iterations it finished.  A failed
reference solution fails every row of its (mesh, beta) problem the same
way.

compare_table checks result rows against a shipped reference table of
published counts, cell by cell, with the comparison tolerances used
throughout: outer iterations within +/-1 (OUTER_TOL), linear-solve totals
within +/-15% (LS_RTOL).
"""

import csv
import dataclasses
import io
import json
import math
import platform
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .decomposition import build_1d_layout, build_2d_layout
from .local_solver import SolveError, SolverSettings
from .newton import (RunResult, direct_newton, fixed_point_solve, outer_newton,
                     reference_solution)
from .precond import PreconditionedSystem
from .problems import DiffusionProblem2D, hard_forchheimer, smooth_forchheimer

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "ResultRow",
    "CompareReport",
    "parse_config",
    "config_from_dict",
    "run_experiment",
    "compare_table",
    "load_rows",
    "reference_table_names",
    "read_reference_table",
]

METHODS = ("newton", "ras-fp", "as-fp", "raspen1", "aspin1", "raspen2", "aspin2")
PROBLEMS = ("forchheimer1d", "diffusion2d")
FIELD_KINDS = ("smooth", "random")
OUTER_TOL = 1
LS_RTOL = 0.15

ROW_COLUMNS = ("method", "mesh", "I", "k", "beta", "outer_iters", "LS_total",
               "converged")
ITER_COLUMNS = ("method", "mesh", "I", "k", "beta", "n", "ls_G", "ls_in",
                "ls_min", "error", "residual")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment matrix; see parse_config for the file format.

    Every instance is validated, dataclasses.replace copies included.
    """

    problem: str = "forchheimer1d"
    meshes: tuple = ()
    cells_per_subdomain: int = 0
    subdomains: tuple = (4,)
    overlaps: tuple = (1,)
    betas: tuple = (1.0,)
    methods: tuple = ("raspen1",)
    field: str = "smooth"
    contrast: tuple = (1e-2, 1e2)
    amplitude: float = 1.0
    omega: float = 20.0
    settings: SolverSettings = dataclasses.field(default_factory=SolverSettings)
    seed: int = 0
    outdir: str = "results"

    def __post_init__(self):
        _validate(self)


@dataclass(frozen=True, eq=False)
class ResultRow:
    """Outcome of one (method, mesh, I, k, beta) combination."""

    method: str
    mesh: int
    I: int
    k: int
    beta: float
    outer_iters: int
    LS_total: int
    converged: bool
    reason: str = ""
    wall_time: float = 0.0
    ledger: object = dataclasses.field(default=None, repr=False)


def _parse_list(value, conv):
    items = [part.strip() for part in value.split(",")]
    if not all(items):
        raise ValueError(f"empty element in list {value!r}")
    return tuple(map(conv, items))


# config key -> (attribute, converter)
_CONFIG_KEYS = {
    "problem": ("problem", str),
    "mesh": ("meshes", lambda v: _parse_list(v, int)),
    "cells_per_subdomain": ("cells_per_subdomain", int),
    "subdomains": ("subdomains", lambda v: _parse_list(v, int)),
    "overlap": ("overlaps", lambda v: _parse_list(v, int)),
    "beta": ("betas", lambda v: _parse_list(v, float)),
    "methods": ("methods", lambda v: _parse_list(v, str)),
    "field": ("field", str),
    "contrast": ("contrast", lambda v: _parse_list(v, float)),
    "amplitude": ("amplitude", float),
    "omega": ("omega", float),
    "seed": ("seed", int),
    "outdir": ("outdir", str),
}
# SolverSettings fields are flat config keys too (inner_tol = 1e-10)
_SETTINGS_FIELDS = tuple(f.name for f in dataclasses.fields(SolverSettings))
_CONFIG_KEYS.update({f.name: (f.name, f.type)
                     for f in dataclasses.fields(SolverSettings)})


def parse_config(path):
    """Read a flat key = value config file (lists comma-separated, #-comments)."""
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return config_from_dict(raw)


def config_from_dict(raw):
    """Build and validate an ExperimentConfig from string key/value pairs."""
    kwargs = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            known = ", ".join(sorted(_CONFIG_KEYS))
            raise ValueError(f"unknown config key {key!r} (known: {known})")
        attr, conv = _CONFIG_KEYS[key]
        try:
            kwargs[attr] = conv(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    if raw.get("problem") == "diffusion2d" and "beta" not in raw:
        kwargs["betas"] = (0.0,)
    settings = {name: kwargs.pop(name) for name in _SETTINGS_FIELDS if name in kwargs}
    return ExperimentConfig(settings=SolverSettings(**settings), **kwargs)


def _validate(config):
    if config.problem not in PROBLEMS:
        raise ValueError(f"problem must be one of {PROBLEMS}, got {config.problem!r}")
    if not config.methods:
        raise ValueError("methods list is empty")
    for m in config.methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (known: {', '.join(METHODS)})")
    if not all(map(math.isfinite, (*config.betas, *config.contrast,
                                   config.amplitude, config.omega))):
        raise ValueError("beta, contrast, amplitude and omega must be finite")
    if config.omega == 0:
        raise ValueError("omega must be nonzero")
    for name, values in (("mesh", config.meshes), ("subdomains", config.subdomains),
                         ("overlap", config.overlaps), ("beta", config.betas),
                         ("methods", config.methods)):
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate entries in {name}")
    if config.field not in FIELD_KINDS:
        raise ValueError(f"field must be one of {FIELD_KINDS}")
    if config.field == "random" and config.problem != "forchheimer1d":
        raise ValueError("random fields apply to forchheimer1d only")
    if config.problem == "diffusion2d" and tuple(config.betas) != (0.0,):
        raise ValueError("beta applies to forchheimer1d only")
    if bool(config.meshes) == bool(config.cells_per_subdomain):
        raise ValueError("give exactly one of 'mesh' and 'cells_per_subdomain'")
    if config.cells_per_subdomain < 0:
        raise ValueError("cells_per_subdomain must be positive")
    for name, values in (("mesh", config.meshes),
                         ("subdomains", config.subdomains)):
        if any(v < 1 for v in values):
            raise ValueError(f"{name} entries must be positive")
    if any(k < 0 for k in config.overlaps):
        raise ValueError("overlap entries must be nonnegative")
    if len(config.contrast) != 2 or not 0 < config.contrast[0] <= config.contrast[1]:
        raise ValueError("contrast must be 'lo,hi' with 0 < lo <= hi")
    if config.seed < 0:
        raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class _Combo:
    mesh: int
    I: int
    k: int
    beta: float
    method: str


def _combos(config):
    out = []
    for I in config.subdomains:
        meshes = ((config.cells_per_subdomain * I,) if config.cells_per_subdomain
                  else config.meshes)
        for mesh in meshes:
            for k in config.overlaps:
                for beta in config.betas:
                    for method in config.methods:
                        out.append(_Combo(mesh, I, k, beta, method))
    return out


def _build_problem(config, mesh, beta):
    if config.problem == "diffusion2d":
        return DiffusionProblem2D(mesh, mesh)
    if config.field == "random":
        return hard_forchheimer(mesh, beta=beta, seed=config.seed,
                                contrast=tuple(config.contrast),
                                amplitude=config.amplitude, omega=config.omega)
    return smooth_forchheimer(mesh, beta=beta)


def _build_layout(config, problem, mesh, I, k):
    if config.problem == "diffusion2d":
        return build_2d_layout(mesh, mesh, I, k,
                               dirichlet_value=problem.dirichlet_value)
    return build_1d_layout(mesh, I, k, dirichlet=problem.dirichlet)


def _prepare(config):
    """Fail-fast construction of every problem and layout in the matrix."""
    combos = _combos(config)
    problems, layouts = {}, {}
    for c in combos:
        pkey = (c.mesh, c.beta)
        if pkey not in problems:
            try:
                problems[pkey] = _build_problem(config, c.mesh, c.beta)
            except ValueError as exc:
                raise ValueError(f"mesh={c.mesh} beta={c.beta:g}: {exc}") from exc
        lkey = (c.mesh, c.I, c.k)
        if lkey not in layouts:
            try:
                layouts[lkey] = _build_layout(config, problems[pkey],
                                              c.mesh, c.I, c.k)
            except ValueError as exc:
                raise ValueError(
                    f"mesh={c.mesh} subdomains={c.I} overlap={c.k}: {exc}"
                ) from exc
    return combos, problems, layouts


def _off_interface_mask(problem, layout):
    """Cells whose whole stencil is owned by a single subdomain.

    A cell's stencil is the column set of its row in problem.pattern.
    """
    owner = np.empty(problem.dof_count, dtype=int)
    for idx, sub in enumerate(layout.subdomains):
        owner[sub.owned] = idx
    P = problem.pattern
    same = owner[P.indices] == np.repeat(owner, np.diff(P.indptr))
    return np.logical_and.reduceat(same, P.indptr[:-1])


def _first_step_residual(system, problem, layout, u0, settings):
    """Residual after one restricted Schwarz step, for external plotting.

    Away from the subdomain interfaces the glued iterate inherits the
    local solves' accuracy, so those entries must already sit at the
    inner tolerance (a SolveError otherwise, recorded as the row's
    failure); the interesting structure is the concentration at the
    interfaces.
    """
    u1 = system.fixed_point_step(u0)
    r = problem.residual(u1)
    mask = _off_interface_mask(problem, layout)
    if mask.any():
        worst = float(np.max(np.abs(r[mask])))
        if worst > settings.inner_tol:
            raise SolveError(
                f"off-interface residual {worst:.3e} exceeds the inner "
                f"tolerance after the first restricted Schwarz step"
            )
    return r


def _tag(row):
    return (f"{row.method}_M{row.mesh}_I{row.I}_k{row.k}"
            f"_beta{row.beta:g}")


def _execute(combo, problem, layout, u_ref, settings):
    """Run one combination; a SolveError as u_ref fails it with that reason."""
    u0 = problem.initial_state()
    t0 = time.perf_counter()
    first_residual = None
    try:
        if isinstance(u_ref, SolveError):
            raise u_ref
        if combo.method == "newton":
            run = direct_newton(problem, u0, settings, u_ref=u_ref)
        elif combo.method in ("ras-fp", "as-fp"):
            kind = "RASPEN1" if combo.method == "ras-fp" else "ASPIN1"
            system = PreconditionedSystem(kind, problem, layout, settings)
            if combo.method == "ras-fp":
                first_residual = _first_step_residual(system, problem, layout,
                                                      u0, settings)
            run = fixed_point_solve(system, u0, settings, u_ref=u_ref)
        else:
            system = PreconditionedSystem(combo.method, problem, layout,
                                          settings)
            run = outer_newton(system, u0, settings, u_ref=u_ref)
    except SolveError as exc:
        # an outer Newton failure keeps the ledger of its finished iterations
        run = RunResult(None, getattr(exc, "ledger", None) or None, False,
                        getattr(exc, "outer_iterations", 0), str(exc))
    ledger = run.ledger
    row = ResultRow(combo.method, combo.mesh, combo.I, combo.k, combo.beta,
                    run.outer_iterations, ledger.LS_total if ledger else 0,
                    run.converged, run.reason, time.perf_counter() - t0, ledger)
    return row, first_residual


def run_experiment(config):
    """Execute the config's cross product and write all output files.

    Returns the list of ResultRows in matrix order.
    """
    combos, problems, layouts = _prepare(config)
    settings = config.settings
    refs = {}
    for (mesh, beta), problem in problems.items():
        try:
            refs[(mesh, beta)] = reference_solution(problem, settings)
        except SolveError as exc:
            # every run on this problem fails with the reference's reason
            refs[(mesh, beta)] = SolveError(
                f"reference solution for mesh={mesh} beta={beta:g}: {exc}")

    outcomes = [_execute(c, problems[(c.mesh, c.beta)],
                         layouts[(c.mesh, c.I, c.k)], refs[(c.mesh, c.beta)],
                         settings)
                for c in combos]

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [row for row, _ in outcomes]
    _write_csv(outdir / "results.csv", ROW_COLUMNS, (
        f"{_key_fields(r)},{r.outer_iters},{r.LS_total},"
        f"{'true' if r.converged else 'false'}" for r in rows))
    _write_csv(outdir / "iterations.csv", ITER_COLUMNS, (
        f"{_key_fields(r)},{n},{g},{ls_in},{ls_min},{e:.12e},{res:.12e}"
        for r in rows if r.ledger is not None
        for n, (g, ls_in, ls_min, e, res) in enumerate(zip(
            r.ledger.ls_G, r.ledger.ls_in, r.ledger.ls_min, r.ledger.error,
            r.ledger.residual_norm), 1)))
    for row, first_residual in outcomes:
        if row.ledger is not None:
            steps = enumerate(zip(row.ledger.error, row.ledger.LS), 1)
            _write_csv(outdir / f"curve_{_tag(row)}.csv", ("step", "error", "LS"),
                       (f"{n},{e:.12e},{ls}" for n, (e, ls) in steps))
        if first_residual is not None:
            _write_csv(outdir / f"first_ras_residual_{_tag(row)}.csv",
                       ("index", "residual"),
                       (f"{i},{r:.12e}" for i, r in enumerate(first_residual)))
    _write_summary(outdir / "summary.json", config, rows)
    return rows


def _key_fields(row):
    """The method,mesh,I,k,beta fields leading results and iterations lines."""
    return f"{row.method},{row.mesh},{row.I},{row.k},{row.beta:g}"


def _write_csv(path, header, lines):
    """Write the header's column names, then one line per element of lines."""
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def _write_summary(path, config, rows):
    summary = {
        "config": dataclasses.asdict(config),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "raspen": __version__,
        },
        "seed": config.seed,
        "rows": len(rows),
        "reasons": {_tag(r): r.reason for r in rows if r.reason},
        "wall_time_s": {_tag(r): round(r.wall_time, 3) for r in rows},
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------- comparisons

_REQUIRED_COLUMNS = ("method", "I", "k", "beta", "outer_iters", "LS_total")


def _rows_from_text(text, label):
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    cols = reader.fieldnames or []
    missing = [c for c in _REQUIRED_COLUMNS if c not in cols]
    if missing:
        raise ValueError(
            f"{label}: schema mismatch, missing columns {', '.join(missing)}"
        )
    rows = []
    for rec in reader:
        rows.append({
            "method": rec["method"].strip(),
            "I": int(rec["I"]),
            "k": int(rec["k"]),
            "beta": float(rec["beta"]),
            "outer_iters": int(rec["outer_iters"]),
            "LS_total": int(rec["LS_total"]),
            "converged": rec.get("converged", "true").strip().lower() != "false",
        })
    return rows


def load_rows(source):
    """Read a results or reference CSV into a list of plain dicts.

    Lines starting with '#' are comments.  Required columns: method, I,
    k, beta, outer_iters, LS_total; converged is optional and defaults
    to true (reference tables list converged runs only).
    """
    return _rows_from_text(Path(source).read_text(), str(source))


@dataclass(frozen=True)
class CompareCell:
    method: str
    I: int
    k: int
    beta: float
    metric: str
    got: int
    want: int
    passed: bool

    def line(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"{self.method} I={self.I} k={self.k} beta={self.beta:g} "
                f"{self.metric}: {self.got} vs {self.want} {state}")


@dataclass(frozen=True)
class CompareReport:
    """Pass/fail matrix of result rows against a reference table."""

    cells: tuple

    @property
    def all_pass(self):
        return all(c.passed for c in self.cells)

    @property
    def matched_rows(self):
        return len(self.cells) // 2

    def lines(self):
        return [c.line() for c in self.cells]


def _get(row, name):
    """A field of a result row given as a plain dict or as a ResultRow."""
    return row[name] if isinstance(row, dict) else getattr(row, name)


def _row_key(row):
    return (_get(row, "method"), int(_get(row, "I")), int(_get(row, "k")),
            float(_get(row, "beta")))


def compare_table(rows, reference_table_file):
    """Compare result rows with a reference table, cell by cell.

    Matching is on (method, I, k, beta).  outer_iters passes within
    +/- OUTER_TOL, LS_total within a relative LS_RTOL; a row that did
    not converge fails both cells.  The reference may be a path or the
    name of a shipped table.  Raises on schema mismatch, when nothing
    matches, or when two result rows share a key (such as the rows of
    one combination on two meshes).
    """
    ref_rows = _rows_from_text(read_reference_table(reference_table_file),
                               str(reference_table_file))
    indexed = {}
    for row in rows:
        key = _row_key(row)
        if key in indexed:
            method, I, k, beta = key
            raise ValueError(f"two result rows share method={method} I={I} "
                             f"k={k} beta={beta:g}; compare one mesh at a time")
        indexed[key] = {
            "outer_iters": int(_get(row, "outer_iters")),
            "LS_total": int(_get(row, "LS_total")),
            "converged": bool(_get(row, "converged")),
        }
    cells = []
    for ref in ref_rows:
        key = _row_key(ref)
        got = indexed.get(key)
        if got is None:
            continue
        for metric, tol in (("outer_iters", OUTER_TOL),
                            ("LS_total", LS_RTOL * ref["LS_total"])):
            ok = got["converged"] and abs(got[metric] - ref[metric]) <= tol
            cells.append(CompareCell(*key, metric, got[metric], ref[metric], ok))
    if not cells:
        raise ValueError("no rows match the reference table "
                         "(check method/I/k/beta values)")
    return CompareReport(tuple(cells))


# -------------------------------------------------------- shipped tables

def _data_dir():
    return resources.files("raspen").joinpath("data")


def reference_table_names():
    """Names of the published reference tables shipped with the package."""
    return sorted(p.name for p in _data_dir().iterdir() if p.name.endswith(".csv"))


def read_reference_table(name):
    """Text of a shipped reference table, or of a user-supplied path."""
    path = Path(name)
    if path.exists():
        return path.read_text()
    entry = _data_dir().joinpath(name)
    if entry.is_file():
        return entry.read_text()
    names = ", ".join(reference_table_names())
    raise ValueError(f"unknown reference table {name!r} (shipped: {names})")

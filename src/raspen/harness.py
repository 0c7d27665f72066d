"""Experiment harness: flat-file configs, solver matrices, CSV/JSON output.

A config names one problem family and lists of meshes, subdomain counts,
overlaps, beta values, and methods; run_experiment executes the full cross
product and writes four kinds of artifact into the output directory:

  results.csv     one row per combination: method,mesh,I,k,beta,
                  outer_iters,LS_total,converged
  iterations.csv  long format, one row per outer iteration:
                  method,mesh,I,k,beta,n,ls_G,ls_in,ls_min,error,residual
  curve_*.csv     per-run error/work curves: step,error,LS
  summary.json    config echo, library versions, seed, failure reasons,
                  failed subdomains with their inner residual norms

Reruns of the same config and seed produce byte-identical CSVs (wall
times live only in the summary).  The drivers return solve failures in
their RunResult; the row records one as converged=false, keeping the
iterations before it (a run that recorded none has no ledger and no
curve) and the reason in the summary, and sibling combinations still
run.  A failed reference solution fails every row of its (mesh, beta)
problem the same way.

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
import typing
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .decomposition import build_1d_layout, build_2d_layout
from .local_solver import LocalSolveError, SolveError, SolverSettings
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
# the fixed-point methods and the system kind each iterates
_FIXED_POINT_KINDS = {"ras-fp": "RASPEN1", "as-fp": "ASPIN1"}
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

    The fields are the config schema: each is a config key (meshes,
    overlaps and betas in the singular) parsed by its annotation, and
    settings takes SolverSettings' fields as flat keys.  Every instance is
    validated, dataclasses.replace copies included, against the schema and
    for finite numbers; run_experiment's problem and layout builders check
    the values before it writes anything.
    """

    problem: str = "forchheimer1d"
    meshes: tuple[int, ...] = ()
    cells_per_subdomain: int = 0
    subdomains: tuple[int, ...] = (4,)
    overlaps: tuple[int, ...] = (1,)
    betas: tuple[float, ...] = (1.0,)
    methods: tuple[str, ...] = ("raspen1",)
    field: str = "smooth"
    contrast: tuple[float, ...] = (1e-2, 1e2)
    amplitude: float = 1.0
    omega: float = 20.0
    settings: SolverSettings = dataclasses.field(default_factory=SolverSettings)
    seed: int = 0
    outdir: str = "results"

    def __post_init__(self):
        _validate(self)


@dataclass(frozen=True, eq=False)
class ResultRow:
    """Outcome of one (method, mesh, I, k, beta) combination.

    first_residual is the residual after one restricted Schwarz step on
    ras-fp rows whose first step completed, and None otherwise.
    """

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
    failure: SolveError = dataclasses.field(default=None, repr=False)
    first_residual: np.ndarray = dataclasses.field(default=None, repr=False)


def _parse_list(value, conv):
    items = [part.strip() for part in value.split(",")]
    if not all(items):
        raise ValueError(f"empty element in list {value!r}")
    return tuple(map(conv, items))


def _converter(kind):
    """The parser of a field annotated kind; tuple[T, ...] reads 'a, b'."""
    if typing.get_origin(kind) is tuple:
        return partial(_parse_list, conv=typing.get_args(kind)[0])
    return kind


# the list fields keyed in the singular (mesh = 40, 80)
_SINGULAR = {"meshes": "mesh", "overlaps": "overlap", "betas": "beta"}
# config key -> (attribute, converter); SolverSettings fields are flat
# config keys too (inner_tol = 1e-10)
_SETTINGS_FIELDS = tuple(f.name for f in dataclasses.fields(SolverSettings))
_CONFIG_KEYS = {_SINGULAR.get(f.name, f.name): (f.name, _converter(f.type))
                for cls in (ExperimentConfig, SolverSettings)
                for f in dataclasses.fields(cls) if f.name != "settings"}


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
    for name, values in (("mesh", config.meshes), ("subdomains", config.subdomains),
                         ("overlap", config.overlaps), ("methods", config.methods)):
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate entries in {name}")
    printed = [f"{b:g}" for b in config.betas]  # as rows, tags and keys print it
    alike = [b for b, text in zip(config.betas, printed) if printed.count(text) > 1]
    if alike:
        raise ValueError(f"beta entries {', '.join(map(repr, alike))} print "
                         f"alike, so their rows would share one key")
    if config.field not in FIELD_KINDS:
        raise ValueError(f"field must be one of {FIELD_KINDS}")
    if config.field == "random" and config.problem != "forchheimer1d":
        raise ValueError("random fields apply to forchheimer1d only")
    if config.problem == "diffusion2d" and tuple(config.betas) != (0.0,):
        raise ValueError("beta applies to forchheimer1d only")
    if bool(config.meshes) == bool(config.cells_per_subdomain):
        raise ValueError("give exactly one of 'mesh' and 'cells_per_subdomain'")
    if len(config.contrast) != 2:
        raise ValueError("contrast must be 'lo,hi'")
    if config.seed < 0:
        raise ValueError("seed must be nonnegative")


def _combos(config):
    """Every combination's (method, mesh, I, k, beta), in matrix order."""
    return [(method, mesh, I, k, beta)
            for I in config.subdomains
            for mesh in ((config.cells_per_subdomain * I,)
                         if config.cells_per_subdomain else config.meshes)
            for k in config.overlaps
            for beta in config.betas
            for method in config.methods]


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


def _labelled(label, build, *args):
    """build(*args), with label leading the message of a ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _prepare(config):
    """Fail-fast construction of every problem and layout in the matrix."""
    combos = _combos(config)
    problems, layouts = {}, {}
    for _, mesh, I, k, beta in combos:
        if (mesh, beta) not in problems:
            problems[mesh, beta] = _labelled(f"mesh={mesh} beta={beta:g}",
                                             _build_problem, config, mesh, beta)
        if (mesh, I, k) not in layouts:
            layouts[mesh, I, k] = _labelled(
                f"mesh={mesh} subdomains={I} overlap={k}",
                _build_layout, config, problems[mesh, beta], mesh, I, k)
    return combos, problems, layouts


class _FirstStepRecorded(PreconditionedSystem):
    """RASPEN1 as ras-fp runs it: step 1's own evaluation also gives
    first_residual, the residual after one restricted Schwarz step."""

    first_residual = None

    def residual(self, u):
        ev = super().residual(u)
        if self.first_residual is None:
            self.first_residual = self.problem.residual(u + ev.value)
        return ev


def _tag(row):
    return (f"{row.method}_M{row.mesh}_I{row.I}_k{row.k}"
            f"_beta{row.beta:g}")


def _run(method, problem, layout, u_ref, settings):
    """The method's RunResult and ras-fp's first-step residual."""
    if isinstance(u_ref, SolveError):
        return RunResult(None, None, False, 0, str(u_ref), failure=u_ref), None
    u0 = problem.initial_state()
    if method == "newton":
        return direct_newton(problem, u0, settings, u_ref=u_ref), None
    kind = _FIXED_POINT_KINDS.get(method, method)
    if method == "ras-fp":
        system = _FirstStepRecorded(kind, problem, layout, settings)
        return fixed_point_solve(system, u0, u_ref=u_ref), system.first_residual
    system = PreconditionedSystem(kind, problem, layout, settings)
    if method in _FIXED_POINT_KINDS:
        return fixed_point_solve(system, u0, u_ref=u_ref), None
    return outer_newton(system, u0, u_ref=u_ref), None


def run_experiment(config):
    """Execute the config's cross product and write all output files.

    Returns the list of ResultRows in matrix order.
    """
    combos, problems, layouts = _prepare(config)
    settings = config.settings
    refs = {}
    for (mesh, beta), problem in problems.items():
        try:
            refs[mesh, beta] = reference_solution(problem, settings)
        except SolveError as exc:
            # every run on this problem fails with the reference's reason
            refs[mesh, beta] = SolveError(
                f"reference solution for mesh={mesh} beta={beta:g}: {exc}")

    rows = []
    for method, mesh, I, k, beta in combos:
        t0 = time.perf_counter()
        run, first_residual = _run(method, problems[mesh, beta],
                                   layouts[mesh, I, k], refs[mesh, beta], settings)
        ledger = run.ledger or None  # a run that recorded nothing has no ledger
        rows.append(ResultRow(
            method, mesh, I, k, beta, run.outer_iterations,
            ledger.LS_total if ledger else 0, run.converged, run.reason,
            time.perf_counter() - t0, ledger, run.failure, first_residual))

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "results.csv", ROW_COLUMNS, (
        f"{_key_fields(r)},{r.outer_iters},{r.LS_total},"
        f"{'true' if r.converged else 'false'}" for r in rows))
    _write_csv(outdir / "iterations.csv", ITER_COLUMNS, (
        f"{_key_fields(r)},{n},{g},{ls_in},{ls_min},{e:.12e},{res:.12e}"
        for r in rows if r.ledger is not None
        for n, (g, ls_in, ls_min, e, res) in enumerate(zip(
            r.ledger.ls_G, r.ledger.ls_in, r.ledger.ls_min, r.ledger.error,
            r.ledger.residual_norm), 1)))
    for row in rows:
        if row.ledger is not None:
            steps = enumerate(zip(row.ledger.error, row.ledger.LS), 1)
            _write_csv(outdir / f"curve_{_tag(row)}.csv", ("step", "error", "LS"),
                       (f"{n},{e:.12e},{ls}" for n, (e, ls) in steps))
        if row.first_residual is not None:
            _write_csv(outdir / f"first_ras_residual_{_tag(row)}.csv",
                       ("index", "residual"),
                       (f"{i},{r:.12e}" for i, r in enumerate(row.first_residual)))
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
        "failures": {_tag(r): {"subdomain": r.failure.subdomain,
                               "residuals": [x if math.isfinite(x) else str(x)
                                             for x in r.failure.residuals]}
                     for r in rows if isinstance(r.failure, LocalSolveError)},
        "wall_time_s": {_tag(r): round(r.wall_time, 3) for r in rows},
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")

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
    return [_record(rec) for rec in reader]


def _record(row):
    """The compared fields, typed, of a CSV record, dict or ResultRow."""
    row = row if isinstance(row, dict) else vars(row)
    converged = row.get("converged", True)  # a CSV's: true unless "false"
    if isinstance(converged, str):
        converged = converged.strip().lower() != "false"
    return {"method": str(row["method"]).strip(), "I": int(row["I"]),
            "k": int(row["k"]), "beta": float(row["beta"]),
            "outer_iters": int(row["outer_iters"]),
            "LS_total": int(row["LS_total"]), "converged": bool(converged)}


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


def _indexed(records, side, hint=""):
    """records by (method, I, k, beta); two sharing a key raise ValueError."""
    indexed = {}
    for record in records:
        key = record["method"], record["I"], record["k"], record["beta"]
        if key in indexed:
            method, I, k, beta = key
            raise ValueError(f"two {side} rows share method={method} I={I} "
                             f"k={k} beta={beta:g}{hint}")
        indexed[key] = record
    return indexed


def compare_table(rows, reference_table_file):
    """Compare result rows with a reference table, cell by cell.

    Matching is on (method, I, k, beta).  outer_iters passes within
    +/- OUTER_TOL, LS_total within a relative LS_RTOL; a row that did
    not converge fails both cells.  The reference may be a path or the
    name of a shipped table.  Raises on schema mismatch, when nothing
    matches, or when two rows of either side share a key (such as the
    result rows of one combination on two meshes).
    """
    refs = _indexed(_rows_from_text(read_reference_table(reference_table_file),
                                    str(reference_table_file)), "reference")
    indexed = _indexed(map(_record, rows), "result",
                       "; compare one mesh at a time")
    cells = []
    for key, ref in refs.items():
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

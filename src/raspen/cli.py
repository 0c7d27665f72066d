"""Command line front end: run experiment matrices, compare against
published reference counts, and print the shipped reference tables."""

import argparse
import dataclasses
import sys

from .harness import (compare_table, load_rows, parse_config,
                      read_reference_table, reference_table_names,
                      run_experiment)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="raspen",
        description="Nonlinear Schwarz solver experiments: run a config's "
                    "method/mesh matrix, emit CSV tables and curves, and "
                    "compare counts against published reference tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the experiment matrix of a config file")
    run.add_argument("config_path", nargs="?", metavar="config",
                     help="flat key = value config file")
    run.add_argument("--config", dest="config_opt", metavar="PATH",
                     help="alternative way to pass the config file")
    run.add_argument("--out", metavar="DIR", help="override the output directory")
    run.add_argument("--seed", type=int, metavar="N",
                     help="override the random-field seed")
    run.set_defaults(func=_cmd_run)

    cmp_ = sub.add_parser("compare",
                          help="check a results.csv against a reference table")
    cmp_.add_argument("results", help="results.csv produced by 'run'")
    cmp_.add_argument("reference",
                      help="reference table path or shipped table name")
    cmp_.set_defaults(func=_cmd_compare)

    ref = sub.add_parser("reference-tables",
                         help="print the shipped published reference tables")
    ref.set_defaults(func=_cmd_reference_tables)
    return parser


def _cmd_run(args):
    path = args.config_opt or args.config_path
    if path is None:
        raise ValueError("a config file is required (positional or --config)")
    config = parse_config(path)
    overrides = {}
    if args.out is not None:
        overrides["outdir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    rows = run_experiment(config)
    for r in rows:
        state = "converged" if r.converged else f"NOT converged ({r.reason})"
        print(f"{r.method} M={r.mesh} I={r.I} k={r.k} beta={r.beta:g}: "
              f"outer={r.outer_iters} LS={r.LS_total} {state}")
    print(f"wrote {config.outdir}/results.csv")
    return 0


def _cmd_compare(args):
    rows = load_rows(args.results)
    report = compare_table(rows, args.reference)
    for line in report.lines():
        print(line)
    verdict = "all cells pass" if report.all_pass else "some cells FAIL"
    print(f"{report.matched_rows} rows compared: {verdict}")
    return 0 if report.all_pass else 1


def _cmd_reference_tables(args):
    for name in reference_table_names():
        print(f"== {name} ==")
        print(read_reference_table(name))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

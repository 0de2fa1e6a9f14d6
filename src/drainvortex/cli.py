"""Command-line interface: run experiment grids and post-process stored
results into tables, statistics, and convergence data; `report` prints the
table, the statistics and the best feasible designs of one result directory."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import benchmarks, harness
from .errors import DrainVortexError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drainvortex",
        description="Run and analyze black-box optimization experiment grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument("--out", help="output directory (overrides the config)")
    run.add_argument("--parallel", type=int, help="worker processes (overrides the config)")
    run.add_argument("--seed", type=int, help="master seed (overrides the config)")

    tables = sub.add_parser("tables", help="print the per-case result table")
    tables.add_argument("--in", dest="in_dir", required=True, help="stored result directory")
    tables.add_argument("--format", choices=("plain", "latex"), default="plain")

    stats_cmd = sub.add_parser("stats", help="print rank and signed-rank test tables")
    stats_cmd.add_argument("--in", dest="in_dir", required=True, help="stored result directory")
    stats_cmd.add_argument(
        "--reference", help="reference algorithm for pairwise tests (default: first in config)"
    )

    report = sub.add_parser(
        "report", help="print the result table, the stats tables and the best feasible designs"
    )
    report.add_argument("--in", dest="in_dir", required=True, help="stored result directory")

    conv = sub.add_parser("convergence", help="print checkpoint convergence data as CSV")
    conv.add_argument("--in", dest="in_dir", required=True, help="stored result directory")
    conv.add_argument("--problems", help="comma-separated problem subset")

    lister = sub.add_parser("list", help="print catalog names")
    lister.add_argument("catalog", choices=("problems", "algorithms"))
    return parser


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.out is not None:
        config = replace(config, output=args.out)
    if config.output is None:
        print("error: no output directory (set --out or the config's output field)", file=sys.stderr)
        return 1
    result_set = harness.run_experiment(config, parallel=args.parallel)
    harness.emit_records(result_set, config.output)
    print(f"wrote {len(result_set.records)} records to {config.output}")
    if result_set.failures:
        print(f"{len(result_set.failures)} runs failed:", file=sys.stderr)
        for failure in result_set.failures:
            print(
                f"  {failure.algorithm} on {failure.problem}/d{failure.dim}"
                f" run {failure.run_index}: {failure.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "tables":
            result_set = harness.load_result_set(args.in_dir)
            print(harness.emit_result_table(result_set, fmt=args.format), end="")
            return 0
        if args.command == "stats":
            result_set = harness.load_result_set(args.in_dir)
            reference = args.reference or result_set.config.algorithm_names()[0]
            print(harness.emit_stat_tables(result_set, reference), end="")
            return 0
        if args.command == "report":
            result_set = harness.load_result_set(args.in_dir)
            print(harness.emit_result_table(result_set))
            print(harness.emit_stat_tables(result_set, result_set.config.algorithm_names()[0]))
            print(harness.emit_best_designs(result_set), end="")
            return 0
        if args.command == "convergence":
            result_set = harness.load_result_set(args.in_dir)
            problems = None if args.problems is None else args.problems.split(",")
            print(harness.emit_convergence(result_set, problems=problems), end="")
            return 0
        names = benchmarks.catalog_names() if args.catalog == "problems" else harness.ALGORITHMS
        print(*names, sep="\n")
        return 0
    except (DrainVortexError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

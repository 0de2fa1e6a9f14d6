"""Command-line interface: run experiment grids and post-process stored
results into tables, statistics, and convergence data."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import benchmarks, engine, harness
from .baselines import BASELINES
from .errors import DrainVortexError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drainvortex",
        description="Run and analyze black-box optimization experiment grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    ablation = sub.add_parser(
        "ablation",
        help="execute a config with the algorithm list expanded to the "
        f"{len(engine.ABLATION_VARIANTS)} dvo variants",
    )
    for p in (run, ablation):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--parallel", type=int, help="worker processes (overrides the config)")
        p.add_argument("--seed", type=int, help="master seed (overrides the config)")

    tables = sub.add_parser("tables", help="print the per-case result table")
    tables.add_argument("--in", dest="in_dir", required=True, help="stored result directory")
    tables.add_argument("--format", choices=("plain", "latex"), default="plain")

    stats_cmd = sub.add_parser("stats", help="print rank and signed-rank test tables")
    stats_cmd.add_argument("--in", dest="in_dir", required=True, help="stored result directory")
    stats_cmd.add_argument(
        "--reference", help="reference algorithm for pairwise tests (default: first in config)"
    )

    conv = sub.add_parser("convergence", help="print checkpoint convergence data as CSV")
    conv.add_argument("--in", dest="in_dir", required=True, help="stored result directory")
    conv.add_argument("--problems", help="comma-separated problem subset")

    lister = sub.add_parser("list", help="print catalog names")
    lister.add_argument("catalog", choices=("problems", "algorithms"))
    return parser


def _cmd_run(args, expand: bool) -> int:
    config = harness.load_config(args.config)
    if expand:
        config = harness.expand_ablation(config)
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


def _cmd_list(catalog: str) -> int:
    if catalog == "problems":
        names = benchmarks.catalog_names()
    else:
        names = ["dvo"] + sorted(BASELINES) + [
            f"dvo:{variant}" for variant in engine.ABLATION_VARIANTS
        ]
    for name in names:
        print(name)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("run", "ablation"):
            return _cmd_run(args, expand=args.command == "ablation")
        if args.command == "tables":
            result_set = harness.load_result_set(args.in_dir)
            print(harness.emit_result_table(result_set, fmt=args.format), end="")
            return 0
        if args.command == "stats":
            result_set = harness.load_result_set(args.in_dir)
            reference = args.reference or result_set.config.algorithm_names()[0]
            print(harness.emit_stat_tables(result_set, reference), end="")
            return 0
        if args.command == "convergence":
            result_set = harness.load_result_set(args.in_dir)
            problems = args.problems.split(",") if args.problems else None
            print(harness.emit_convergence(result_set, problems=problems), end="")
            return 0
        return _cmd_list(args.catalog)
    except (DrainVortexError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

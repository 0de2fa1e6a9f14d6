#!/usr/bin/env python3
"""Component toggle study: the full engine against its six reduced forms.

Runs every dvo:* variant on a small mixed problem set and prints the
per-case table plus signed-rank comparisons against the full engine.
"""

import argparse

from drainvortex.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    emit_records,
    emit_result_table,
    emit_stat_tables,
    expand_ablation,
    run_experiment,
)

DEFAULT_PROBLEMS = ("F1", "F5", "F9", "F10", "F16", "F18")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problems", nargs="+", default=list(DEFAULT_PROBLEMS))
    ap.add_argument("--dims", type=int, nargs="+", default=[30],
                    help="dimensions for any scalable problems in the set")
    ap.add_argument("--runs", type=int, default=30)
    ap.add_argument("--iterations", type=int, default=1000)
    ap.add_argument("--agents", type=int, default=30)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="results/ablation")
    args = ap.parse_args()

    config = expand_ablation(
        ExperimentConfig(
            suite="custom",
            problems=tuple(args.problems),
            dimensions=tuple(args.dims),
            algorithms=(AlgorithmSpec("dvo"),),
            runs=args.runs,
            iterations=args.iterations,
            n_agents=args.agents,
            master_seed=args.seed,
            workers=args.workers,
            output=args.out,
        )
    )
    result = run_experiment(config)
    emit_records(result, args.out)
    print(emit_result_table(result))
    print(emit_stat_tables(result, reference="dvo:full"))


if __name__ == "__main__":
    main()

"""Runs advanced in turn give the records of runs made alone.

`engine.run_optimizer` drives dvo and every baseline as a pair over explicit
state: `init(positions, fitness, settings)` builds the state and
`sweep(state, t, settings, problem, rng)` advances it. Nothing of one run may
live outside its state and its stream, so two runs whose sweeps alternate
must each give, byte for byte with wall time masked, the record that
`engine.run` or `BASELINES[name]` gives for it alone. Stacking runs depends
on this.
"""

from dataclasses import replace

import numpy as np
import pytest

from drainvortex import benchmarks, engine, harness
from drainvortex.baselines import _OPTIMIZERS, BASELINES
from drainvortex.records import RunRecord, build_record
from drainvortex.rng import RngStream

PAIRS = {"dvo": (engine.initialize, engine.sweep), **_OPTIMIZERS}
NAMES = ("dvo", *(f"dvo:{v}" for v in engine.ABLATION_VARIANTS), *BASELINES)
PROBLEMS = {
    # F6 has plateaus, so agents often tie
    "F6-d10": lambda: benchmarks.get_problem("F6", 10),
    "welded_beam": lambda: benchmarks.penalize(benchmarks.get_problem("welded_beam")),
}
SEEDS = (5, 6)
CHECKPOINTS = (1, 7, 20)


def _bytes(value):
    if value is None or isinstance(value, str):
        return repr(value).encode()
    if isinstance(value, dict):
        return b"".join(_bytes(k) + _bytes(v) for k, v in sorted(value.items()))
    return type(value).__name__.encode() + np.asarray(value).tobytes()


def masked(record):
    """Each field's type and bytes, wall time left out."""
    names = [name for name in RunRecord.__dataclass_fields__ if name != "walltime_ms"]
    return {name: _bytes(getattr(record, name)) for name in names}


def alone(name, problem, settings, seed):
    if name.startswith("dvo"):
        return engine.run(problem, settings, seed, checkpoints=CHECKPOINTS, algorithm=name)
    return BASELINES[name](problem, settings, seed, checkpoints=CHECKPOINTS)


def interleaved(name, problem, settings, seeds):
    """One record per seed, from runs whose sweeps alternate."""
    init, sweep = PAIRS[name.partition(":")[0]]
    if not name.startswith("dvo"):
        settings = replace(settings, params=settings.resolved())
    runs = []
    for seed in seeds:
        rng = RngStream(seed)
        positions, fitness = engine.initial_population(problem, settings.n_agents, rng)
        state = init(positions, fitness, settings)
        runs.append({"rng": rng, "state": state, "evaluations": fitness.size, "trace": []})
    for t in range(settings.iterations):
        for run in runs:
            evaluated, run["position"], value = sweep(run["state"], t, settings, problem, run["rng"])
            run["evaluations"] += evaluated
            run["trace"].append(value)
    return [
        build_record(
            algorithm=name,
            problem=problem,
            run_index=0,
            seed=seed,
            best_position=run["position"],
            best_value=run["trace"][-1],
            trace=run["trace"],
            evaluations=run["evaluations"],
            walltime_ms=0.0,
            checkpoint_iters=CHECKPOINTS,
        )
        for seed, run in zip(seeds, runs)
    ]


@pytest.mark.parametrize("case", sorted(PROBLEMS))
@pytest.mark.parametrize("name", NAMES)
def test_interleaved_runs_match_runs_alone(name, case):
    problem = PROBLEMS[case]()
    settings = harness._resolve_algorithm(name, {}, n_agents=10, iterations=20)
    records = interleaved(name, problem, settings, SEEDS)
    for seed, record in zip(SEEDS, records):
        assert masked(record) == masked(alone(name, problem, settings, seed))
    assert masked(records[0]) != masked(records[1])

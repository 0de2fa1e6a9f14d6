"""Runs advanced in turn give the records of runs made alone.

`engine.run_optimizer` drives dvo and every baseline as a pair over explicit
state: `init(positions, fitness, settings)` builds the state of the runs'
stacked populations and the generator `sweep(state, t, settings, batch)`
advances every run of an `engine.Batch`, yielding the points it needs
evaluated (conftest's `drive` evaluates them here). Nothing of one run may
live outside its state and its stream, so two runs, each its own batch,
whose sweeps alternate must each give, byte for byte with wall time masked,
the record that `engine.run` or `BASELINES[name]` gives for it alone.
Stacking runs depends on this; `test_batch_reference.py` checks the stacked
runs themselves.

The layout contract: every block a sweep yields, the reply it receives and
the initial pair its init receives have the batch's stacked shape, `(R, n,
...)` for R runs and `(n, ...)` for a run alone; a baseline's state keeps
that shape (its best position with a one-agent axis), and dvo's state keeps
its run-major rows.
"""

from dataclasses import fields

import numpy as np
import pytest
from conftest import drive

from drainvortex import benchmarks, engine, harness
from drainvortex.baselines import BASELINES, OPTIMIZERS
from drainvortex.records import RunRecord, build_record
from drainvortex.rng import RngStream

PAIRS = {"dvo": (engine.initialize, engine.sweep), **OPTIMIZERS}
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
    runs = []
    for seed in seeds:
        batch = engine.Batch((problem,), (RngStream(seed),))
        positions, fitness = drive(engine.initial_population(batch, settings.n_agents), batch)
        state = init(positions, fitness, settings)
        runs.append({"batch": batch, "state": state, "evaluations": fitness.size, "trace": []})
    for t in range(settings.iterations):
        for run in runs:
            batch = run["batch"]
            evaluated, positions, values = drive(sweep(run["state"], t, settings, batch), batch)
            run["evaluations"] += evaluated
            run["position"] = positions[0]
            run["trace"].append(values[0])
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


def watched(sweep, seen):
    """`sweep` with the shape of each block it yields and each reply it
    receives appended to `seen`, and its state after the sweep."""

    def watched_sweep(state, t, settings, batch):
        generator = sweep(state, t, settings, batch)
        block = next(generator)
        try:
            while True:
                seen.append(("block", block.shape))
                values = yield block
                seen.append(("reply", values.shape))
                block = generator.send(values)
        except StopIteration as done:
            seen.append(("state", state))
            return done.value

    return watched_sweep


def stacked(runs, *shape):
    """A per-run shape in the stacked shape of a batch of `runs` runs."""
    return (runs, *shape) if runs > 1 else shape


def expected_state(name, runs, n, d, k):
    if name.startswith("dvo"):
        return {
            "positions": (runs * n, d),
            "fitness": (runs * n,),
            "drains": (runs * k, d),
            "drain_fitness": (runs * k,),
            "stagnation": (runs * n,),
        }
    return {
        "positions": stacked(runs, n, d),
        "fitness": stacked(runs, n),
        "best_position": stacked(runs, 1, d),
        "best_value": (runs,),
        "velocity": stacked(runs, n, d),
        "pbest": stacked(runs, n, d),
        "pbest_fit": stacked(runs, n),
        "elites": stacked(runs, 4, d),
        "elite_fit": stacked(runs, 4),
    }


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("name", NAMES)
def test_blocks_replies_and_states_keep_the_stacked_shape(name, runs):
    problem = benchmarks.get_problem("F6", 10)
    settings = harness._resolve_algorithm(name, {}, n_agents=10, iterations=4)
    n, d, k = settings.n_agents, problem.dim, getattr(settings, "n_drains", 0)
    init, sweep = PAIRS[name.partition(":")[0]]
    seen, initial = [], []

    def watched_init(positions, fitness, settings):
        initial.append((positions.shape, fitness.shape))
        return init(positions, fitness, settings)

    triples = [(problem, seed, 0) for seed in range(runs)]
    group = engine.Group(name, watched_init, watched(sweep, seen), settings, triples)
    records = engine.run_optimizer([group])
    assert initial == [(stacked(runs, n, d), stacked(runs, n))]
    blocks = [shape for kind, shape in seen if kind == "block"]
    replies = [shape for kind, shape in seen if kind == "reply"]
    assert blocks == [stacked(runs, n, d)] * settings.iterations
    assert replies == [stacked(runs, n)] * settings.iterations
    want = expected_state(name, runs, n, d, k)
    for state in [value for kind, value in seen if kind == "state"]:
        shapes = {f.name: getattr(state, f.name).shape for f in fields(state)}
        assert shapes == {field: want[field] for field in shapes}
    assert [record.best_position.shape for record in records] == [(d,)] * runs

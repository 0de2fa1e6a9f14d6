"""Runs stepped together in one batch against the same runs made alone.

`engine.run_optimizer` steps the runs of one dimension as one run-major
stack: each run draws from its own stream exactly what its solo run draws,
is evaluated on its own problem, and keeps its own box, drains, elites and
best so far. So every record of a batch must equal, byte for byte with wall
time masked, the record `engine.run` or `BASELINES[name]` gives for its run
alone, whatever the batch's size, its other runs and the run's place in it.
Where a verbatim run loop of `test_driver_reference` exists, the record is
checked against it too.

The batches cover ties (F6 plateaus), noise drawn from each run's stream
(F7), a non-vectorized per-point plugin, a plugin whose NaN values become
inf, the penalized designs (`welded_beam` with `pressure_vessel`, which
share dimension 4, and `speed_reducer` with an unconstrained problem), in
batches of 1, 2 and 7 runs of one problem and of several.
"""

import math

import numpy as np
import pytest
from test_driver_reference import REFERENCE_BASELINES, _reference_run, assert_same_record

from drainvortex import benchmarks, engine, harness
from drainvortex.baselines import BASELINES, OPTIMIZERS
from drainvortex.benchmarks import ProblemSpec, clear_plugins, register_plugin
from drainvortex.harness import AlgorithmSpec, ExperimentConfig, FailureRecord, run_experiment

NAMES = ("dvo", *(f"dvo:{v}" for v in engine.ABLATION_VARIANTS), *BASELINES)
N_AGENTS, ITERATIONS = 8, 12
CHECKPOINTS = (1, 6, 12)


def _nan_corner(x):
    return math.nan if x[0] > 0.7 else float(np.sum(x * x))


def _abs_sum(x):
    return float(np.sum(np.abs(x - 0.5)))


def catalog(name, dim=None):
    problem = benchmarks.get_problem(name, dim)
    return benchmarks.penalize(problem) if problem.constrained else problem


PROBLEMS = {
    # F6 has plateaus, so agents and runs often tie
    "F6": lambda: catalog("F6", 10),
    "F7": lambda: catalog("F7", 10),
    "F9": lambda: catalog("F9", 10),
    # a NaN objective value is inf to the optimizers
    "nan": lambda: ProblemSpec(
        name="nan-corner", dim=10, lower=np.zeros(10), upper=np.ones(10), objective=_nan_corner
    ),
    # called once per point, on a box of its own
    "per-point": lambda: ProblemSpec(
        name="per-point", dim=10, lower=np.full(10, -2.0), upper=np.full(10, 3.0), objective=_abs_sum
    ),
    "welded_beam": lambda: catalog("welded_beam"),
    "pressure_vessel": lambda: catalog("pressure_vessel"),
    "speed_reducer": lambda: catalog("speed_reducer"),
    "F9-d7": lambda: catalog("F9", 7),
}

# each batch as its runs' problems, run i taking seed 100 + i
BATCHES = {
    "F6-x1": ["F6"],
    "F6-x2": ["F6", "F6"],
    "F6-x7": ["F6"] * 7,
    "F7-x2": ["F7", "F7"],
    "d10-x7": ["F6", "F7", "F9", "nan", "per-point", "F9", "F6"],
    "d10-x2": ["per-point", "nan"],
    "d4-x2": ["welded_beam", "pressure_vessel"],
    "d7-x2": ["speed_reducer", "F9-d7"],
}


def settings_of(name):
    return harness._resolve_algorithm(name, {}, N_AGENTS, ITERATIONS)


def batched(name, runs):
    return engine.run_optimizer(
        runs, *harness._optimizer(name), settings_of(name), name, CHECKPOINTS
    )


def alone(name, problem, seed, run_index):
    settings = settings_of(name)
    kwargs = dict(checkpoints=CHECKPOINTS, run_index=run_index)
    if name.startswith("dvo"):
        return engine.run(problem, settings, seed, algorithm=name, **kwargs)
    return BASELINES[name](problem, settings, seed, **kwargs)


def reference(name, problem, seed, run_index):
    settings = settings_of(name)
    kwargs = dict(checkpoints=CHECKPOINTS, run_index=run_index)
    if name.startswith("dvo"):
        return _reference_run(problem, settings, seed, algorithm=name, **kwargs)
    return REFERENCE_BASELINES[name](problem, settings, seed, **kwargs)


@pytest.mark.parametrize("case", sorted(BATCHES))
@pytest.mark.parametrize("name", NAMES)
def test_batched_records_equal_solo_records(name, case):
    runs = [(PROBLEMS[key](), 100 + i, i) for i, key in enumerate(BATCHES[case])]
    records = batched(name, runs)
    assert len(records) == len(runs)
    for record, (problem, seed, run_index) in zip(records, runs):
        assert (record.problem, record.seed, record.run_index) == (problem.name, seed, run_index)
        assert_same_record(record, alone(name, problem, seed, run_index))
        assert_same_record(record, reference(name, problem, seed, run_index))


@pytest.mark.parametrize("name", NAMES)
def test_a_record_does_not_depend_on_its_place_in_the_batch(name):
    runs = [(PROBLEMS[key](), 100 + i, i) for i, key in enumerate(BATCHES["d10-x7"])]
    forward = batched(name, runs)
    backward = batched(name, runs[::-1])[::-1]
    rotated = batched(name, runs[3:] + runs[:3])
    rotated = rotated[-3:] + rotated[:-3]
    for got in (backward, rotated):
        for a, b in zip(forward, got):
            assert_same_record(a, b)


def test_a_batch_holds_one_dimension():
    runs = [(catalog("F1", 2), 0, 0), (catalog("F1", 3), 1, 1)]
    with pytest.raises(ValueError, match="one dimension"):
        batched("pso", runs)


def test_every_optimizer_is_covered():
    assert set(NAMES) == {"dvo", *(f"dvo:{v}" for v in engine.ABLATION_VARIANTS), *OPTIMIZERS}


# ---------------------------------------------------------------------------
# the harness's batches
# ---------------------------------------------------------------------------


def masked(records):
    return [{**harness._record_to_dict(r), "walltime_ms": None} for r in records]


def grid(problems, **overrides):
    base = dict(
        suite="custom",
        problems=problems,
        dimensions=(2,),
        algorithms=(AlgorithmSpec("dvo"), AlgorithmSpec("pso")),
        runs=3,
        iterations=6,
        n_agents=6,
        checkpoints=(3, 6),
    )
    return ExperimentConfig(**{**base, **overrides})


def test_batches_hold_one_algorithm_at_one_dimension_in_grid_order():
    config = grid(("F1", "F16", "F5"), dimensions=(2, 3), runs=2)
    runs = config.grid_runs()
    batches = harness._batches(runs, 3)
    batched_runs = [run for batch in batches for run in batch]
    assert sorted(batched_runs) == sorted(runs) and len(batched_runs) == len(runs)
    for batch in batches:
        assert 1 <= len(batch) <= 3
        assert len({(run[0], run[2]) for run in batch}) == 1
        assert batch == sorted(batch, key=runs.index)
    # F1 and F5 at d2 share their batches with F16, a fixed problem of dimension 2
    assert ("dvo", "F16", 2, 0) in harness._batches(runs, len(runs))[0]


def test_a_run_that_raises_fails_alone_and_its_batch_mates_keep_their_records():
    def raising(x):
        # the message names a point of the run's own initial population
        raise RuntimeError(f"boom at {x[0]!r}")

    register_plugin(
        ProblemSpec(name="raising", dim=2, lower=-np.ones(2), upper=np.ones(2), objective=raising)
    )
    try:
        mixed = run_experiment(grid(("F1", "raising")))
        plugin_alone = run_experiment(grid(("raising",)))
    finally:
        clear_plugins()
    f1_alone = run_experiment(grid(("F1",)))
    assert masked(mixed.records) == masked(f1_alone.records)
    assert len(mixed.failures) == 6
    assert mixed.failures == plugin_alone.failures
    assert all(isinstance(f, FailureRecord) and f.problem == "raising" for f in mixed.failures)
    assert len({f.message for f in mixed.failures}) == 6
    assert all(f.message.startswith("RuntimeError: boom at ") for f in mixed.failures)


def test_wall_time_is_the_batch_time_shared_out():
    runs = [(catalog("F1", 2), seed, seed) for seed in range(4)]
    records = batched("dvo", runs)
    assert len({r.walltime_ms for r in records}) == 1
    assert records[0].walltime_ms > 0.0

"""Runs stepped together in one batch against the same runs made alone.

`engine.run_optimizer` steps groups of runs of one dimension in lockstep.
A group is one optimizer's runs as one run-major stack: each run draws from
its own stream exactly what its solo run draws and keeps its own box,
drains, elites and best so far. The runs of every group that share a
vectorized, noise-free problem object share one objective call per sweep;
every other run is evaluated alone, on its own stream. So every record of a
batch must equal, byte for byte with wall time masked, the record
`engine.run` or `BASELINES[name]` gives for its run alone, whatever the
batch's size, its other runs and groups and the run's place in it. Where a
verbatim run loop of `test_driver_reference` exists, the record is checked
against it too.

The batches cover ties (F6 plateaus), noise drawn from each run's stream
(F7), a non-vectorized per-point plugin, a vectorized plugin, a plugin
whose NaN values become inf, the penalized designs (`welded_beam` with
`pressure_vessel`, which share dimension 4, and `speed_reducer` with an
unconstrained problem), in batches of 1, 2 and 7 runs of one problem and of
several, and batches of all 14 algorithms together whose cases each have
one problem object.
"""

import math
import time
from collections import Counter

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


def _shifted_quartic(x):
    return np.sum((x - 0.25) ** 4, axis=-1)


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
    # called once per batch of rows, on a box of its own
    "vectorized": lambda: ProblemSpec(
        name="vectorized",
        dim=10,
        lower=np.full(10, -1.0),
        upper=np.full(10, 2.0),
        objective=_shifted_quartic,
        vectorized=True,
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


def settings_of(name, iterations=ITERATIONS):
    return harness._resolve_algorithm(name, {}, N_AGENTS, iterations)


def group(name, runs, iterations=ITERATIONS):
    return engine.Group(name, *harness._optimizer(name), settings_of(name, iterations), runs)


def batched(name, runs):
    return engine.run_optimizer([group(name, runs)], CHECKPOINTS)


def alone(name, problem, seed, run_index, iterations=ITERATIONS):
    settings = settings_of(name, iterations)
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


def counted_calls(monkeypatch):
    """The (problem name, rows) of every `benchmarks.evaluate` call from here on."""
    calls = []
    evaluate = benchmarks.evaluate

    def counting(problem, points, rng):
        calls.append((problem.name, len(points)))
        return evaluate(problem, points, rng)

    monkeypatch.setattr(benchmarks, "evaluate", counting)
    return calls


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
# groups of several algorithms in one batch
# ---------------------------------------------------------------------------


# each mixed batch as its cases; every run of a case gets the case's one problem object
MIXED = {
    "d10": ["F6", "F7", "F9", "nan", "per-point", "vectorized"],
    "d4": ["welded_beam", "pressure_vessel"],
}


def mixed_groups(keys, runs_per_case=2, names=NAMES):
    """One group per name, each with `runs_per_case` runs of every case of
    `keys`, the runs of a case sharing its problem object; seeds count up."""
    problems = [PROBLEMS[key]() for key in keys]
    seeds = iter(range(200, 10**6))
    return [
        group(name, [(p, next(seeds), i) for p in problems for i in range(runs_per_case)])
        for name in names
    ]


@pytest.mark.parametrize("case", sorted(MIXED))
def test_a_batch_of_every_algorithm_gives_each_run_its_solo_record(case):
    groups = mixed_groups(MIXED[case])
    records = engine.run_optimizer(groups, CHECKPOINTS)
    runs = [(g.algorithm, *run) for g in groups for run in g.runs]
    assert len(records) == len(runs)
    for record, (name, problem, seed, run_index) in zip(records, runs):
        assert (record.algorithm, record.problem, record.seed) == (name, problem.name, seed)
        assert record.run_index == run_index
        assert_same_record(record, alone(name, problem, seed, run_index))
        assert_same_record(record, reference(name, problem, seed, run_index))


def test_shared_problems_get_one_call_per_sweep_and_the_others_one_per_run(monkeypatch):
    calls = counted_calls(monkeypatch)
    names = ("dvo", "pso", "eo")
    engine.run_optimizer(
        mixed_groups(["F9", "F7", "per-point", "vectorized"], 3, names), CHECKPOINTS
    )
    # the initial populations and every sweep: F9 and the vectorized plugin
    # in one call of every run's rows, noisy F7 and the per-point plugin
    # one call per run
    rounds, runs = ITERATIONS + 1, len(names) * 3
    assert Counter(calls) == {
        ("F9", runs * N_AGENTS): rounds,
        ("vectorized", runs * N_AGENTS): rounds,
        ("F7", N_AGENTS): runs * rounds,
        ("per-point", N_AGENTS): runs * rounds,
    }


def test_a_group_with_fewer_sweeps_ends_at_its_own_sweep(monkeypatch):
    problem = PROBLEMS["F9"]()
    short = group("pso", [(problem, 1, 0), (problem, 2, 1)], iterations=5)
    long = group("dvo", [(problem, 3, 0)])
    calls = counted_calls(monkeypatch)
    records = engine.run_optimizer([short, long], CHECKPOINTS)
    # the pooled call holds both groups for the short group's 6 rounds, and
    # the long group alone after them
    assert calls == [("F9", 3 * N_AGENTS)] * 6 + [("F9", N_AGENTS)] * (ITERATIONS - 5)
    assert [len(r.trace) for r in records] == [5, 5, ITERATIONS]
    assert [r.evaluations for r in records] == [6 * N_AGENTS] * 2 + [(ITERATIONS + 1) * N_AGENTS]
    assert_same_record(records[0], alone("pso", problem, 1, 0, iterations=5))
    assert_same_record(records[1], alone("pso", problem, 2, 1, iterations=5))
    assert_same_record(records[2], alone("dvo", problem, 3, 0))


def test_wall_time_is_each_groups_time_shared_out():
    problem = catalog("F1", 2)
    runs = [(problem, seed, seed) for seed in range(4)]
    started = time.perf_counter()
    records = engine.run_optimizer(
        [group("pso", runs, iterations=60), group("eo", runs, iterations=3)], CHECKPOINTS
    )
    elapsed_ms = (time.perf_counter() - started) * 1e3
    long, short = {r.walltime_ms for r in records[:4]}, {r.walltime_ms for r in records[4:]}
    assert len(long) == len(short) == 1
    # 60 sweeps against 3, sharing the objective calls of the first 4 rounds
    assert long.pop() > short.pop() > 0.0
    assert sum(r.walltime_ms for r in records) <= elapsed_ms


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


def test_batches_hold_whole_cases_of_one_dimension_in_grid_order():
    config = grid(("F1", "F16", "F5"), dimensions=(2, 3), runs=2)
    runs = config.grid_runs()
    batches = harness._batches(config, 3)
    batched_runs = [run for batch in batches for run in batch]
    assert sorted(batched_runs) == sorted(runs) and len(batched_runs) == len(runs)
    for batch in batches:
        assert len({run[2] for run in batch}) == 1
        assert batch == sorted(batch, key=runs.index)
        # every algorithm's runs of the batch's whole cases, at most 3 of each algorithm
        cases = {run[1] for run in batch}
        whole = [run for run in runs if run[1] in cases and run[2] == batch[0][2]]
        assert batch == whole and len(batch) <= 3 * len(config.algorithms)
    # with room for them, F1 and F5 at d2 share their batch with F16, a fixed
    # problem of dimension 2, and every algorithm's runs of them
    assert [len(batch) for batch in harness._batches(config, harness.BATCH_RUNS)] == [12, 8]
    # a case of more runs than a batch holds is cut into pieces of whole runs
    pieces = harness._batches(grid(("F1",), runs=7), 3)
    assert [[run[3] for run in batch if run[0] == "pso"] for batch in pieces] == [
        [0, 1, 2],
        [3, 4, 5],
        [6],
    ]


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


def test_a_pooled_call_that_raises_fails_only_the_runs_that_raise_alone():
    def touchy(x):
        # vectorized: a call raises when one of its rows comes near a corner
        if (x[..., 0] > 0.9).any():
            raise RuntimeError(f"touched at {x[..., 0].max()!r}")
        return np.sum(x * x, axis=-1)

    register_plugin(
        ProblemSpec(
            name="touchy",
            dim=2,
            lower=-np.ones(2),
            upper=np.ones(2),
            objective=touchy,
            vectorized=True,
        )
    )
    try:
        config = grid(("F1", "touchy"), runs=6)
        settings = {
            spec.name: harness._resolve_algorithm(spec.name, {}, config.n_agents, config.iterations)
            for spec in config.algorithms
        }
        mixed = run_experiment(config)
        runs = config.grid_runs()
        solo = [o for run in runs for o in harness._execute_batch(config, settings, {}, [run])]
    finally:
        clear_plugins()
    assert masked(mixed.records) == masked([o for o in solo if not isinstance(o, FailureRecord)])
    assert mixed.failures == [o for o in solo if isinstance(o, FailureRecord)]
    # some runs of the plugin raise alone and some do not, in both groups
    touched = {(f.algorithm, f.run_index) for f in mixed.failures}
    kept = {(r.algorithm, r.run_index) for r in mixed.records if r.problem == "touchy"}
    assert {name for name, _ in touched} == {name for name, _ in kept} == {"dvo", "pso"}

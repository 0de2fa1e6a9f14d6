import os
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, settings

import drainvortex
from drainvortex import benchmarks, engine

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def child_env():
    """Environment for a `python -m drainvortex` child process.

    The child imports the same copy of the package as this test process,
    whatever its working directory and whether or not the package is
    installed: `PYTHONPATH` is headed by the absolute directory holding
    `drainvortex`, and every inherited entry follows it, made absolute
    against this process's working directory.
    """
    entries = [str(Path(drainvortex.__file__).resolve().parents[1])]
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        entries += [os.path.abspath(entry) for entry in inherited.split(os.pathsep)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}


def masked(records):
    """Each record's line of records.jsonl, wall time masked."""
    return [drainvortex.records.encode(replace(r, walltime_ms=None)) for r in records]


def drive(generator, batch):
    """Run a sweep generator (or `engine.initial_population`) of a batch of
    one run to its end, and return what it returns: each block of points it
    yields is clipped to the box in place and gets the values
    `benchmarks.evaluate` gives on the run's problem and stream, as
    `engine.run_optimizer` treats a run alone."""
    problem, stream = batch.problems[0], batch.streams[0]
    try:
        points = next(generator)
        while True:
            engine.clip_bounds(points, batch)
            points = generator.send(benchmarks.evaluate(problem, points, stream))
    except StopIteration as done:
        return done.value

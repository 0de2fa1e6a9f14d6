"""Run and failure records, the common result contract for every optimizer,
and their stored form: a RunRecord's line of records.jsonl and a
FailureRecord's entry of failures.json."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import benchmarks
from .errors import ConfigError

Array = np.ndarray

SCHEMA_VERSION = 1

DEFAULT_CHECKPOINTS = (50, 100, 200, 400, 700, 1000)

# absolute errors below this floor saturate (log10 -> -12.0)
LOG_ERROR_FLOOR = 1e-12


def floored_log10(value: float) -> float:
    """log10 of |value| with the reporting floor applied."""
    return math.log10(max(abs(value), LOG_ERROR_FLOOR))


@dataclass
class RunRecord:
    """One optimizer run: final solution, error metrics, and trace.

    `best_value` is the value of the objective the optimizer actually
    minimized (the penalized one for constrained problems);
    `objective_value` is the raw constrained objective at the final point.
    `trace` holds the best-so-far value after each sweep (length T).
    `checkpoints` maps sweep number -> best-so-far error at that sweep
    (raw best value when no optimum is known). `walltime_ms` is the wall
    time of the run's group, the runs of its algorithm that
    `engine.run_optimizer` stepped together, divided by their number: the
    group's own steps plus its row share of each objective call it shared
    with other groups, the same for each run of the group (a run alone is a
    group of one).
    """

    algorithm: str
    problem: str
    dim: int
    run_index: int
    seed: int
    best_position: Array
    best_value: float
    trace: Array
    evaluations: int
    walltime_ms: float
    f_true: Optional[float] = None
    error: Optional[float] = None
    log10_error: Optional[float] = None
    objective_value: Optional[float] = None
    feasible: Optional[bool] = None
    max_violation: Optional[float] = None
    checkpoints: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FailureRecord:
    """A grid run that raised, with its exception's type and text."""

    algorithm: str
    problem: str
    dim: int
    run_index: int
    message: str


def build_record(
    algorithm: str,
    problem: "benchmarks.ProblemSpec",
    run_index: int,
    seed: int,
    best_position: Array,
    best_value: float,
    trace,
    evaluations: int,
    walltime_ms: float,
    checkpoint_iters=DEFAULT_CHECKPOINTS,
    feasibility_tol=benchmarks.DEFAULT_FEASIBILITY_TOL,
) -> RunRecord:
    """Assemble a RunRecord, deriving error and feasibility fields
    (`feasible` at `feasibility_tol`)."""
    trace = np.asarray(trace, dtype=float)
    f_true = problem.f_true
    error = log_err = None
    if f_true is not None:
        error = float(best_value - f_true)
        log_err = floored_log10(error)

    objective_value = feasible = max_violation = None
    if problem.constrained:
        raw = problem.raw_objective or problem.objective
        objective_value = float(raw(np.asarray(best_position, dtype=float)))
        feasible, max_violation = benchmarks.feasibility(best_position, problem, feasibility_tol)

    # checkpoint c reads the best-so-far after sweep c (1-based); the in-range
    # sweeps are kept once each, in ascending order
    checkpoints = {}
    for c in sorted({int(c) for c in checkpoint_iters if 1 <= c <= trace.size}):
        v = trace[c - 1]
        checkpoints[c] = float(v - f_true) if f_true is not None else float(v)

    return RunRecord(
        algorithm=algorithm,
        problem=problem.name,
        dim=problem.dim,
        run_index=run_index,
        seed=seed,
        best_position=np.asarray(best_position, dtype=float).copy(),
        best_value=float(best_value),
        trace=trace,
        evaluations=int(evaluations),
        walltime_ms=float(walltime_ms),
        f_true=f_true,
        error=error,
        log10_error=log_err,
        objective_value=objective_value,
        feasible=feasible,
        max_violation=max_violation,
        checkpoints=checkpoints,
    )


def _numbers(values) -> bool:
    return set(map(type, values)) <= {int, float}


def _same(value):
    return value


def _sweep_numbers(mapping) -> bool:
    """Whether each key is the text json writes for an int: ASCII digits, no leading zero."""
    return all(k.isascii() and k.isdecimal() and k == str(int(k)) for k in mapping)


# each stored field's JSON shape by its annotation: its text in messages, the
# check of a JSON value, and the conversions of a value out to JSON and back
Shape = namedtuple("Shape", "description check out back", defaults=(_same, _same))
SHAPES = {
    "str": Shape("a string", lambda v: type(v) is str),
    "int": Shape("an integer", lambda v: type(v) is int),
    "float": Shape("a number", lambda v: _numbers((v,))),
    "Optional[float]": Shape("a number or null", lambda v: v is None or _numbers((v,))),
    "Optional[bool]": Shape("true, false or null", lambda v: v is None or type(v) is bool),
    "Array": Shape(
        "a list of numbers",
        lambda v: type(v) is list and _numbers(v),
        lambda a: np.asarray(a, dtype=float).tolist(),
        lambda v: np.asarray(v, dtype=float),
    ),
    "dict": Shape(
        "a mapping of sweep numbers to numbers",
        lambda v: type(v) is dict and _sweep_numbers(v) and _numbers(v.values()),
        # json writes the integer sweep numbers as text
        back=lambda v: {int(k): x for k, x in v.items()},
    ),
}

# each stored kind's name in messages, and its (field, shape) pairs in order
LABELS = {RunRecord: "record", FailureRecord: "failure"}
_STORED = {kind: [(f.name, SHAPES[f.type]) for f in fields(kind)] for kind in LABELS}


def _values(record) -> dict:
    return {name: shape.out(getattr(record, name)) for name, shape in _STORED[type(record)]}


def encode(record: RunRecord) -> str:
    """`record`'s line of records.jsonl, with no newline: the schema
    version, then its fields in declaration order."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **_values(record)})


def encode_failures(failures) -> str:
    """The text of failures.json: a list of each failure's fields."""
    return json.dumps([_values(f) for f in failures], indent=2) + "\n"


def decode(kind, data, source: str):
    """The RunRecord or FailureRecord (`kind`) that `data`, a parsed
    records.jsonl line or failures.json entry, stores. A line of another
    schema version, and an entry that is not a mapping, misses a field or
    holds a field of the wrong JSON shape, is a ConfigError naming `source`."""
    label = LABELS[kind]
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: a {label} must be a mapping, got {type(data).__name__}"])
    if kind is RunRecord and data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError([f"{source}: unsupported schema version {data.get('schema_version')!r}"])
    stored = _STORED[kind]
    missing = [name for name, _ in stored if name not in data]
    if missing:
        raise ConfigError([f"{source}: missing {label} field {name!r}" for name in missing])
    bad = [
        f"{source}: {label} field {name!r} must be {shape.description}, got {type(data[name]).__name__}"
        for name, shape in stored
        if not shape.check(data[name])
    ]
    if bad:
        raise ConfigError(bad)
    return kind(**{name: shape.back(data[name]) for name, shape in stored})

"""Run records: the common result contract for every optimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import benchmarks

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

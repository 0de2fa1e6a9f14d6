"""Workload grids, correctness checks and the records digest.

Each workload is an experiment config built from the master seed alone, so
the same seed always gives the same grid and the same records. The grids are
short (a fraction of a second) so that one run of the benchmark repeats each
many times and can report the fastest repetition.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from drainvortex import benchmarks
from drainvortex.baselines import BASELINES
from drainvortex.records import RunRecord

BASELINE_NAMES = tuple(BASELINES)

WORKLOADS = ("dvo_sweep", "baselines_constrained", "catalog_short_grid")


def workload_config(name: str, seed: int, workers: int) -> dict:
    """The experiment config of one workload, in the JSON config format."""
    execution = {"n_agents": 30, "master_seed": seed, "workers": 1}
    if name == "dvo_sweep":
        return {
            "suite": "custom",
            "problems": ["F1", "F5", "F9", "F10", "F16"],
            "dimensions": [30],
            "algorithms": ["dvo"],
            "execution": {**execution, "runs": 1, "iterations": 40},
            "checkpoints": [1, 10, 20, 40],
        }
    if name == "baselines_constrained":
        return {
            "suite": "engineering",
            "algorithms": list(BASELINE_NAMES),
            "execution": {**execution, "runs": 1, "iterations": 10},
            "checkpoints": [1, 5, 10],
        }
    if name == "catalog_short_grid":
        return {
            "suite": "custom",
            "problems": benchmarks.catalog_names(),
            "dimensions": [10],
            "algorithms": ["dvo", *BASELINE_NAMES],
            "execution": {**execution, "runs": 1, "iterations": 5, "workers": workers},
            "checkpoints": [1, 2, 5],
        }
    raise KeyError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


def shrink(data: dict) -> dict:
    """The same grid cut to one run of five sweeps (for the self-test)."""
    execution = {**data["execution"], "runs": 1, "iterations": 5}
    return {**data, "execution": execution, "checkpoints": [1, 2, 5]}


def expected_runs(config) -> int:
    return len(config.algorithms) * len(config.case_list()) * config.runs


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

_MASKED = ("walltime_ms",)
_FIELDS = tuple(f.name for f in dataclasses.fields(RunRecord) if f.name not in _MASKED)


def _key(record):
    return (record.algorithm, record.problem, record.dim, record.run_index)


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict)
            and isinstance(b, dict)
            and sorted(a) == sorted(b)
            and all(_same(a[k], b[k]) for k in a)
        )
    if isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        return isinstance(a, (bool, np.bool_)) and isinstance(b, (bool, np.bool_)) and a == b
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        return fa == fb or (math.isnan(fa) and math.isnan(fb))
    return a == b


def check_result(config, result_set, reloaded) -> list:
    """Every violated correctness condition of one grid, as messages.

    `reloaded` is the result set read back from disk after `emit_records`.
    """
    problems = []
    want = expected_runs(config)
    if len(result_set.records) != want:
        problems.append(f"{len(result_set.records)} records, the grid has {want} runs")
    if result_set.failures:
        first = result_set.failures[0]
        problems.append(
            f"{len(result_set.failures)} runs failed, first {first.algorithm} on "
            f"{first.problem}/d{first.dim} run {first.run_index}: {first.message}"
        )
    evaluations = config.n_agents * (config.iterations + 1)
    for r in result_set.records:
        name = "/".join(map(str, _key(r)))
        if r.evaluations != evaluations:
            problems.append(f"{name}: {r.evaluations} evaluations, expected {evaluations}")
        trace = np.asarray(r.trace, dtype=float)
        if trace.size != config.iterations:
            problems.append(f"{name}: trace has {trace.size} entries")
        elif not (np.diff(trace) <= 0).all():
            problems.append(f"{name}: trace is not non-increasing")
        elif trace[-1] != r.best_value:
            problems.append(f"{name}: trace ends at {trace[-1]!r}, best_value {r.best_value!r}")

    stored = {_key(r): r for r in reloaded.records}
    if len(stored) != len(reloaded.records) or set(stored) != {_key(r) for r in result_set.records}:
        problems.append("records on disk are not the records of the run")
    for r in result_set.records:
        other = stored.get(_key(r))
        if other is None:
            continue
        for f in _FIELDS:
            if not _same(getattr(r, f), getattr(other, f)):
                problems.append(f"{'/'.join(map(str, _key(r)))}: field {f} differs on disk")
    return problems


def _encode(value) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, np.ndarray):
        return b"A" + np.ascontiguousarray(value, dtype="<f8").tobytes()
    if isinstance(value, dict):
        return b"D" + b"".join(_encode(k) + _encode(value[k]) for k in sorted(value))
    if isinstance(value, (bool, np.bool_)):
        return b"T" if value else b"F"
    if isinstance(value, (int, np.integer)):
        return b"I" + str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return b"R" + float(value).hex().encode()
    return b"S" + str(value).encode()


def records_digest(records) -> str:
    """sha256 over every record field but the wall time, in grid-key order."""
    h = hashlib.sha256()
    for r in sorted(records, key=_key):
        for f in _FIELDS:
            h.update(f.encode() + b"=" + _encode(getattr(r, f)) + b";")
    return h.hexdigest()


def quality(result_set) -> dict:
    """Solution quality of a grid, for the workloads where each applies."""
    out = {}
    logs = [r.log10_error for r in result_set.records if r.log10_error is not None]
    if logs:
        out["quality.mean_log10_error"] = float(np.mean(logs))
    feasible = [r.feasible for r in result_set.records if r.feasible is not None]
    if feasible:
        out["quality.feasible_frac"] = float(np.mean(feasible))
    return out

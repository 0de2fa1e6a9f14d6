"""Span tracing of the package's layers, from outside the package.

`Tracer.install` replaces public functions at the name their caller looks
up: `engine.spiral_update` for `engine.step`, `engine.tangent_unit_vector`
(bound by `from .rng import ...`) for `engine.spiral_update`,
`benchmarks.evaluate` for the engine and the baselines, the entries of the
shared `BASELINES` dict for the harness, and so on. Each call becomes a span
(name, start, end, parent) kept in flat arrays in memory; self times are
computed from the spans after the grid.

Grids with more than one worker run their tasks in forked processes. A
worker's spans and counts ride back to the parent on the record its task
returns and are merged into the parent's arrays by the `run_experiment`
wrapper; clocks agree because `perf_counter` is the system-wide monotonic
clock. The one span a worker records after its last task (the harness's
feasibility re-check of a constrained run) is lost.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from drainvortex import baselines, benchmarks, engine, harness, stats

ENGINE_PHASES = (
    "assign_drains",
    "stochastic_switch",
    "far_field_update",
    "spiral_update",
    "core_update",
    "splash_out",
    "clip_bounds",
    "elitist_drains",
)
HARNESS_CALLS = (
    "run_experiment",
    "emit_records",
    "load_result_set",
    "emit_result_table",
    "emit_stat_tables",
)
_SHIP = "_perfbench_spans"


class Tracer:
    """In-memory span recorder; `install()` patches, `uninstall()` restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._patched = []
        self.counts = Counter()
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.proc = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts.clear()
        self.workers = {}
        self._shipped = None

    def _after_fork(self):
        self._shipped = len(self.start)
        self.counts.clear()

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording one span per call; `before(args)` returns a token
        that `after(result, args, token)` receives to update the counts."""
        nid = self._id(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.proc.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if after is not None:
                after(result, args, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _trace(self, owner, attr, span, before=None, after=None):
        """Replace `owner.attr` (or `owner[attr]` for a dict) by a wrapper
        recording spans named `span`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(span, original, before, after)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(span, original, before, after))
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def install(self):
        """Patch every traced function; the names below are the span names."""
        count = self.counts

        def rows(key):
            def after(result, args, token):
                count[key] += len(result)

            return after

        row_counts = {"far_field_update": "far", "spiral_update": "spiral", "core_update": "core"}
        for phase in ENGINE_PHASES:
            after = rows(f"engine.rows.{row_counts[phase]}") if phase in row_counts else None
            self._trace(engine, phase, f"engine.{phase}", after=after)

        def before_step(args):
            return args[0].positions

        def after_step(state, args, old_positions):
            count["engine.proposals"] += len(old_positions)
            count["engine.accepted"] += int(np.any(state.positions != old_positions, axis=1).sum())

        self._trace(engine, "step", "engine.step", before_step, after_step)
        self._trace(engine, "tangent_unit_vector", "rng.tangent_unit_vector")
        self._trace(engine, "levy_step", "rng.levy_step")
        self._trace(engine, "build_record", "records.build_record")
        self._trace(baselines, "build_record", "records.build_record")
        evaluated = rows("benchmarks.evaluate.points")
        self._trace(benchmarks, "evaluate", "benchmarks.evaluate", after=evaluated)
        self._trace(benchmarks, "feasibility", "benchmarks.feasibility")

        def after_task(record, args, token):
            count["sweeps." + record.algorithm.split(":", 1)[0]] += len(record.trace)
            self._ship(record)

        self._trace(engine, "run", "engine.run", after=after_task)
        for algo in list(baselines.BASELINES):
            self._trace(baselines.BASELINES, algo, f"baselines.{algo}", after=after_task)

        self._trace(stats, "summarize", "stats.summarize")
        self._trace(stats, "compare", "stats.compare")

        def after_emit(out, args, token):
            files = [p for p in Path(out).rglob("*") if p.is_file()]
            count["harness.files_written"] += len(files)
            count["harness.bytes_written"] += sum(p.stat().st_size for p in files)

        hooks = {"run_experiment": self._merge, "emit_records": after_emit}
        for call in HARNESS_CALLS:
            self._trace(harness, call, f"harness.{call}", after=hooks.get(call))

    # -- worker spans --------------------------------------------------------

    def _ship(self, record):
        """In a forked worker, hand the spans and counts recorded since the
        last task to the parent on the returned record."""
        if self._shipped is None:
            return
        lo, hi = self._shipped, len(self.start)
        record.__dict__[_SHIP] = (
            os.getpid(),
            lo,
            self.name[lo:hi],
            self.parent[lo:hi],
            self.start[lo:hi],
            self.end[lo:hi],
            dict(self.counts),
        )
        self._shipped = hi
        self.counts.clear()

    def _merge(self, result_set, args, token):
        for record in result_set.records:
            shipped = record.__dict__.pop(_SHIP, None)
            if shipped is None:
                continue
            pid, base, name, parent, start, end, counts = shipped
            proc = self.workers.setdefault(pid, len(self.workers) + 1)
            offset = len(self.start)
            self.name.extend(name)
            self.parent.extend(p - base + offset if p >= base else p for p in parent)
            self.proc.extend([proc] * len(name))
            self.start.extend(start)
            self.end.extend(end)
            self.counts.update(counts)

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "proc": np.frombuffer(self.proc, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, **self.spans())


def layer_metrics(tracer: Tracer, window, workers: int) -> dict:
    """Per-layer numbers of one traced grid that ran in `window`."""
    s = tracer.spans()
    name, parent, proc = s["name"], s["parent"], s["proc"]
    dur = s["end"] - s["start"]
    # a span's self time excludes only children that ran in its own process
    has_parent = parent >= 0
    local = np.zeros(dur.size, dtype=bool)
    local[has_parent] = proc[has_parent] == proc[parent[has_parent]]
    child = np.bincount(parent[local], weights=dur[local], minlength=dur.size)
    self_time = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def total(n, values=dur):
        return float(values[name == ids[n]].sum()) if n in ids else 0.0

    def calls(n):
        return int((name == ids[n]).sum()) if n in ids else 0

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    m = {}
    for phase in ENGINE_PHASES:
        m[f"engine.{phase}.s"] = total(f"engine.{phase}")
    m["engine.step.self_s"] = total("engine.step", self_time)
    for fn in ("tangent_unit_vector", "levy_step"):
        m[f"rng.{fn}.s"] = total(f"rng.{fn}")
        m[f"rng.{fn}.calls"] = calls(f"rng.{fn}")
    for phase in ("far", "spiral", "core"):
        m[f"engine.rows.{phase}"] = c[f"engine.rows.{phase}"]
    m["engine.splashes"] = calls("engine.splash_out")
    m["engine.accept_ratio"] = ratio(c["engine.accepted"], c["engine.proposals"])

    points = c["benchmarks.evaluate.points"]
    m["benchmarks.evaluate.s"] = total("benchmarks.evaluate")
    m["benchmarks.evaluate.points"] = points
    m["benchmarks.evaluate.us_per_point"] = ratio(m["benchmarks.evaluate.s"] * 1e6, points)
    m["benchmarks.feasibility.s"] = total("benchmarks.feasibility")

    for algo in baselines.BASELINES:
        sweeps = c["sweeps." + algo]
        m[f"baselines.{algo}.self_s"] = total(f"baselines.{algo}", self_time)
        m[f"baselines.{algo}.us_per_sweep"] = ratio(total(f"baselines.{algo}") * 1e6, sweeps)
    m["records.build_record.s"] = total("records.build_record")

    run_s = total("harness.run_experiment")
    busy = total("engine.run") + sum(total(f"baselines.{a}") for a in baselines.BASELINES)
    m["harness.dispatch_wait_s"] = run_s - busy / workers
    m["harness.parallel_efficiency"] = ratio(busy, workers * run_s)
    for call in HARNESS_CALLS[1:]:
        m[f"harness.{call}.s"] = total(f"harness.{call}")
    m["harness.files_written"] = c["harness.files_written"]
    m["harness.bytes_written"] = c["harness.bytes_written"]
    m["stats.summarize.s"] = total("stats.summarize")
    m["stats.compare.s"] = total("stats.compare")

    lo, hi = window
    top = (parent < 0) & (proc == 0) & (s["start"] >= lo) & (s["end"] <= hi)
    m["trace.uncovered_frac"] = max(0.0, (hi - lo) - float(dur[top].sum())) / (hi - lo)
    return m

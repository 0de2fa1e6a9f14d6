"""Quick self-test of the benchmark on shrunken grids (well under a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metric
names of BENCHMARK.json with their units; that the correctness checks pass
on a clean grid and catch tampered records; that the records digest ignores
only the wall time; and that the benchmark refuses to run without sources.
"""

import copy
import json
import math
import shutil
import subprocess
import sys

import run

failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def quiet(*args, **kwargs):
    pass


def check_metric_names(declared):
    import grid

    expect(list(grid.WORKLOADS) == [w["name"] for w in declared["workloads"]],
           "workloads differ from BENCHMARK.json")
    for workload in grid.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[section]}
            correct, attempted, failed, metrics = run.run_workload(
                workload, 11, 0, trace, shrunk=True, setup_reps=1, log=quiet
            )
            label = f"{workload} trace={int(trace)}"
            expect(correct and attempted > 0 and failed == 0, f"{label}: grid not correct")
            expect(set(metrics) == set(want),
                   f"{label}: names differ: {sorted(set(metrics) ^ set(want))}")
            for name, (value, unit) in metrics.items():
                expect(want.get(name) == unit, f"{label}: {name} has unit {unit!r}")
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{label}: {name} = {value!r}")
        print(f"ok   {workload}: metric names and units")


def check_tampering():
    from drainvortex import harness
    from drainvortex.harness import FailureRecord

    import grid

    out = run.WORK / "selftest-grid"
    data = grid.shrink(grid.workload_config("baselines_constrained", 5, 1))
    config = harness.config_from_dict(data)
    result_set = harness.run_experiment(config)
    harness.emit_records(result_set, out)
    reloaded = harness.load_result_set(out)
    shutil.rmtree(out, ignore_errors=True)
    expect(grid.check_result(config, result_set, reloaded) == [], "clean grid fails the checks")
    digest = grid.records_digest(result_set.records)
    expect(digest == grid.records_digest(reloaded.records), "digest differs after reload")

    def tampered(edit, on_disk=False):
        mem, disk = copy.deepcopy(result_set), copy.deepcopy(reloaded)
        edit(disk if on_disk else mem)
        return grid.check_result(config, mem, disk)

    def worse_trace(rs):
        rs.records[0].trace[1] = rs.records[0].trace[0] + 1.0

    def trace_end(rs):
        rs.records[0].best_value -= 1.0

    def evaluations(rs):
        rs.records[0].evaluations += 1

    def drop(rs):
        rs.records.pop()

    def failure(rs):
        rs.failures.append(FailureRecord("pso", "welded_beam", 4, 0, "ValueError: boom"))

    def disk_value(rs):
        rs.records[-1].best_position[0] += 1e-12

    def disk_checkpoint(rs):
        key = next(iter(rs.records[0].checkpoints))
        rs.records[0].checkpoints[key] += 1.0

    for edit, on_disk in (
        (worse_trace, False),
        (trace_end, False),
        (evaluations, False),
        (drop, False),
        (failure, False),
        (disk_value, True),
        (disk_checkpoint, True),
    ):
        expect(tampered(edit, on_disk) != [], f"tampering by {edit.__name__} went unnoticed")

    def walltime(rs):
        rs.records[0].walltime_ms += 5.0

    expect(tampered(walltime, on_disk=True) == [], "a changed wall time fails the checks")
    masked = copy.deepcopy(result_set)
    walltime(masked)
    expect(grid.records_digest(masked.records) == digest, "digest depends on wall time")
    changed = copy.deepcopy(result_set)
    disk_value(changed)
    expect(grid.records_digest(changed.records) != digest, "digest ignores best_position")
    print("ok   correctness checks catch tampered records")


def check_refuses_without_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dvo_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "benchmark ran without package sources")
    print("ok   refuses to run without sources")


def main() -> int:
    if not (run.SRC / "drainvortex").is_dir():
        print("error: no package sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metric_names(declared)
    check_tampering()
    check_refuses_without_sources()
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

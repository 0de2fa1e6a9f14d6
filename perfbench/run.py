"""drainvortex benchmark: time one seeded experiment grid end to end, or
trace it layer by layer.

    python3 perfbench/run.py --workload dvo_sweep --seed 2024 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`. The
grid is built from `--seed` and driven through the same public calls the
CLI makes: `harness.load_config` -> `run_experiment` -> `emit_records` ->
`load_result_set` -> `emit_result_table` + `emit_stat_tables`. The grid
takes a fraction of a second and is repeated until the next repetition
would overrun `--seconds` (at least once).

On a shared host the speed of the machine drifts by 10-30% from one minute
to the next, and wall times drift with it. So every grid is bracketed by
two timings of a fixed reference kernel that uses nothing of the package,
and grid times are reported in units of that kernel's time (`ref`), as the
median over the grids of the run. Wall times are printed alongside. Set-up
time is the median wall time of several fresh interpreters, measured after
the grids, so `peak_rss_mb` covers only the benchmark process and its grid
workers.

With `--trace 1` untraced grids are timed for the first half of the time,
then traced grids give the per-layer metrics (see `tracing.py`); the spans
of the last traced grid are written to `.bench_work/trace-<workload>.npz`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Any failed correctness
check exits with status 1.
"""

import os

# one BLAS thread per process, set before numpy loads, inherited by workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import drainvortex
from drainvortex import harness
t1 = time.perf_counter()
harness.load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
"""

END_TO_END_UNITS = {"setup_s": "s", "grid_ref": "ref", "evals_per_ref": "1/ref", "peak_rss_mb": "MB"}
_KERNEL_ROWS = np.random.default_rng(0).random((30, 30))


def reference_kernel_s() -> float:
    """Wall time of a fixed piece of work that uses nothing of the package:
    a pure-Python float loop and small array operations, the two kinds of
    work the grids do. About 10 ms on a 2.1 GHz Xeon."""
    rows = _KERNEL_ROWS
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += i * 0.5
    for _ in range(600):
        scaled = rows * 1.0001
        acc += float(np.sqrt((scaled * scaled).sum(axis=1)).sum())
    return time.perf_counter() - t0


@dataclass
class Rep:
    """One timed grid: run, persist, reload, both report tables."""

    grid_s: float
    run_s: float
    window: tuple
    evaluations: int
    attempted: int
    failed: int
    problems: list
    digest: str
    quality: dict
    ref_s: float = float("nan")

    @property
    def grid_ref(self) -> float:
        return self.grid_s / self.ref_s

    @property
    def evals_per_ref(self) -> float:
        return self.evaluations * self.ref_s / self.run_s


def grid_once(config, out: Path, ref_algorithm: str) -> Rep:
    from drainvortex import harness

    import grid

    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    result_set = harness.run_experiment(config)
    t1 = time.perf_counter()
    harness.emit_records(result_set, out)
    reloaded = harness.load_result_set(out)
    tables = [
        harness.emit_result_table(reloaded),
        harness.emit_stat_tables(reloaded, ref_algorithm),
    ]
    t2 = time.perf_counter()
    problems = grid.check_result(config, result_set, reloaded)
    if not all(tables):
        problems.append("a report table is empty")
    shutil.rmtree(out, ignore_errors=True)
    return Rep(
        grid_s=t2 - t0,
        run_s=t1 - t0,
        window=(t0, t2),
        evaluations=sum(r.evaluations for r in result_set.records),
        attempted=grid.expected_runs(config),
        failed=len(result_set.failures),
        problems=problems,
        digest=grid.records_digest(result_set.records),
        quality=grid.quality(result_set),
    )


def repeat_grids(config, out: Path, ref_algorithm: str, until: float, before=None, after=None):
    """Grids until the next one would end after `until` (at least one).
    Each grid's `ref_s` is the mean of the reference-kernel timings just
    before and just after it; `before()` and `after(rep)` run outside both."""
    reps = []
    ref_before = reference_kernel_s()
    while True:
        if before is not None:
            before()
        rep = grid_once(config, out, ref_algorithm)
        if after is not None:
            after(rep)
        ref_after = reference_kernel_s()
        rep.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        reps.append(rep)
        if time.perf_counter() + rep.grid_s > until:
            return reps


def measure_setup(config_path: Path, reps: int) -> dict:
    """Median wall time of a fresh interpreter importing the package and
    loading the config, plus the child's own split of that time."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    walls, imports, configs = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config_path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
        split = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(split["import_s"])
        configs.append(split["config_s"])
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.config_s": statistics.median(configs),
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its finished children (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def run_workload(name, seed, seconds, trace, shrunk=False, setup_reps=SETUP_REPS, log=print):
    """Measure one workload; returns (correct, attempted, failed, metrics)
    with metrics as {name: (value, unit)}."""
    from drainvortex import harness

    import grid
    import tracing

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = grid.workload_config(name, seed, worker_count())
        if shrunk:
            data = grid.shrink(data)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(data, indent=2) + "\n")
        config = harness.load_config(config_path)
        ref_algorithm = config.algorithm_names()[0]
        out = work / "results"

        started = time.perf_counter()
        reps = repeat_grids(config, out, ref_algorithm,
                            started + (seconds / 2 if trace else seconds))
        traced = []
        layers = []
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = repeat_grids(
                    config, out, ref_algorithm, started + seconds, before=tracer.reset,
                    after=lambda rep: layers.append(
                        tracing.layer_metrics(tracer, rep.window, config.workers)),
                )
            finally:
                tracer.uninstall()
            tracer.save(WORK / f"trace-{name}.npz")
        rss = peak_rss_mb()
        setup = measure_setup(config_path, setup_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for rep in reps + traced for p in rep.problems]
    digests = sorted({rep.digest for rep in reps + traced})
    if len(digests) > 1:
        problems.append(f"repeated grids gave different records: {digests}")
    attempted = sum(rep.attempted for rep in reps + traced)
    failed = sum(rep.failed for rep in reps + traced)

    log(f"workload {name}: seed {seed}, {config.workers} worker(s), {len(reps)} untraced and "
        f"{len(traced)} traced grid(s) of {reps[0].attempted} runs")
    for label, group in (("untraced", reps), ("traced", traced)):
        if group:
            times = sorted(r.grid_s for r in group)
            # the highest percentile with at least ten grids beyond it
            tail = (f", p{100 * (len(times) - 10) // len(times)} {times[-11]:.4f}"
                    if len(times) > 10 else "")
            log(f"{label} wall grid_s over {len(times)} grids: fastest {times[0]:.4f}, median "
                f"{statistics.median(times):.4f}{tail}, slowest {times[-1]:.4f} s; median "
                f"evals_per_s {statistics.median(r.evaluations / r.run_s for r in group):.1f} 1/s; "
                f"median reference kernel {statistics.median(r.ref_s for r in group):.5f} s")
    log(f"records_digest {digests[0]}")
    log(f"failed_frac {failed / attempted!r} (of {attempted} runs attempted)")
    for key, value in reps[0].quality.items():
        log(f"{key} {value!r} {'log10' if key.endswith('error') else 'ratio'}")

    if not trace:
        metrics = {
            "setup_s": setup["setup_s"],
            "grid_ref": statistics.median(r.grid_ref for r in reps),
            "evals_per_ref": statistics.median(r.evals_per_ref for r in reps),
            "peak_rss_mb": rss,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        # median_low keeps counts whole; they are equal in every grid
        metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["setup.config_s"] = setup["setup.config_s"]
        metrics["trace.grid_s"] = statistics.median(r.grid_s for r in traced)
        metrics["trace.untraced_grid_s"] = statistics.median(r.grid_s for r in reps)
        metrics["trace.overhead_frac"] = (statistics.median(r.grid_ref for r in traced)
                                          / statistics.median(r.grid_ref for r in reps) - 1.0)
        metrics = {k: (v, layer_unit(k)) for k, v in metrics.items()}
        spans = "returned to the parent on task records" if config.workers > 1 else "in-process"
        log(f"worker spans: {spans} ({config.workers} worker(s))")
    for key, (value, unit) in metrics.items():
        log(f"{key} {value!r} {unit}")
    for problem in problems[:20]:
        log(f"check failed: {problem}", file=sys.stderr)
    return not problems, attempted, failed, metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("ratio", "efficiency", "_frac")):
        return "ratio"
    return "count"


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drainvortex" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'drainvortex'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grid

    if args.workload not in grid.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(grid.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"machine {json.dumps(machine())}")
    correct, attempted, failed, metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

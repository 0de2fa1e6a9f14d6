"""The benchmark's own self-test, run in a child process, and the names it
traces.

`perfbench/tracing.py` patches names in the package (`engine.step`, the
engine phases, `baselines.build_record`, the harness calls, ...), so a
rename there breaks the benchmark; the self-test makes that a test failure.
A call that no longer goes through the patched name leaves its span empty
without failing anything, so `test_no_traced_name_is_bypassed` counts the
calls of a dvo run at each name the tracer patches in the engine.
"""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

from drainvortex import benchmarks, engine
from drainvortex import rng as rng_module
from drainvortex.engine import DvoParams

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


# the names in `engine` and `benchmarks` that perfbench/tracing.py replaces
# by span wrappers: the engine phases, then the calls below and around them
TRACED_NAMES = {
    engine: (
        "assign_drains",
        "stochastic_switch",
        "far_field_update",
        "spiral_update",
        "core_update",
        "splash_out",
        "clip_bounds",
        "elitist_drains",
        "step",
        "tangent_unit_vector",
        "levy_step",
        "build_record",
    ),
    benchmarks: ("evaluate",),
}


def test_no_traced_name_is_bypassed(monkeypatch):
    # a wrapper at each traced name counts its calls; a name the run calls
    # some other way (an alias, an inlined body) would read 0, as its span
    # would in a traced benchmark run
    counts = dict.fromkeys(
        (f"{module.__name__}.{name}" for module, names in TRACED_NAMES.items() for name in names),
        0,
    )

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, names in TRACED_NAMES.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    # a tangent floor this high makes some spiral projections degenerate, so
    # they are redrawn through tangent_unit_vector; in two dimensions some
    # agents start in the far field, and a stay limit of 1 with a certain
    # splash relaunches stagnated core agents
    monkeypatch.setattr(rng_module, "_TANGENT_FLOOR", 0.3)
    params = DvoParams(n_agents=12, n_drains=3, iterations=12, stay_limit=1, splash_prob=1.0)
    engine.run(benchmarks.get_problem("F1", 2), params, seed=0)
    assert all(counts.values()), {key: n for key, n in counts.items() if not n}

"""The benchmark's own self-test, run in a child process.

`perfbench/tracing.py` patches names in the package (`engine.step`, the
engine phases, `baselines.build_record`, the harness calls, ...), so a
rename there breaks the benchmark; this test makes that a test failure.
"""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

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

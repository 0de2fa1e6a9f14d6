"""The study scripts under `scripts/`, each run end to end on a tiny grid.

A script writes its records to `--out` and prints the per-case table and
the statistics tables; what it prints must be what `drainvortex tables` and
then `drainvortex stats` print for that output directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

from drainvortex.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--runs", "2", "--iterations", "5", "--agents", "6"]


@pytest.mark.parametrize(
    "script,extra",
    [
        ("classical_study.py", ["--dims", "2"]),
        ("engineering_study.py", []),
        ("ablation_study.py", ["--dims", "2"]),
    ],
)
def test_study_prints_the_tables_of_its_records(script, extra, tmp_path, capsys):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *TINY, *extra, "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr

    assert main(["tables", "--in", str(out)]) == 0
    tables = capsys.readouterr().out
    assert main(["stats", "--in", str(out)]) == 0
    stat_tables = capsys.readouterr().out
    assert tables and stat_tables
    at = proc.stdout.find(tables)
    assert at >= 0
    assert proc.stdout.find(stat_tables, at + len(tables)) >= 0

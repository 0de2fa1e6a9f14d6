"""The committed study configs under `configs/`, each run end to end on a
tiny grid.

Each file is the full protocol of one study. `drainvortex run` runs it,
and `drainvortex report` then prints what `tables` and `stats` print for
the output directory, each followed by a blank line, and then the best
feasible design of each problem that has one.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drainvortex.benchmarks import SUITES
from drainvortex.cli import main
from drainvortex.engine import ABLATION_VARIANTS
from drainvortex.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    emit_best_designs,
    load_config,
    load_result_set,
    save_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ALGORITHMS = tuple(AlgorithmSpec(name) for name in ("dvo", "pso", "gwo", "woa", "sca", "aoa", "eo"))
PROTOCOL = dict(runs=30, iterations=1000, n_agents=30, master_seed=2024, workers=1, penalty_coeff=1e9)
STUDIES = {
    "classical_scalable": ExperimentConfig(
        suite="classical_scalable",
        dimensions=(30,),
        algorithms=ALGORITHMS,
        output="results/classical_scalable",
        **PROTOCOL,
    ),
    "classical_fixed": ExperimentConfig(
        suite="classical_fixed", algorithms=ALGORITHMS, output="results/classical_fixed", **PROTOCOL
    ),
    "engineering": ExperimentConfig(
        suite="engineering", algorithms=ALGORITHMS, output="results/engineering", **PROTOCOL
    ),
    "ablation": ExperimentConfig(
        problems=("F1", "F5", "F9", "F10", "F16", "F18"),
        dimensions=(30,),
        algorithms=tuple(AlgorithmSpec(f"dvo:{variant}") for variant in ABLATION_VARIANTS),
        output="results/ablation",
        **PROTOCOL,
    ),
}
DESIGN_LINE = re.compile(r"(\w+): f = (\S+) by (\S+) at \[(.*)\]")


def printed(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def run_shrunk(study, tmp_path, capsys) -> str:
    """Run a study's config at 2 runs, 5 sweeps and 6 agents (2 dimensions
    for a scalable problem) through the CLI; returns the output directory."""
    config = load_config(CONFIGS / f"{study}.json")
    out = str(tmp_path / "out")
    small = replace(config, runs=2, iterations=5, n_agents=6, output=out)
    if config.dimensions:
        small = replace(small, dimensions=(2,))
    path = tmp_path / "config.json"
    save_config(small, path)
    printed(["run", "--config", str(path)], capsys)
    return out


def test_the_committed_configs_are_the_studies():
    assert sorted(path.stem for path in CONFIGS.glob("*.json")) == sorted(STUDIES)


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_config_is_the_study_protocol(study):
    assert load_config(CONFIGS / f"{study}.json") == STUDIES[study]


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_report_prints_tables_then_stats_then_designs(study, tmp_path, capsys):
    out = run_shrunk(study, tmp_path, capsys)
    report = printed(["report", "--in", out], capsys)
    tables = printed(["tables", "--in", out], capsys)
    stat_tables = printed(["stats", "--in", out], capsys)
    designs = emit_best_designs(load_result_set(out))
    assert tables and stat_tables
    assert report == tables + "\n" + stat_tables + "\n" + designs
    # only the engineering suite has constrained problems
    assert bool(designs) == (study == "engineering")


class TestBestDesigns:
    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("engineering")
        config = replace(STUDIES["engineering"], runs=2, iterations=5, n_agents=6)
        save_config(config, tmp_path / "config.json")
        out = str(tmp_path / "out")
        assert main(["run", "--config", str(tmp_path / "config.json"), "--out", out]) == 0
        return load_result_set(out)

    def test_each_line_is_the_least_feasible_objective(self, grid):
        lines = emit_best_designs(grid).splitlines()
        with_feasible = [
            name for name in SUITES["engineering"] if any(r.feasible for r in grid.records if r.problem == name)
        ]
        assert with_feasible
        assert [line.partition(":")[0] for line in lines] == with_feasible
        for line in lines:
            problem, value, algorithm, xs = DESIGN_LINE.fullmatch(line).groups()
            feasible = [r for r in grid.records if r.problem == problem and r.feasible]
            least = min(r.objective_value for r in feasible)
            best = next(r for r in feasible if r.objective_value == least)
            assert (value, algorithm) == (f"{least:.6f}", best.algorithm)
            np.testing.assert_allclose([float(x) for x in xs.split(", ")], best.best_position, rtol=1e-5)

    def test_a_tie_goes_to_the_first_in_grid_order(self, grid):
        problem = grid.records[0].problem
        tied = [
            replace(r, feasible=True, objective_value=1.0) if r.problem == problem else r
            for r in grid.records
        ]
        line = emit_best_designs(replace(grid, records=tied)).splitlines()[0]
        first = tied[0]
        xs = ", ".join(f"{v:.6g}" for v in first.best_position)
        assert line == f"{problem}: f = 1.000000 by {first.algorithm} at [{xs}]"

    def test_a_problem_with_no_feasible_run_gets_no_line(self, grid):
        records = [replace(r, feasible=False) for r in grid.records]
        assert emit_best_designs(replace(grid, records=records)) == ""

"""Baseline optimizer tests: shared record contract, config validation,
determinism, and a couple of formula spot checks."""

import json
import math

import numpy as np
import pytest

from drainvortex import benchmarks, harness
from drainvortex.baselines import (
    BASELINES,
    OPTIMIZERS,
    BaselineConfig,
    _woa_spiral,
    run_baseline,
)
from drainvortex.engine import DvoParams
from drainvortex.engine import run as run_dvo
from drainvortex.errors import ConfigError
from drainvortex.harness import config_from_dict

ALGORITHMS = sorted(BASELINES)
# each baseline's parameter defaults, from its OPTIMIZERS entry
DEFAULTS = {name: defaults for name, (defaults, _, _) in OPTIMIZERS.items()}


def small_config(algorithm, **params):
    return BaselineConfig(algorithm=algorithm, n_agents=8, iterations=25, params=params)


class TestRegistry:
    def test_expected_algorithms(self):
        assert ALGORITHMS == ["aoa", "eo", "gwo", "pso", "sca", "woa"]

    def test_baselines_order_and_entries(self):
        # the benchmark grids take their algorithm order from BASELINES
        assert tuple(BASELINES) == ("pso", "gwo", "woa", "sca", "aoa", "eo")
        assert all(entry is run_baseline for entry in BASELINES.values())


class TestConfig:
    def test_defaults_fill_in(self):
        merged = BaselineConfig(algorithm="pso").resolved()
        assert merged == DEFAULTS["pso"]

    def test_overrides_apply(self):
        merged = BaselineConfig(algorithm="pso", params={"c1": 1.5}).resolved()
        assert merged["c1"] == 1.5
        assert merged["c2"] == 2.0

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError) as err:
            BaselineConfig(algorithm="nope").resolved()
        assert err.value.problems == ["unknown algorithm 'nope'"]

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError) as err:
            BaselineConfig(algorithm="gwo", params={"warp": 1.0}).resolved()
        assert "warp" in str(err.value)

    def test_size_bounds_collected(self):
        with pytest.raises(ConfigError) as err:
            BaselineConfig(algorithm="pso", n_agents=1, iterations=1).resolved()
        assert len(err.value.problems) == 2

    @pytest.mark.parametrize(
        "algorithm,key",
        [(a, k) for a in ALGORITHMS for k in ("n_agents", "iterations", *DEFAULTS[a])],
    )
    def test_nan_is_one_entry(self, algorithm, key):
        nan = float("nan")
        if key in ("n_agents", "iterations"):
            config = BaselineConfig(algorithm=algorithm, **{key: nan})
        else:
            config = BaselineConfig(algorithm=algorithm, params={key: nan})
        with pytest.raises(ConfigError) as err:
            config.resolved()
        # a NaN is a float, so in an integer it is a value of the wrong type
        if key in ("n_agents", "iterations") or type(DEFAULTS[algorithm][key]) is int:
            expected = f"{key} must be an integer, got nan"
        else:
            expected = f"{key} must not be NaN"
        assert err.value.problems == [expected]

    def test_nan_is_listed_with_other_problems(self):
        config = BaselineConfig(algorithm="pso", n_agents=1, params={"c1": float("nan"), "warp": 1})
        with pytest.raises(ConfigError) as err:
            config.resolved()
        assert err.value.problems == [
            "n_agents must lie in [2, inf), got 1",
            "c1 must not be NaN",
            "unknown parameter 'warp'",
        ]

    def test_wrong_type_is_reported_before_any_bound(self):
        config = BaselineConfig(algorithm="pso", n_agents="8", iterations=1, params={"c1": "x"})
        with pytest.raises(ConfigError) as err:
            config.resolved()
        assert err.value.problems == [
            "n_agents must be an integer, got '8'",
            "iterations must lie in [2, inf), got 1",
            "c1 must be a number, got 'x'",
        ]

    def test_sizes_are_not_parameters(self):
        with pytest.raises(ConfigError) as err:
            BaselineConfig(algorithm="pso", params={"n_agents": 8}).resolved()
        assert err.value.problems == ["unknown parameter 'n_agents'"]

    def test_gwo_needs_three_agents(self):
        with pytest.raises(ConfigError) as err:
            BaselineConfig(algorithm="gwo", n_agents=2).resolved()
        assert err.value.problems == ["n_agents must lie in [3, inf), got 2"]
        problem = benchmarks.get_problem("F1", 2)
        config = BaselineConfig(algorithm="gwo", n_agents=3, iterations=4)
        assert BASELINES["gwo"](problem, config, seed=1).evaluations == 3 * 5

    @pytest.mark.parametrize(
        "algorithm,key,value,interval",
        [
            ("aoa", "mop_power", 0, "(0, inf]"),
            ("aoa", "mop_power", -1.0, "(0, inf]"),
            ("pso", "v_frac", -0.2, "[0, inf]"),
        ],
    )
    def test_baseline_bounds_through_config_and_library(self, algorithm, key, value, interval):
        # mop_power 0 divides by zero in every aoa sweep; a negative v_frac
        # pins the swarm at an inverted velocity clip
        entry = f"{key} must lie in {interval}, got {value!r}"
        with pytest.raises(ConfigError) as err:
            BaselineConfig(algorithm=algorithm, params={key: value}).resolved()
        assert err.value.problems == [entry]
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {"suite": "classical_fixed", "algorithms": [{"name": algorithm, "params": {key: value}}]}
            )
        assert err.value.problems == [f"{algorithm}: {entry}"]

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "gwo"])
    def test_other_baselines_run_with_two_agents(self, algorithm):
        problem = benchmarks.get_problem("F1", 2)
        config = BaselineConfig(algorithm=algorithm, n_agents=2, iterations=4)
        assert BASELINES[algorithm](problem, config, seed=1).evaluations == 2 * 5


def masked(record):
    """A record's serialized text, wall time masked."""
    return json.dumps({**harness._record_to_dict(record), "walltime_ms": None})


class TestOneRunner:
    """Every BASELINES entry is `run_baseline`: the config alone names the
    algorithm that runs and the name its record carries."""

    @pytest.mark.parametrize("entry", ALGORITHMS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_entry_runs_the_config_algorithm(self, entry, algorithm):
        problem = benchmarks.get_problem("F9", 3)
        config = small_config(algorithm)
        record = BASELINES[entry](problem, config, 5, checkpoints=(5, 25), run_index=2)
        assert record.algorithm == algorithm
        assert masked(record) == masked(
            run_baseline(problem, config, 5, checkpoints=(5, 25), run_index=2)
        )

    @pytest.mark.parametrize(
        "entry,config",
        [
            # woa runs with two agents, below gwo's three leaders
            ("gwo", BaselineConfig("woa", n_agents=2, iterations=4)),
            # the gwo block has no pso velocity clamp
            ("pso", BaselineConfig("gwo", iterations=4)),
            # woa's parameters run woa, not gwo
            ("gwo", BaselineConfig("woa", iterations=4)),
        ],
    )
    def test_entry_named_for_another_algorithm(self, entry, config):
        problem = benchmarks.get_problem("F1", 5)
        record = BASELINES[entry](problem, config, seed=1)
        assert record.algorithm == config.algorithm
        assert record.evaluations == config.n_agents * 5
        assert masked(record) == masked(run_baseline(problem, config, seed=1))
        named = BASELINES[entry](problem, BaselineConfig(entry, iterations=4), seed=1)
        assert not np.array_equal(record.trace, named.trace)

    @pytest.mark.parametrize("entry", ALGORITHMS)
    def test_unknown_algorithm_is_a_config_error(self, entry):
        problem = benchmarks.get_problem("F1", 2)
        with pytest.raises(ConfigError) as err:
            BASELINES[entry](problem, BaselineConfig("nope"), seed=1)
        assert err.value.problems == ["unknown algorithm 'nope'"]


class TestRecordContract:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_record_fields(self, algorithm):
        problem = benchmarks.get_problem("F9", 3)
        record = BASELINES[algorithm](
            problem, small_config(algorithm), seed=42, checkpoints=(5, 25), run_index=3
        )
        assert record.algorithm == algorithm
        assert record.problem == "F9"
        assert record.dim == 3
        assert record.seed == 42
        assert record.run_index == 3
        assert record.trace.shape == (25,)
        assert (np.diff(record.trace) <= 0).all()
        assert record.best_value == record.trace[-1]
        assert record.evaluations == 8 * 26
        assert set(record.checkpoints) == {5, 25}
        assert record.checkpoints[25] == record.trace[24]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_best_inside_bounds(self, algorithm):
        problem = benchmarks.get_problem("F10", 4)
        record = BASELINES[algorithm](problem, small_config(algorithm), seed=9)
        assert (record.best_position >= problem.lower).all()
        assert (record.best_position <= problem.upper).all()
        assert record.best_value == pytest.approx(problem.objective(record.best_position))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_deterministic_per_seed(self, algorithm):
        problem = benchmarks.get_problem("F1", 3)
        config = small_config(algorithm)
        a = BASELINES[algorithm](problem, config, seed=17)
        b = BASELINES[algorithm](problem, config, seed=17)
        c = BASELINES[algorithm](problem, config, seed=18)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)
        assert not np.array_equal(a.trace, c.trace)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_parameters_change_the_run(self, algorithm):
        problem = benchmarks.get_problem("F1", 3)
        tweaked = {
            "pso": {"w_start": 0.3},
            "gwo": {"a_start": 1.0},
            "woa": {"spiral_pitch": 2.5},
            "sca": {"amplitude": 1.0},
            "aoa": {"mu": 0.2},
            "eo": {"a1": 1.0},
        }[algorithm]
        base = BASELINES[algorithm](problem, small_config(algorithm), seed=4)
        other = BASELINES[algorithm](problem, small_config(algorithm, **tweaked), seed=4)
        assert not np.array_equal(base.trace, other.trace)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_converges_on_easy_sphere(self, algorithm):
        problem = benchmarks.get_problem("F1", 2)
        config = BaselineConfig(algorithm=algorithm, n_agents=20, iterations=100)
        record = BASELINES[algorithm](problem, config, seed=1)
        assert record.best_value < 1e-2


class TestWoaSpiral:
    def test_formula(self):
        positions = np.array([[1.0, 2.0], [-3.0, 0.5]])
        best = np.array([0.0, 1.0])
        ell = np.array([0.25, -0.5])
        out = _woa_spiral(positions, best, ell, 1.0)
        for i in range(2):
            gap = np.abs(best - positions[i])
            expected = gap * math.exp(ell[i]) * math.cos(2.0 * math.pi * ell[i]) + best
            assert np.allclose(out[i], expected, rtol=0, atol=1e-12)

    def test_ell_zero_lands_past_leader_by_the_gap(self):
        positions = np.array([[2.0, -1.0]])
        best = np.array([1.0, 1.0])
        out = _woa_spiral(positions, best, np.array([0.0]), 1.0)
        assert np.array_equal(out, [[2.0, 3.0]])


class TestPsoDetails:
    def test_velocity_clamp_keeps_positions_reachable(self):
        # a huge c1/c2 would explode without the clamp; best must stay in the box
        problem = benchmarks.get_problem("F1", 2)
        config = BaselineConfig(
            algorithm="pso", n_agents=6, iterations=30, params={"c1": 4.0, "c2": 4.0}
        )
        record = run_baseline(problem, config, seed=2)
        assert (record.best_position >= problem.lower).all()
        assert (record.best_position <= problem.upper).all()
        assert np.isfinite(record.trace).all()


def run_any(algorithm, problem, seed):
    if algorithm == "dvo":
        return run_dvo(problem, DvoParams(n_agents=8, n_drains=3, iterations=25), seed=seed)
    return BASELINES[algorithm](problem, small_config(algorithm), seed=seed)


def per_point_spec(name, objective):
    return benchmarks.ProblemSpec(
        name=name, dim=2, lower=np.zeros(2), upper=np.ones(2), objective=objective
    )


class TestObjectiveContracts:
    @pytest.mark.parametrize("algorithm", ["dvo"] + ALGORITHMS)
    def test_nan_objective_gives_a_finite_best(self, algorithm):
        # NaN on half the box: evaluate reads it as +inf, so no optimizer
        # may crash on it or report it as its best
        problem = per_point_spec(
            "nan-half", lambda x: math.nan if x[0] > 0.5 else float(np.sum(x * x))
        )
        record = run_any(algorithm, problem, seed=8)
        assert math.isfinite(record.best_value)
        assert (record.best_position >= problem.lower).all()
        assert (record.best_position <= problem.upper).all()
        assert record.best_position[0] <= 0.5

    @pytest.mark.parametrize("algorithm", ["dvo", "pso"])
    def test_per_point_objective_gets_one_point_per_call(self, algorithm):
        def objective(x):
            if x.ndim != 1:
                raise ValueError(f"a per-point objective got shape {x.shape}")
            return float(np.sum(x * x))

        record = run_any(algorithm, per_point_spec("per-point", objective), seed=2)
        assert record.evaluations == 8 * 26
        assert record.best_value == objective(record.best_position)

"""Harness tests: config parsing and validation, grid execution, failure
isolation, persistence round-trips, table emitters, and the CLI."""

import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env, masked

from drainvortex import benchmarks, harness, stats
from drainvortex.baselines import OPTIMIZERS, BaselineConfig
from drainvortex.benchmarks import ProblemSpec, clear_plugins, register_plugin
from drainvortex.cli import main
from drainvortex.engine import ABLATION_VARIANTS, BOUNDS, DvoParams
from drainvortex.errors import ConfigError, DrainVortexError, IncompleteGridError
from drainvortex.harness import (
    SUITES,
    SUMMARY_COLUMNS,
    AlgorithmSpec,
    ExperimentConfig,
    ResultSet,
    config_from_dict,
    config_to_dict,
    emit_convergence,
    emit_records,
    emit_result_table,
    emit_stat_tables,
    load_config,
    load_result_set,
    run_experiment,
    save_config,
    validate_config,
)
from drainvortex.records import SCHEMA_VERSION, RunRecord, encode, floored_log10
from drainvortex.rng import mix_seed


NaN = float("nan")
# a failures.json entry of tiny_config's grid, less its run index
FAILURE = {"algorithm": "pso", "problem": "F1", "dim": 2, "message": "RuntimeError: boom"}


def record_lines(out):
    """The lines of a result directory's records.jsonl."""
    return (out / "records.jsonl").read_text().splitlines()


def run_key(line):
    data = json.loads(line)
    return data["algorithm"], data["problem"], data["dim"], data["run_index"]


def tiny_config(**overrides):
    base = dict(
        suite="custom",
        problems=("F1",),
        dimensions=(2,),
        algorithms=(AlgorithmSpec("pso"),),
        runs=2,
        iterations=12,
        n_agents=6,
        checkpoints=(6, 12),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_minimal_defaults(self):
        config = config_from_dict({"suite": "classical_fixed", "algorithms": ["pso"]})
        assert config.runs == 30
        assert config.iterations == 1000
        assert config.n_agents == 30
        assert config.master_seed == 0
        assert config.workers == 1
        assert config.checkpoints == (50, 100, 200, 400, 700, 1000)
        assert config.penalty_coeff == 1e9
        assert config.feasibility_tol == 1e-8
        assert config.algorithm_names() == ["pso"]
        assert len(config.case_list()) == 10

    def test_algorithm_mapping_form(self):
        config = config_from_dict(
            {
                "suite": "classical_fixed",
                "algorithms": ["pso", {"name": "dvo", "params": {"n_drains": 4}}],
            }
        )
        assert config.algorithms[1].params == {"n_drains": 4}

    def test_unknown_keys_collected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": ["pso"],
                    "banana": 1,
                    "execution": {"runs": 5, "cores": 4},
                    "penalty": {"coefficient": 1.0, "mode": "static"},
                }
            )
        text = str(err.value)
        assert "banana" in text
        assert "cores" in text
        assert "mode" in text

    def test_bad_sizes_collected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": ["pso"],
                    "execution": {"runs": 0, "iterations": 1, "n_agents": 1, "workers": 0},
                }
            )
        text = str(err.value)
        assert "runs" in text
        assert "iterations" in text
        assert "n_agents" in text
        assert "workers" in text

    def test_non_integer_execution_value(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": ["pso"],
                    "execution": {"runs": "thirty"},
                }
            )
        assert "integer" in str(err.value)

    def test_checkpoints_kept_as_given(self):
        # the records keep the in-range sweeps; the config keeps its list
        config = config_from_dict(
            {
                "suite": "classical_fixed",
                "algorithms": ["pso"],
                "execution": {"iterations": 100},
                "checkpoints": [50, 200, 1, 50, 100, 0],
            }
        )
        assert config.checkpoints == (50, 200, 1, 50, 100, 0)

    def test_suite_problem_list_rules(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"suite": "custom", "algorithms": ["pso"]})
        assert "requires an explicit problems list" in str(err.value)
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {"suite": "classical_fixed", "problems": ["F14"], "algorithms": ["pso"]}
            )
        assert "only valid with suite" in str(err.value)

    def test_scalable_needs_dimensions(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"suite": "custom", "problems": ["F1"], "algorithms": ["pso"]})
        assert "dimensions" in str(err.value)

    def test_bad_dimension_values(self):
        for dim in (1, True, "ten"):
            with pytest.raises(ConfigError):
                config_from_dict(
                    {
                        "suite": "custom",
                        "problems": ["F1"],
                        "dimensions": [dim],
                        "algorithms": ["pso"],
                    }
                )

    def test_unknown_names(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "custom",
                    "problems": ["F99", "f1"],
                    "algorithms": ["pso", "cmaes", "dvo:partial"],
                }
            )
        text = str(err.value)
        assert "F99" in text and "f1" in text
        assert "cmaes" in text
        assert "dvo variant" in text

    def test_duplicates(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "custom",
                    "problems": ["F14", "F14"],
                    "algorithms": ["pso", "pso"],
                }
            )
        text = str(err.value)
        assert "duplicate algorithm 'pso'" in text
        assert "duplicate problem 'F14'" in text

    def test_bad_dvo_parameters_are_prefixed(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": [{"name": "dvo", "params": {"switch_prob": 2.0}}],
                }
            )
        assert err.value.problems == ["dvo: switch_prob must lie in [0, 1], got 2.0"]

    def test_unknown_dvo_keyword(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": [{"name": "dvo", "params": {"vortexness": 3}}],
                }
            )
        assert err.value.problems == ["dvo: unknown parameter 'vortexness'"]

    @pytest.mark.parametrize(
        "key,replacement",
        [
            ("switching", "switch_prob=0"),
            ("splash", "splash_prob=0"),
            ("multi_vortex", "n_drains=1"),
            ("adaptive_spiral", "residual_shrink=1.0"),
        ],
    )
    def test_removed_dvo_flag_names_its_replacement(self, key, replacement):
        # a removed flag is an unknown parameter; the number that replaced it is taken
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": [{"name": "dvo:no_swirl", "params": {key: False}}],
                }
            )
        assert err.value.problems == [f"dvo:no_swirl: unknown parameter {key!r}"]
        name, value = replacement.split("=")
        config = config_from_dict(
            {
                "suite": "classical_fixed",
                "algorithms": [{"name": "dvo:no_swirl", "params": {name: json.loads(value)}}],
            }
        )
        assert config.algorithms[0].params == {name: json.loads(value)}

    def test_removed_splash_toggle_is_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": [
                        {"name": "dvo", "params": {"forced_splash_replacement": True}}
                    ],
                }
            )
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith("dvo: ")
        assert "forced_splash_replacement" in err.value.problems[0]

    @pytest.mark.parametrize("n_elites", [0, -1, 1.5, "two", None])
    def test_sca_elite_count_checked_at_config_time(self, n_elites):
        # sca moves toward the best so far and keeps no elite archive, so
        # any elite count, of any type, is an unknown parameter
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": [{"name": "sca", "params": {"n_elites": n_elites}}],
                }
            )
        assert err.value.problems == ["sca: unknown parameter 'n_elites'"]

    @pytest.mark.parametrize(
        "section,expected",
        [
            ({"penalty": {"coefficient": None}}, "penalty coefficient must be a number, got None"),
            ({"penalty": {"feasibility_tol": "x"}}, "penalty feasibility_tol must be a number, got 'x'"),
            ({"penalty": {"feasibility_tol": float("nan")}}, "penalty feasibility_tol must not be NaN"),
            ({"problems": "F14"}, "'problems' must be a list of names, got 'F14'"),
            ({"dimensions": 10}, "'dimensions' must be a list of integers, got 10"),
        ],
    )
    def test_malformed_values_are_listed_with_other_problems(self, section, expected):
        data = {"suite": "custom", "problems": ["F14"], "algorithms": ["pso", "cmaes"]}
        data.update(section)
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert expected in err.value.problems
        assert "unknown algorithm 'cmaes'" in err.value.problems

    @pytest.mark.parametrize(
        "entry,expected",
        [
            ({"name": "pso", "params": {"n_agents": "x"}}, "pso: n_agents must be an integer, got 'x'"),
            ({"name": "pso", "params": {"c1": "x"}}, "pso: c1 must be a number, got 'x'"),
            ({"name": "dvo", "params": {"n_drains": 2.5}}, "dvo: n_drains must be an integer, got 2.5"),
            ({"name": "dvo", "params": {"swirl": "no"}}, "dvo: swirl must be true or false, got 'no'"),
            ({"name": "dvo", "params": {"core_fraction": "1"}}, "dvo: core_fraction must be a number, got '1'"),
            ({"name": "dvo", "params": {"core_fraction": None}}, "dvo: core_fraction must be a number, got None"),
            ({"name": "dvo", "params": {"core_radius": 0.5}}, "dvo: unknown parameter 'core_radius'"),
            ("pso:foo", "unknown algorithm 'pso:foo'"),
            ("dvo:", "unknown dvo variant ''"),
        ],
    )
    def test_malformed_algorithms_are_listed_with_other_problems(self, entry, expected):
        data = {"suite": "custom", "problems": ["F14"], "algorithms": [entry, "cmaes"]}
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert expected in err.value.problems
        assert "unknown algorithm 'cmaes'" in err.value.problems

    @pytest.mark.parametrize(
        "entry,expected",
        [
            ({"name": "dvo", "params": {"far_drift": NaN}}, "dvo: far_drift must not be NaN"),
            ({"name": "dvo", "params": {"near_threshold": NaN}}, "dvo: near_threshold must not be NaN"),
            ({"name": "dvo", "params": {"core_fraction": NaN}}, "dvo: core_fraction must not be NaN"),
            ({"name": "pso", "params": {"c1": NaN}}, "pso: c1 must not be NaN"),
            ({"name": "sca", "params": {"amplitude": NaN}}, "sca: amplitude must not be NaN"),
        ],
    )
    def test_nan_parameters_are_listed_with_other_problems(self, tmp_path, entry, expected):
        # strict JSON has no NaN, but Python's json module writes and reads it
        path = tmp_path / "config.json"
        text = json.dumps({"suite": "custom", "problems": ["F14"], "algorithms": [entry, "cmaes"]})
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == [expected, "unknown algorithm 'cmaes'"]

    def test_infinite_parameters_are_left_to_the_bounds(self):
        inf = float("inf")
        config_from_dict(
            {
                "suite": "classical_fixed",
                "algorithms": [{"name": "dvo", "params": {"far_drift": inf}}, {"name": "pso", "params": {"c1": inf}}],
            }
        )
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {"suite": "classical_fixed", "algorithms": [{"name": "dvo", "params": {"switch_prob": inf}}]}
            )
        assert err.value.problems == ["dvo: switch_prob must lie in [0, 1], got inf"]

    def test_parameters_of_their_default_type_are_accepted(self):
        params = {"core_fraction": 1, "far_drift": 1, "swirl": False, "n_drains": 3}
        config = config_from_dict(
            {
                "suite": "classical_fixed",
                "algorithms": [{"name": "dvo", "params": params}, {"name": "pso", "params": {"c1": 1}}],
            }
        )
        assert config.algorithms[0].params == params

    def test_baseline_param_validation_routed(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": [{"name": "pso", "params": {"warp": 9}}],
                }
            )
        assert "warp" in str(err.value)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"suite": "classical_fixed",\n  "algorithms": [pso]}\n')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 2" in str(err.value)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    def test_round_trip(self, tmp_path):
        config = config_from_dict(
            {
                "suite": "custom",
                "problems": ["F1", "F16", "welded_beam"],
                "dimensions": [2, 10],
                "algorithms": ["dvo", {"name": "pso", "params": {"c1": 1.7}}],
                "execution": {"runs": 4, "iterations": 50, "n_agents": 8, "master_seed": 9},
                "checkpoints": [10, 50],
                "penalty": {"coefficient": 1e7, "feasibility_tol": 1e-6},
                "output": "results/demo",
            }
        )
        assert config_from_dict(config_to_dict(config)) == config
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_validate_returns_empty_for_good_config(self):
        assert validate_config(tiny_config()) == []
        assert "custom" in SUITES


def library_problems(name, key, value, **others):
    """The entries the settings type itself gives for one parameter value
    (beside the `others` of a dvo block)."""
    try:
        if name == "dvo":
            DvoParams(**{key: value}, **others).validate()
        elif key in ("n_agents", "iterations"):
            BaselineConfig(algorithm=name, **{key: value}).resolved()
        else:
            BaselineConfig(algorithm=name, params={key: value}).resolved()
    except ConfigError as exc:
        return exc.problems
    return []


def bound_cases(interval, integer):
    """(value, accepted) at the ends of an interval written as in BOUNDS: each
    closed end, and the nearest value of the parameter's type outside each
    end (nothing lies beyond a closed infinite end, and no integer beyond an
    open one)."""
    cases = []
    ends = interval[1:-1].split(",")
    for end, closed, outward in ((ends[0], interval[0] == "[", -1), (ends[1], interval[-1] == "]", 1)):
        end = float(end)
        if math.isinf(end):
            if closed or not integer:
                cases.append((end, closed))
            continue
        end = int(end) if integer else end
        cases.append((end, closed))
        if closed:
            cases.append((end + outward if integer else math.nextafter(end, outward * math.inf), False))
    return cases


DVO_DEFAULTS = {f.name: f.default for f in fields(DvoParams)}
# each baseline's parameter defaults, from its OPTIMIZERS entry
BASELINE_DEFAULTS = {name: defaults for name, (defaults, _, _) in OPTIMIZERS.items()}
# the algorithm whose block takes each BOUNDS entry, and the default of the entry
BOUND_OWNERS = {
    key: next(
        (name, block[key])
        for name, block in [("dvo", DVO_DEFAULTS), *sorted(BASELINE_DEFAULTS.items())]
        if key in block
    )
    for key in BOUNDS
}


class TestOneChecker:
    """A parameter block gets the same checks from a config as from a library
    call, and each algorithm reports its own sizes."""

    @pytest.mark.parametrize("key,interval", sorted(BOUNDS.items()))
    def test_each_bound_accepts_its_closed_ends_and_rejects_beyond(self, key, interval):
        owner, default = BOUND_OWNERS[key]
        # n_drains=1 keeps n_agents >= n_drains at n_agents=2
        companion = {"n_drains": 1} if (owner, key) == ("dvo", "n_agents") else {}
        cases = bound_cases(interval, isinstance(default, int))
        assert not all(accepted for _, accepted in cases)
        for value, accepted in cases:
            library = library_problems(owner, key, value, **companion)
            spec = AlgorithmSpec(owner, {key: value, **companion})
            config = validate_config(tiny_config(algorithms=(spec,)))
            if accepted:
                assert library == config == [], value
            else:
                entry = f"{key} must lie in {interval}, got {value!r}"
                assert library == [entry]
                assert config == [f"{owner}: {entry}"]

    @pytest.mark.parametrize(
        "key,label",
        [
            ("runs", "runs"),
            ("workers", "workers"),
            ("penalty_coeff", "penalty coefficient"),
            ("feasibility_tol", "penalty feasibility_tol"),
        ],
    )
    def test_each_harness_bound_accepts_its_closed_ends_and_rejects_beyond(self, key, label):
        interval = harness._SCALAR_BOUNDS[label]
        cases = bound_cases(interval, isinstance(getattr(ExperimentConfig(), key), int))
        for value, accepted in cases:
            expected = [] if accepted else [f"{label} must lie in {interval}, got {value!r}"]
            assert validate_config(replace(tiny_config(), **{key: value})) == expected

    @pytest.mark.parametrize(
        "value,accepted",
        [(2**1024 - 2**971, True), (2**1024 - 2**970, False), (10**400, False), (-(10**400), False)],
        ids=["largest_float", "rounds_to_inf", "huge", "huge_negative"],
    )
    def test_float_given_an_integer_beyond_float_range(self, value, accepted):
        # a JSON integer parses to a Python int of any length; one that float()
        # cannot convert passed every bound and then failed each run with
        # OverflowError
        entry = f"must fit in a float, got an integer of {value.bit_length()} bits"
        expected = (lambda name: []) if accepted else (lambda name: [f"{name} {entry}"])
        config = replace(tiny_config(problems=("welded_beam",), dimensions=()), penalty_coeff=value)
        assert validate_config(config) == expected("penalty coefficient")
        assert library_problems("pso", "c1", value) == expected("c1")
        assert library_problems("dvo", "far_drift", value) == expected("far_drift")
        assert library_problems("dvo", "core_fraction", value) == expected("core_fraction")
        data = {"suite": "classical_fixed", "algorithms": [{"name": "pso", "params": {"c1": value}}]}
        if accepted:
            assert config_from_dict(data).algorithms[0].params == {"c1": value}
            return
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.problems == expected("pso: c1")
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.problems == expected("penalty coefficient")

    HUGE = 10**5000  # more digits than Python prints (4,300 by default)

    @pytest.mark.parametrize(
        "check,expected",
        [
            (lambda h: DvoParams(stay_limit=-h).validate(), "stay_limit must lie in [0, inf), got {}"),
            (lambda h: DvoParams(swirl=h).validate(), "swirl must be true or false, got {}"),
            (lambda h: DvoParams(n_drains=h).validate(), "n_agents must be >= n_drains, got 30 < {}"),
            (lambda h: BaselineConfig("pso", n_agents=-h).resolved(), "n_agents must lie in [2, inf), got {}"),
            (lambda h: BaselineConfig(h).resolved(), "unknown algorithm {}"),
            (lambda h: BaselineConfig("pso", params={h: 1.0}).resolved(), "unknown parameter {}"),
        ],
        ids=["bound", "type", "across", "baseline_size", "algorithm", "name"],
    )
    def test_library_integer_too_long_to_print(self, check, expected):
        # such a value is only validated here, never run
        with pytest.raises(ConfigError) as err:
            check(self.HUGE)
        assert err.value.problems == [expected.format("an integer of 16610 bits")]

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({"runs": -HUGE}, "runs must lie in [1, inf), got {}"),
            ({"n_agents": -HUGE}, "pso: n_agents must lie in [2, inf), got {}"),
            ({"dimensions": (-HUGE,)}, "dimensions must be integers >= 2, got {}"),
            ({"dimensions": (HUGE, HUGE)}, "duplicate dimension {}"),
            ({"suite": HUGE, "problems": ()}, "unknown suite {}; expected one of " + str(harness.SUITES)),
            ({"checkpoints": HUGE}, "'checkpoints' must be a list of integers, got {}"),
            ({"output": HUGE}, "'output' must be a string path, got {}"),
            ({"master_seed": HUGE}, "master_seed must be short enough to print, got {}"),
            (
                {"dimensions": (2.5, HUGE)},
                "'dimensions' must be a list of integers, got a tuple holding an integer too long to print",
            ),
        ],
        ids=[
            "runs", "n_agents", "dimension", "duplicate_dimension", "suite", "checkpoints", "output",
            "master_seed", "in_a_list",
        ],
    )
    def test_config_integer_too_long_to_print(self, overrides, expected):
        # such a value is only validated here, never run
        problems = validate_config(tiny_config(**overrides))
        assert problems == [expected.format("an integer of 16610 bits")]

    def test_config_dict_integer_too_long_to_print(self):
        # a dict built in Python; json.loads refuses such an integer first
        data = {"suite": "classical_fixed", "algorithms": [self.HUGE, {"name": "pso", "params": self.HUGE}]}
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.problems == [
            "algorithm entries must be names or mappings with a name, got an integer of 16610 bits",
            "algorithm 'pso': params must be a mapping, got an integer of 16610 bits",
        ]

    @pytest.mark.parametrize("value", ["x", NaN], ids=["wrong_type", "nan"])
    @pytest.mark.parametrize(
        "name,key",
        [("dvo", f.name) for f in fields(DvoParams)]
        + [(a, k) for a, block in sorted(BASELINE_DEFAULTS.items()) for k in ("n_agents", "iterations", *block)],
    )
    def test_config_and_library_agree(self, name, key, value):
        expected = [f"{name}: {entry}" for entry in library_problems(name, key, value)]
        assert len(expected) == 1
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {"suite": "classical_fixed", "algorithms": [{"name": name, "params": {key: value}}]}
            )
        assert err.value.problems == expected

    def test_each_entry_is_labelled_with_its_grid_name(self):
        dvo = tuple(AlgorithmSpec(f"dvo:{variant}", {"far_drift": -1.0}) for variant in ABLATION_VARIANTS)
        config = tiny_config(algorithms=(*dvo, AlgorithmSpec("pso", {"c1": "x"})))
        assert validate_config(config) == [
            *(f"dvo:{variant}: far_drift must lie in [0, inf], got -1.0" for variant in ABLATION_VARIANTS),
            "pso: c1 must be a number, got 'x'",
        ]
        # the settings types raise bare entries; only the harness labels them
        assert library_problems("dvo", "far_drift", -1.0) == ["far_drift must lie in [0, inf], got -1.0"]
        assert library_problems("pso", "c1", "x") == ["c1 must be a number, got 'x'"]

    def test_each_algorithm_reports_its_own_sizes_once(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "classical_fixed",
                    "algorithms": ["pso", "gwo", "dvo"],
                    "execution": {"n_agents": 1, "iterations": 1},
                }
            )
        assert err.value.problems == [
            "pso: n_agents must lie in [2, inf), got 1",
            "pso: iterations must lie in [2, inf), got 1",
            "gwo: n_agents must lie in [3, inf), got 1",
            "gwo: iterations must lie in [2, inf), got 1",
            "dvo: n_agents must lie in [2, inf), got 1",
            "dvo: iterations must lie in [2, inf), got 1",
            "dvo: n_agents must be >= n_drains, got 1 < 6",
        ]

    def test_gwo_needs_three_agents(self):
        data = {"suite": "classical_fixed", "algorithms": ["pso", "gwo"], "execution": {"n_agents": 2}}
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.problems == ["gwo: n_agents must lie in [3, inf), got 2"]
        data["algorithms"] = ["pso", {"name": "gwo", "params": {"n_agents": 3}}]
        assert config_from_dict(data).algorithms[1].params == {"n_agents": 3}

    def test_execution_size_that_every_entry_overrides_is_checked(self):
        # against ExperimentConfig's default, for its type as for its bound
        cases = [("iterations", 1, "iterations must lie in [2, inf), got 1")] + [
            ("n_agents", value, f"n_agents must be an integer, got {value!r}")
            for value in (None, 2.5, True, "abc")
        ]
        for key, value, expected in cases:
            with pytest.raises(ConfigError) as err:
                config_from_dict(
                    {
                        "suite": "classical_fixed",
                        "algorithms": [{"name": "pso", "params": {key: 5}}],
                        "execution": {key: value},
                    }
                )
            assert err.value.problems == [expected]


# (field, wrong value, the one entry it gets, where a config file puts it or
# None where a file cannot express it)
WRONG_VALUES = [
    ("suite", 3, f"unknown suite 3; expected one of {SUITES}", ("suite",)),
    ("problems", "F1", "'problems' must be a list of names, got 'F1'", ("problems",)),
    ("dimensions", 10, "'dimensions' must be a list of integers, got 10", ("dimensions",)),
    ("algorithms", ("pso",), "'algorithms' must be a list of AlgorithmSpec entries, got ('pso',)", None),
    ("algorithms", (AlgorithmSpec("pso", params=None),), "algorithm 'pso': params must be a mapping, got None", None),
    ("runs", "3", "runs must be an integer, got '3'", ("execution", "runs")),
    ("iterations", "x", "pso: iterations must be an integer, got 'x'", ("execution", "iterations")),
    ("n_agents", 2.5, "pso: n_agents must be an integer, got 2.5", ("execution", "n_agents")),
    ("master_seed", "x", "master_seed must be an integer, got 'x'", ("execution", "master_seed")),
    ("checkpoints", ("x",), "'checkpoints' must be a list of integers, got ('x',)", ("checkpoints",)),
    ("output", 3, "'output' must be a string path, got 3", ("output",)),
    ("workers", None, "workers must be an integer, got None", ("execution", "workers")),
    ("penalty_coeff", "1", "penalty coefficient must be a number, got '1'", ("penalty", "coefficient")),
    ("penalty_coeff", NaN, "penalty coefficient must not be NaN", ("penalty", "coefficient")),
    ("feasibility_tol", None, "penalty feasibility_tol must be a number, got None", ("penalty", "feasibility_tol")),
    ("feasibility_tol", NaN, "penalty feasibility_tol must not be NaN", ("penalty", "feasibility_tol")),
]


class TestConfigPathsAgree:
    """validate_config is the one check of a config's values: a config built
    in Python gets the entries a config file gets."""

    def test_every_field_has_a_case(self):
        assert {case[0] for case in WRONG_VALUES} == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize(
        "key,value,expected,path", WRONG_VALUES, ids=[f"{c[0]}-{c[1]!r}" for c in WRONG_VALUES]
    )
    def test_wrong_value_is_one_entry_on_both_paths(self, key, value, expected, path):
        config = replace(tiny_config(), **{key: value})
        assert validate_config(config) == [expected]
        with pytest.raises(ConfigError) as err:
            run_experiment(config)
        assert err.value.problems == [expected]
        if path is None:
            return
        data = config_to_dict(tiny_config())
        section = data
        for step in path[:-1]:
            section = section[step]
        section[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.problems == [expected]

    def test_params_of_a_file_entry_are_one_entry(self):
        data = config_to_dict(tiny_config())
        data["algorithms"] = [{"name": "pso", "params": None}]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.problems == ["algorithm 'pso': params must be a mapping, got None"]

    @pytest.mark.parametrize(
        "parallel,expected",
        [("2", "workers must be an integer, got '2'"), (0, "workers must lie in [1, inf), got 0")],
    )
    def test_parallel_is_checked_as_workers(self, parallel, expected):
        with pytest.raises(ConfigError) as err:
            run_experiment(tiny_config(), parallel=parallel)
        assert err.value.problems == [expected]

    def test_malformed_dimensions_are_listed_once_each(self):
        config = tiny_config(dimensions=(2, 1, 2))
        assert validate_config(config) == [
            "dimensions must be integers >= 2, got 1",
            "duplicate dimension 2",
        ]
        assert validate_config(tiny_config(dimensions=("x", "x", 3, 3))) == [
            "'dimensions' must be a list of integers, got ('x', 'x', 3, 3)"
        ]

    def test_wrong_typed_checkpoints_are_not_normalized(self):
        data = config_to_dict(tiny_config())
        data["checkpoints"] = [6, 12.0]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.problems == ["'checkpoints' must be a list of integers, got (6, 12.0)"]

    def test_readme_example_is_a_valid_config(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("## Quick start (CLI)")[1].split("\n## ")[0]
        blocks = section.split("```json\n")[1:]
        assert len(blocks) == 1
        config = config_from_dict(json.loads(blocks[0].split("```")[0]))
        assert config.algorithm_names() == ["dvo", "pso", "gwo"]


class TestCaseList:
    def test_scalable_cross_product(self):
        config = ExperimentConfig(
            suite="classical_scalable",
            dimensions=(2, 10),
            algorithms=(AlgorithmSpec("pso"),),
        )
        cases = config.case_list()
        assert len(cases) == 26
        assert cases[0] == ("F1", 2)
        assert cases[1] == ("F1", 10)
        assert ("F13", 10) in cases

    def test_fixed_uses_catalog_dims(self):
        config = ExperimentConfig(suite="classical_fixed", algorithms=(AlgorithmSpec("pso"),))
        cases = dict(config.case_list())
        assert cases["F15"] == 4
        assert cases["F20"] == 6

    def test_engineering_suite(self):
        config = ExperimentConfig(suite="engineering", algorithms=(AlgorithmSpec("pso"),))
        assert [c[0] for c in config.case_list()] == list(benchmarks.SUITES["engineering"])
        assert dict(config.case_list())["speed_reducer"] == 7

    def test_custom_mixes_scalable_and_fixed(self):
        config = tiny_config(problems=("F1", "F16"), dimensions=(2, 5))
        assert config.case_list() == [("F1", 2), ("F1", 5), ("F16", 2)]

    @staticmethod
    def built_cases(config):
        """The cases as listed through each fixed problem's built spec."""
        cases = []
        for name in benchmarks.SUITES.get(config.suite, config.problems):
            if name in benchmarks.SUITES["classical_scalable"]:
                cases.extend((name, int(d)) for d in config.dimensions)
            else:
                cases.append((name, benchmarks.get_problem(name).dim))
        return cases

    @staticmethod
    def configs():
        """Every suite at d2 and d10, every committed config, and the whole
        catalog (with any plugins) at d10."""
        algorithms = (AlgorithmSpec("pso"),)
        yield from (
            ExperimentConfig(suite=suite, dimensions=(2, 10), algorithms=algorithms)
            for suite in benchmarks.SUITES
        )
        paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
        assert paths
        yield from map(load_config, paths)
        yield tiny_config(problems=tuple(benchmarks.catalog_names()), dimensions=(10,))

    def test_listing_builds_no_problem(self, monkeypatch):
        register_plugin(
            ProblemSpec(name="cube", dim=3, lower=np.zeros(3), upper=np.ones(3), objective=np.sum)
        )
        try:
            configs = list(self.configs())
            expected = [self.built_cases(config) for config in configs]
            built = []
            post_init = ProblemSpec.__post_init__
            monkeypatch.setattr(
                ProblemSpec, "__post_init__", lambda spec: (built.append(spec.name), post_init(spec))
            )
            listed = [config.case_list() for config in configs]
        finally:
            clear_plugins()
        assert built == []
        assert listed == expected
        assert ("cube", 3) in listed[-1] and ("F19", 3) in listed[-1] and ("F1", 10) in listed[-1]

    def test_an_unknown_problem_raises_as_get_problem_does(self):
        with pytest.raises(KeyError) as built:
            benchmarks.get_problem("nope")
        with pytest.raises(KeyError) as listed:
            tiny_config(problems=("F1", "nope")).case_list()
        assert str(listed.value) == str(built.value)

    def test_a_grid_is_listed_batched_and_reloaded_without_get_problem(self, monkeypatch, tmp_path):
        config = tiny_config(problems=("F1", "F19", "three_bar_truss"), dimensions=(3,), runs=3)
        out = emit_records(run_experiment(config), tmp_path / "out")

        def refuse(*args):
            raise AssertionError(f"get_problem{args}")

        monkeypatch.setattr(benchmarks, "get_problem", refuse)
        assert config.case_list() == [("F1", 3), ("F19", 3), ("three_bar_truss", 2)]
        for degree in (1, 2, 8):
            batches = harness._batches(config, harness._batch_size(config, degree))
            assert sorted(run for batch in batches for run in batch) == sorted(config.grid_runs())
        assert load_result_set(out).config == config


class TestAblationVariants:
    @pytest.mark.parametrize(
        "params,entries",
        [
            ({}, []),
            ({"n_drains": "x"}, ["dvo: n_drains must be an integer, got 'x'"]),
        ],
    )
    def test_ablation_suite_is_one_entry(self, params, entries):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "suite": "ablation",
                    "problems": ["F14"],
                    "algorithms": [{"name": "dvo", "params": params}],
                }
            )
        assert err.value.problems == [f"unknown suite 'ablation'; expected one of {SUITES}"] + entries

    def test_variant_is_checked_as_the_settings_it_runs(self):
        # single_vortex runs one drain, so four agents are enough for it
        config = tiny_config(algorithms=(AlgorithmSpec("dvo:single_vortex"),), n_agents=4)
        settings = replace(DvoParams(n_agents=4, iterations=12), **ABLATION_VARIANTS["single_vortex"])
        settings.validate()
        assert validate_config(config) == []
        assert harness._resolve_algorithm("dvo:single_vortex", {}, 4, 12) == settings
        result = run_experiment(config)
        assert result.failures == [] and len(result.records) == 2
        # the variant's own value replaces the entry's, so only the others check it
        config = tiny_config(
            algorithms=tuple(
                AlgorithmSpec(f"dvo:{variant}", {"switch_prob": 2.0}) for variant in ABLATION_VARIANTS
            )
        )
        assert validate_config(config) == [
            f"{name}: switch_prob must lie in [0, 1], got 2.0"
            for name in config.algorithm_names()
            if name != "dvo:no_switch"
        ]


class TestRunExperiment:
    def test_grid_order_and_seeds(self):
        config = tiny_config(
            algorithms=(AlgorithmSpec("pso"), AlgorithmSpec("gwo")), runs=3, master_seed=11
        )
        result = run_experiment(config)
        assert [r.algorithm for r in result.records] == ["pso"] * 3 + ["gwo"] * 3
        assert [r.run_index for r in result.records] == [0, 1, 2, 0, 1, 2]
        for record in result.records:
            assert record.seed == mix_seed(11, record.algorithm, "F1", 2, record.run_index)
        assert result.failures == []

    def test_parallel_matches_sequential(self):
        config = tiny_config(algorithms=(AlgorithmSpec("pso"), AlgorithmSpec("dvo")))
        seq = run_experiment(config, parallel=1)
        par = run_experiment(config, parallel=2)
        assert len(seq.records) == len(par.records) == 4
        assert masked(par.records) == masked(seq.records)

    def test_dispatch_order_is_grid_order_at_any_degree(self):
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        try:
            config = tiny_config(
                problems=("F1", "exploding", "F16"),
                algorithms=(AlgorithmSpec("pso"), AlgorithmSpec("dvo"), AlgorithmSpec("gwo")),
                runs=3,
                iterations=4,
                checkpoints=(2, 4),
            )
            # 9 runs of each algorithm, in one batch on one worker and in
            # 9 batches of one run of each algorithm on more
            assert len(config.case_list()) * config.runs == 9
            results = [run_experiment(config, parallel=degree) for degree in (1, 2, 3)]
        finally:
            clear_plugins()
        want = results[0]
        assert len(want.records) == 18 and len(want.failures) == 9
        assert [(f.algorithm, f.run_index) for f in want.failures] == [
            (name, i) for name in ("pso", "dvo", "gwo") for i in range(3)
        ]
        for got in results[1:]:
            assert masked(got.records) == masked(want.records)
            assert got.failures == want.failures

    def test_a_failed_batch_reruns_case_by_case(self, monkeypatch):
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        calls = []
        real = harness._run_batch

        def counting(config, settings, built, runs):
            calls.append(sorted({(run[1], len(runs)) for run in runs}))
            return real(config, settings, built, runs)

        try:
            config = tiny_config(
                problems=("F1", "exploding", "F16"),
                algorithms=(AlgorithmSpec("pso"), AlgorithmSpec("dvo"), AlgorithmSpec("gwo")),
                runs=3,
                iterations=4,
                checkpoints=(2, 4),
            )
            settings = {
                spec.name: harness._resolve_algorithm(spec.name, {}, config.n_agents, config.iterations)
                for spec in config.algorithms
            }
            # the records of the healthy runs, each made alone
            healthy = [run for run in config.grid_runs() if run[1] != "exploding"]
            alone = [o for run in healthy for o in real(config, settings, {}, [run])]
            monkeypatch.setattr(harness, "_run_batch", counting)
            result = run_experiment(config, parallel=1)
        finally:
            clear_plugins()
        # the 27-run batch, then each case's 9 runs, then the raising case's runs one at a time
        assert calls == [
            [("F1", 27), ("F16", 27), ("exploding", 27)],
            [("F1", 9)],
            [("exploding", 9)],
            *[[("exploding", 1)]] * 9,
            [("F16", 9)],
        ]
        assert masked(result.records) == masked(alone)
        assert [(f.algorithm, f.problem, f.run_index) for f in result.failures] == [
            (name, "exploding", i) for name in ("pso", "dvo", "gwo") for i in range(3)
        ]
        assert all(f.message == "RuntimeError: boom" for f in result.failures)

    @pytest.mark.parametrize("n_tasks", [1, 2, 7, 8, 9, 33, 196, 1000])
    @pytest.mark.parametrize("degree", [2, 3, 4, 8])
    def test_never_fewer_than_four_batches_per_worker(self, n_tasks, degree):
        # a batch: every algorithm's runs of whole cases (or of a piece of
        # one), at most BATCH_RUNS of each algorithm, and at least 4 batches
        # per worker where the grid's cases and runs allow
        algorithms = (AlgorithmSpec("pso"), AlgorithmSpec("gwo"))
        config = tiny_config(
            problems=("F1", "F5"), algorithms=algorithms, runs=n_tasks, iterations=2, n_agents=2
        )
        size = harness._batch_size(config, degree)
        batches = harness._batches(config, size)
        for batch in batches:
            counts = Counter(run[0] for run in batch)
            assert counts["pso"] == counts["gwo"] == len(batch) // 2
            assert 1 <= counts["pso"] <= size <= harness.BATCH_RUNS
        per_algorithm = len(config.case_list()) * config.runs
        assert len(batches) >= min(per_algorithm, 4 * degree)
        # as few batches as that allows: one run more per batch would leave too few
        if size < harness.BATCH_RUNS:
            assert len(harness._batches(config, size + 1)) < 4 * degree

    @pytest.mark.parametrize("runs,parallel,children", [(4, 8, 3), (3, 2, 1), (1, 8, 0)])
    def test_starts_one_child_fewer_than_the_workers_it_uses(self, monkeypatch, runs, parallel, children):
        # this process is one of the workers, and there are no more workers than batches
        started = []
        real = multiprocessing.context.ForkProcess.start

        def counting(process):
            started.append(process)
            real(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting)
        result = run_experiment(tiny_config(runs=runs), parallel=parallel)
        assert len(result.records) == runs
        assert len(started) == children
        assert all(process.exitcode == 0 for process in started)
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_raises_a_clear_error(self):
        parent = os.getpid()
        slept = []

        def dying(x):
            if os.getpid() != parent:
                os._exit(3)
            if not slept:
                # hold this process's first batch so that the child claims the other
                slept.append(True)
                time.sleep(1.0)
            return float(np.sum(x**2))

        register_plugin(
            ProblemSpec(
                name="dying",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=dying,
            )
        )
        try:
            t0 = time.perf_counter()
            with pytest.raises(DrainVortexError, match="exited with code 3"):
                run_experiment(tiny_config(problems=("dying",)), parallel=2)
            assert time.perf_counter() - t0 < 30.0
        finally:
            clear_plugins()
        assert multiprocessing.active_children() == []

    def test_an_interrupt_leaves_no_child_running(self):
        parent = os.getpid()

        def interrupted(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            # the child is still busy with its batch when this process is interrupted
            time.sleep(0.05)
            return float(np.sum(x**2))

        register_plugin(
            ProblemSpec(
                name="interrupted",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=interrupted,
            )
        )
        try:
            t0 = time.perf_counter()
            with pytest.raises(KeyboardInterrupt):
                run_experiment(tiny_config(problems=("interrupted",)), parallel=2)
            assert time.perf_counter() - t0 < 30.0
        finally:
            clear_plugins()
        assert multiprocessing.active_children() == []

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(runs=0))
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(), parallel=0)

    def test_failures_isolated(self):
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        try:
            config = tiny_config(problems=("F1", "exploding"), dimensions=(2,))
            result = run_experiment(config)
            assert len(result.records) == 2  # the healthy problem still ran
            assert len(result.failures) == 2
            failure = result.failures[0]
            assert failure.problem == "exploding"
            assert "RuntimeError: boom" in failure.message
            with pytest.raises(IncompleteGridError):
                stats.summarize(result)
        finally:
            clear_plugins()

    def test_constrained_runs_report_feasibility(self):
        config = tiny_config(
            problems=("three_bar_truss",),
            dimensions=(),
            algorithms=(AlgorithmSpec("pso"),),
            feasibility_tol=1e-4,
        )
        result = run_experiment(config)
        for record in result.records:
            assert record.feasible is not None
            assert record.max_violation is not None
            assert record.objective_value is not None
            assert record.f_true is None
            # penalized best is raw objective plus a nonnegative penalty
            assert record.best_value >= record.objective_value - 1e-9

    def test_feasibility_checked_once_at_any_tolerance(self, monkeypatch):
        real = benchmarks.feasibility
        calls = []

        def counting(x, spec, tol=benchmarks.DEFAULT_FEASIBILITY_TOL):
            calls.append(tol)
            return real(x, spec, tol=tol)

        monkeypatch.setattr(benchmarks, "feasibility", counting)
        config = tiny_config(problems=("tension_spring",), dimensions=(), iterations=3)
        strict = run_experiment(config).records
        # one check per constrained run, the one build_record makes
        assert calls == [benchmarks.DEFAULT_FEASIBILITY_TOL] * 2
        assert [r.feasible for r in strict] == [False, False]
        violations = [r.max_violation for r in strict]
        assert violations[0] < 0.5 < violations[1]

        calls.clear()
        loose = run_experiment(replace(config, feasibility_tol=0.5)).records
        # build_record checks at the grid's tolerance
        assert calls == [0.5] * 2
        assert [r.feasible for r in loose] == [True, False]
        assert [r.max_violation for r in loose] == violations
        spring = benchmarks.get_problem("tension_spring")
        for record in loose:
            assert (record.feasible, record.max_violation) == real(
                record.best_position, spring, tol=0.5
            )

    def test_dvo_variant_runs_through_harness(self):
        config = tiny_config(algorithms=(AlgorithmSpec("dvo:no_swirl"),))
        result = run_experiment(config)
        assert [r.algorithm for r in result.records] == ["dvo:no_swirl"] * 2
        assert all(np.isfinite(r.best_value) for r in result.records)


class TestPersistence:
    def test_round_trip_full_precision(self, tmp_path):
        config = tiny_config(
            algorithms=(AlgorithmSpec("pso"), AlgorithmSpec("dvo")), output=str(tmp_path / "out")
        )
        result = run_experiment(config)
        out = emit_records(result, config.output)
        assert (out / "config.json").exists()
        assert (out / "summary.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "records.jsonl", "summary.csv"]
        lines = record_lines(out)
        # one line per run, in grid order
        assert [run_key(line) for line in lines] == [
            ("pso", "F1", 2, 0),
            ("pso", "F1", 2, 1),
            ("dvo", "F1", 2, 0),
            ("dvo", "F1", 2, 1),
        ]
        assert lines == [encode(r) for r in result.records]
        loaded = load_result_set(out)
        assert loaded.config == result.config
        assert len(loaded.records) == 4
        for a, b in zip(result.records, loaded.records):
            assert a.algorithm == b.algorithm
            assert a.run_index == b.run_index
            assert a.seed == b.seed
            assert a.best_value == b.best_value
            assert np.array_equal(a.trace, b.trace)
            assert np.array_equal(a.best_position, b.best_position)
            assert a.checkpoints == b.checkpoints
            assert a.log10_error == b.log10_error

    def test_checkpoint_order_of_a_python_config_is_that_of_its_file(self, tmp_path):
        # a config keeps its checkpoints as given, from Python and from a
        # file alike; each record maps the sweeps of its own run that the
        # list names, once each, ascending
        inputs = [
            # unsorted, repeated and out of range
            ((AlgorithmSpec("pso"), AlgorithmSpec("dvo")), 12, (5, 1, 1, 9, 0, 40), ["1", "5", "9"]),
            # pso runs 20 sweeps, so 10 and 20 are in range though past the execution 5
            ((AlgorithmSpec("pso", {"iterations": 20}),), 5, (2, 10, 20), ["2", "10", "20"]),
        ]
        for k, (algorithms, iterations, checkpoints, mapped) in enumerate(inputs):
            config = tiny_config(algorithms=algorithms, iterations=iterations, checkpoints=checkpoints)
            loaded = config_from_dict(config_to_dict(config))
            assert loaded == config
            written = []
            for name, each in (("python", config), ("file", loaded)):
                out = emit_records(run_experiment(each), tmp_path / f"{name}{k}")
                written.append(
                    [json.dumps({**json.loads(line), "walltime_ms": None}) for line in record_lines(out)]
                )
            assert written[0] == written[1]
            assert [list(json.loads(line)["checkpoints"]) for line in written[0]] == [mapped] * len(
                written[0]
            )

    def test_variant_names_round_trip(self, tmp_path):
        config = tiny_config(
            algorithms=(AlgorithmSpec("dvo:no_swirl"),), output=str(tmp_path / "out")
        )
        result = run_experiment(config)
        out = emit_records(result, config.output)
        assert [run_key(line) for line in record_lines(out)] == [
            ("dvo:no_swirl", "F1", 2, 0),
            ("dvo:no_swirl", "F1", 2, 1),
        ]
        loaded = load_result_set(out)
        assert [r.algorithm for r in loaded.records] == ["dvo:no_swirl"] * 2
        assert masked(loaded.records) == masked(result.records)

    def test_summary_csv_shape(self, tmp_path):
        config = tiny_config(output=str(tmp_path / "out"))
        result = run_experiment(config)
        out = emit_records(result, config.output)
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 1 + len(result.records)
        first = lines[1].split(",")
        assert first[0] == "pso"
        assert first[1] == "F1"
        assert first[2] == "2"
        assert first[3] == "0"  # seed column carries the run index
        assert float(first[4]) == result.records[0].best_value

    def test_schema_version_guard(self, tmp_path):
        config = tiny_config(output=str(tmp_path / "out"))
        result = run_experiment(config)
        out = emit_records(result, config.output)
        victim = out / "records.jsonl"
        first, second = record_lines(out)
        data = json.loads(second)
        data["schema_version"] = 99
        victim.write_text(first + "\n" + json.dumps(data) + "\n")
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [f"{victim}:2: unsupported schema version 99"]

    def test_missing_config_snapshot(self, tmp_path):
        with pytest.raises(ConfigError):
            load_result_set(tmp_path)

    def test_failures_round_trip(self, tmp_path):
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        try:
            config = tiny_config(problems=("exploding",), output=str(tmp_path / "out"))
            result = run_experiment(config)
            out = emit_records(result, config.output)
            assert (out / "failures.json").exists()
            loaded = load_result_set(out)
        finally:
            clear_plugins()
        assert len(loaded.failures) == 2
        assert loaded.failures[0].problem == "exploding"
        assert "boom" in loaded.failures[0].message

    def test_result_directory_reads_back_and_writes_again_byte_for_byte(self, tmp_path):
        # every field's text: F1 and F8 (whose optimum is negative) have known
        # optima, welded_beam has none and records feasibility, each run of
        # the plugin fails, and the checkpoints are given out of order
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        try:
            config = tiny_config(
                problems=("F1", "F8", "welded_beam", "exploding"),
                algorithms=(AlgorithmSpec("dvo:no_swirl"), AlgorithmSpec("pso")),
                n_agents=7,
                checkpoints=(12, 3, 1, 6),
            )
            first = emit_records(run_experiment(config), tmp_path / "first")
            again = emit_records(load_result_set(first), tmp_path / "again")
        finally:
            clear_plugins()
        names = ["config.json", "failures.json", "records.jsonl", "summary.csv"]
        assert sorted(p.name for p in first.iterdir()) == names
        assert len(record_lines(first)) == 2 * 3 * 2
        for name in names:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_penalty_wrapped_plugin_fails_each_run(self, tmp_path):
        # the harness wraps a constrained plugin itself: a wrap registered as
        # the plugin would be wrapped twice, so each of its runs fails
        wrapped = benchmarks.penalize(benchmarks.get_problem("three_bar_truss"))
        register_plugin(replace(wrapped, name="wrapped-truss"))
        try:
            config = tiny_config(problems=("wrapped-truss",), dimensions=(), output=str(tmp_path / "out"))
            out = emit_records(run_experiment(config), config.output)
        finally:
            clear_plugins()
        entries = json.loads((out / "failures.json").read_text())
        assert [(e["problem"], e["run_index"]) for e in entries] == [("wrapped-truss", 0), ("wrapped-truss", 1)]
        for entry in entries:
            assert entry["message"] == (
                "ValueError: wrapped-truss: penalize got a spec that is already a penalty wrap"
            )
        assert record_lines(out) == []


    def test_rerun_replaces_the_earlier_grid(self, tmp_path):
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        out = tmp_path / "out"
        try:
            first = run_experiment(tiny_config(problems=("F1", "exploding"), runs=3))
            assert (len(first.records), len(first.failures)) == (3, 3)
            emit_records(first, out)
        finally:
            clear_plugins()
        second = run_experiment(tiny_config(runs=1))
        emit_records(second, out)
        # exactly the new grid's one line is left of the earlier three
        assert record_lines(out) == [encode(r) for r in second.records]
        loaded = load_result_set(out)
        assert len(loaded.records) == 1
        assert loaded.failures == []
        assert not (out / "failures.json").exists()


def toy_record(algorithm, problem, dim, run_index, best, f_true=0.0, feasible=None,
               objective_value=None, checkpoints=None):
    error = None if f_true is None else best - f_true
    return RunRecord(
        algorithm=algorithm,
        problem=problem,
        dim=dim,
        run_index=run_index,
        seed=run_index,
        best_position=np.zeros(dim),
        best_value=best,
        trace=np.full(10, best),
        evaluations=60,
        walltime_ms=1.5,
        f_true=f_true,
        error=error,
        log10_error=None if error is None else floored_log10(error),
        objective_value=objective_value,
        feasible=feasible,
        max_violation=None if feasible is None else (0.0 if feasible else 1.0),
        checkpoints=dict(checkpoints or {}),
    )


def toy_result_set():
    config = ExperimentConfig(
        suite="custom",
        problems=("F1", "three_bar_truss"),
        dimensions=(2,),
        algorithms=(AlgorithmSpec("dvo"), AlgorithmSpec("pso")),
        runs=2,
        iterations=10,
        n_agents=6,
        checkpoints=(5, 10),
    )
    records = [
        toy_record("dvo", "F1", 2, 0, 1e-4, checkpoints={5: 1e-3, 10: 1e-4}),
        toy_record("dvo", "F1", 2, 1, 1e-6, checkpoints={5: 1e-5, 10: 1e-6}),
        toy_record("pso", "F1", 2, 0, 1e-2, checkpoints={5: 1e-1, 10: 1e-2}),
        toy_record("pso", "F1", 2, 1, 1e-2, checkpoints={5: 1e-1, 10: 1e-2}),
        toy_record("dvo", "three_bar_truss", 2, 0, 263.9, f_true=None, feasible=True,
                   objective_value=263.9, checkpoints={5: 265.0, 10: 263.9}),
        toy_record("dvo", "three_bar_truss", 2, 1, 264.3, f_true=None, feasible=True,
                   objective_value=264.3, checkpoints={5: 266.0, 10: 264.3}),
        toy_record("pso", "three_bar_truss", 2, 0, 264.2, f_true=None, feasible=True,
                   objective_value=264.2, checkpoints={5: 270.0, 10: 264.2}),
        toy_record("pso", "three_bar_truss", 2, 1, 1e9, f_true=None, feasible=False,
                   objective_value=263.0, checkpoints={5: 1e9, 10: 1e9}),
    ]
    return ResultSet(config=config, records=records)


class TestEmitters:
    def test_plain_table(self):
        text = emit_result_table(toy_result_set(), fmt="plain")
        lines = text.splitlines()
        assert lines[0].split() == ["case", "dvo", "pso"]
        assert "*-5.000*" in text  # log-metric winner, three decimals, bolded
        assert "-2.000" in text
        assert "*263.9*" in text  # constrained winner: best feasible objective
        assert "264.2 (0.50)" in text  # feasibility rate shown when below 1
        assert text.endswith("\n")

    def test_latex_table(self):
        text = emit_result_table(toy_result_set(), fmt="latex")
        assert text.startswith("\\begin{tabular}{lrr}")
        assert "\\textbf{263.9}" in text
        assert "three\\_bar\\_truss/d2" in text
        assert "\\hline" in text
        assert text.rstrip().endswith("\\end{tabular}")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_result_table(toy_result_set(), fmt="html")

    def test_infeasible_cell_is_na(self):
        rs = toy_result_set()
        for record in rs.records:
            if record.algorithm == "pso" and record.problem == "three_bar_truss":
                record.feasible = False
        text = emit_result_table(rs, fmt="plain")
        assert "n/a" in text

    def test_stat_tables(self):
        text = emit_stat_tables(toy_result_set(), reference="dvo")
        assert "algorithm" in text and "avg_rank" in text and "wins" in text
        assert "Friedman chi-square =" in text
        assert "dof = 1" in text
        assert "pso vs dvo" in text
        assert "p_holm" in text
        # one log-error case (F1): no exact p over one case can be significant
        assert text.splitlines()[-1].split() == [
            "pso", "vs", "dvo", "1", "-2.000", "-5.000", "+3.000", "1.0",
            "1.000e+00", "1.000e+00", "too", "few", "cases",
        ]

    def test_stat_tables_single_algorithm(self):
        rs = toy_result_set()
        rs.config = ExperimentConfig(
            suite="custom",
            problems=("F1",),
            dimensions=(2,),
            algorithms=(AlgorithmSpec("dvo"),),
            runs=2,
            iterations=10,
            n_agents=6,
        )
        rs.records = [r for r in rs.records if r.algorithm == "dvo" and r.problem == "F1"]
        text = emit_stat_tables(rs, reference="dvo")
        assert "Friedman" not in text  # needs at least two algorithms
        assert "dvo" in text

    def test_convergence_csv(self):
        text = emit_convergence(toy_result_set())
        lines = text.splitlines()
        assert lines[0] == "algorithm,problem,dim,checkpoint,mean_log10_error,std_log10_error"
        assert len(lines) == 1 + 2 * 2 * 2  # algorithms x cases x checkpoints
        row = lines[1].split(",")
        assert row[:4] == ["dvo", "F1", "2", "5"]
        # mean of log10(1e-3) and log10(1e-5) is exactly -4, spread exactly 1
        assert float(row[4]) == -4.0
        assert float(row[5]) == 1.0

    def test_convergence_at_the_last_sweep_is_the_table_metric(self):
        # in this grid numpy's log10 and math's round 16 of the 120 errors to
        # different last bits; the convergence rows take the records' log
        config = ExperimentConfig(
            suite="custom",
            problems=("F1", "F5", "F9", "F10"),
            dimensions=(5,),
            algorithms=tuple(AlgorithmSpec(name) for name in ("dvo", "pso", "gwo")),
            runs=10,
            iterations=40,
            n_agents=10,
            checkpoints=(40,),
            master_seed=0,
        )
        result_set = run_experiment(config)
        metrics = {
            (algorithm, case.problem, str(case.dim)): value
            for case in stats.summarize(result_set).cases
            for algorithm, value in case.metrics.items()
        }
        rows = list(csv.reader(io.StringIO(emit_convergence(result_set))))[1:]
        assert len(rows) == len(metrics) == 12
        for algorithm, problem, dim, checkpoint, mean, _ in rows:
            assert checkpoint == "40"
            assert float(mean) == metrics[(algorithm, problem, dim)], (algorithm, problem)

    def test_convergence_problem_filter(self):
        text = emit_convergence(toy_result_set(), problems=["three_bar_truss"])
        assert "F1" not in text
        assert "three_bar_truss" in text

    def test_convergence_unknown_problem(self):
        with pytest.raises(ValueError):
            emit_convergence(toy_result_set(), problems=["F99"])


class TestCli:
    def write_config(self, tmp_path, **extra):
        data = {
            "suite": "custom",
            "problems": ["F1"],
            "dimensions": [2],
            "algorithms": ["pso", "dvo"],
            "execution": {"runs": 2, "iterations": 12, "n_agents": 6, "master_seed": 3},
            "checkpoints": [6, 12],
        }
        data.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_run_then_analyze(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"wrote 4 records to {out}" in captured.out
        assert (out / "summary.csv").exists()

        assert main(["tables", "--in", str(out)]) == 0
        assert "F1/d2" in capsys.readouterr().out

        assert main(["stats", "--in", str(out), "--reference", "dvo"]) == 0
        assert "vs dvo" in capsys.readouterr().out

        assert main(["convergence", "--in", str(out), "--problems", "F1"]) == 0
        assert "mean_log10_error" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "problems,unknown", [("", "''"), ("F1,", "''"), ("F99,F1", "'F99'")], ids=["empty", "trailing", "F99"]
    )
    def test_convergence_names_each_unknown_problem(self, tmp_path, capsys, problems, unknown):
        # an empty name is a name no case has, never "no filter"
        out = tmp_path / "out"
        assert main(["run", "--config", str(self.write_config(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["convergence", "--in", str(out), "--problems", problems]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown problems requested: {unknown}\n"

    def test_stats_with_an_infinite_log_error_case(self, tmp_path, capsys):
        # evaluate maps NaN to +inf, so every run of this case logs an infinite error
        register_plugin(
            ProblemSpec(
                name="always-nan",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=lambda x: NaN,
                f_true=0.0,
            )
        )
        try:
            config = self.write_config(tmp_path, problems=["F1", "always-nan"])
            out = tmp_path / "out"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["stats", "--in", str(out), "--reference", "dvo"]) == 0
            table = stats.summarize(load_result_set(out))
        finally:
            clear_plugins()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["algorithm", "avg_rank", "wins", "cases"]
        rows = [line.split() for line in lines if " vs dvo " in line]
        f1, never = table.cases
        assert never.metrics == {"pso": math.inf, "dvo": math.inf}
        # n counts F1 only: the equal infinities of always-nan are a zero difference;
        # the means and their difference cover F1 only, the one case finite for both
        pso, dvo = f1.metrics["pso"], f1.metrics["dvo"]
        assert [row[:7] for row in rows] == [
            ["pso", "vs", "dvo", "1", f"{pso:.3f}", f"{dvo:.3f}", f"{pso - dvo:+.3f}"]
        ]

    def test_run_requires_output_somewhere(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 1
        assert "no output directory" in capsys.readouterr().err

    def test_run_output_from_config_field(self, tmp_path, capsys):
        out = tmp_path / "fromcfg"
        config = self.write_config(tmp_path, output=str(out))
        assert main(["run", "--config", str(config)]) == 0
        assert (out / "summary.csv").exists()
        capsys.readouterr()

    def test_seed_override_lands_in_snapshot(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out), "--seed", "99"]) == 0
        capsys.readouterr()
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["execution"]["master_seed"] == 99

    def test_an_interrupt_is_a_message(self, tmp_path, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_experiment", interrupted)
        config = self.write_config(tmp_path)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 130
        captured = capsys.readouterr()
        assert captured.err == "error: interrupted\n"
        assert "Traceback" not in captured.out + captured.err

    def test_missing_input_dir(self, tmp_path, capsys):
        assert main(["tables", "--in", str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_null_penalty_coefficient_is_a_config_error(self, tmp_path, capsys):
        config = self.write_config(tmp_path, penalty={"coefficient": None})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert "penalty coefficient must be a number, got None" in capsys.readouterr().err

    def test_bad_config_path(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", "x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_list_problems(self, capsys):
        assert main(["list", "problems"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "F1" in out
        assert "three_bar_truss" in out
        assert len(out) == 28

    def test_list_algorithms(self, capsys):
        assert main(["list", "algorithms"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "dvo",
            "aoa",
            "eo",
            "gwo",
            "pso",
            "sca",
            "woa",
            "dvo:full",
            "dvo:no_greedy",
            "dvo:no_switch",
            "dvo:single_vortex",
            "dvo:no_swirl",
            "dvo:no_adaptive_spiral",
            "dvo:no_splash",
        ]
        # each printed name is a grid algorithm, so a config may list it as printed
        for name in out:
            assert validate_config(tiny_config(algorithms=(AlgorithmSpec(name),))) == [], name

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 2
        # the seven dvo variants are listed by name in a config that `run` takes
        with pytest.raises(SystemExit) as err:
            main(["ablation", "--config", "config.json"])
        assert err.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "drainvortex", "list", "algorithms"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "dvo" in proc.stdout.splitlines()

    def test_failed_runs_exit_nonzero(self, tmp_path, capsys):
        # an engineering problem name with a dimension mismatch cannot happen
        # through validation, so force a failure with an unrunnable problem
        def explode(x):
            raise RuntimeError("boom")

        register_plugin(
            ProblemSpec(
                name="exploding",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                objective=explode,
            )
        )
        try:
            config = self.write_config(tmp_path, problems=["exploding"], dimensions=[])
            out = tmp_path / "out"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        finally:
            clear_plugins()
        captured = capsys.readouterr()
        assert "runs failed" in captured.err
        assert "boom" in captured.err


class TestRecordFiles:
    """RunRecord defines each line of records.jsonl."""

    def test_record_file_is_runrecord_fields_in_order(self, tmp_path):
        out = emit_records(run_experiment(tiny_config(runs=1)), tmp_path / "out")
        (line,) = record_lines(out)
        assert list(json.loads(line)) == ["schema_version"] + [f.name for f in fields(RunRecord)]

    def test_missing_field_names_the_file(self, tmp_path, capsys):
        out = emit_records(run_experiment(tiny_config(runs=1)), tmp_path / "out")
        victim = out / "records.jsonl"
        data = json.loads(victim.read_text())
        del data["algorithm"], data["trace"]
        victim.write_text(json.dumps(data) + "\n")
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [
            f"{victim}:1: missing record field 'algorithm'",
            f"{victim}:1: missing record field 'trace'",
        ]
        assert main(["tables", "--in", str(out)]) == 1
        message = capsys.readouterr().err
        assert f"{victim}:1" in message and "'algorithm'" in message

    @pytest.mark.parametrize(
        "text,entry",
        [
            ('{"schema_version": 1, "algor', "parse error at line 1, column 23"),
            ("[1, 2]", "a record must be a mapping, got list"),
        ],
    )
    def test_unreadable_record_names_the_file(self, tmp_path, capsys, text, entry):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        victim = out / "records.jsonl"
        first, _ = record_lines(out)
        victim.write_text(first + "\n" + text)
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(f"{victim}:2: {entry}")
        assert main(["tables", "--in", str(out)]) == 1
        assert f"{victim}:2" in capsys.readouterr().err

    def test_torn_last_line_names_the_line(self, tmp_path, capsys):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        victim = out / "records.jsonl"
        text = victim.read_text()
        victim.write_text(text[: len(text) - 40])
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(f"{victim}:2: parse error at line 1, column ")
        assert main(["tables", "--in", str(out)]) == 1
        assert f"{victim}:2" in capsys.readouterr().err

    def test_duplicate_line_names_the_line(self, tmp_path, capsys):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        victim = out / "records.jsonl"
        first, second = record_lines(out)
        victim.write_text("\n".join([first, second, first]) + "\n")
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [
            f"{victim}:3: a second record of pso F1 d2 run 0, first at line 1"
        ]
        assert main(["tables", "--in", str(out)]) == 1
        assert f"{victim}:3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,run",
        [({"algorithm": "gwo"}, "gwo F1 d2 run 1"), ({"run_index": 2}, "pso F1 d2 run 2")],
        ids=["unknown-algorithm", "run-index-past-runs"],
    )
    def test_run_outside_the_grid_names_the_line(self, tmp_path, capsys, edit, run):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        victim = out / "records.jsonl"
        first, second = record_lines(out)
        stray = json.dumps({**json.loads(second), **edit})
        victim.write_text("\n".join([first, second, stray]) + "\n")
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [f"{victim}:3: {run} is not a run of the stored config"]
        assert main(["tables", "--in", str(out)]) == 1
        assert f"{victim}:3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,value,entry",
        [
            ("checkpoints", [1, 2], "must be a mapping of sweep numbers to numbers, got list"),
            ("checkpoints", {"last": 0.5}, "must be a mapping of sweep numbers to numbers, got dict"),
            # a key json would not write for an int: a leading zero, a non-ASCII digit
            ("checkpoints", {"02": 0.5}, "must be a mapping of sweep numbers to numbers, got dict"),
            ("checkpoints", {"\u0664": 0.5}, "must be a mapping of sweep numbers to numbers, got dict"),
            ("trace", "0.5", "must be a list of numbers, got str"),
            ("best_position", [0.5, None], "must be a list of numbers, got list"),
            ("dim", "2", "must be an integer, got str"),
            ("best_value", True, "must be a number, got bool"),
            ("feasible", 1, "must be true, false or null, got int"),
        ],
        ids=[
            "checkpoints-list",
            "checkpoints-key",
            "checkpoints-leading-zero",
            "checkpoints-non-ascii-digit",
            "trace-str",
            "position-null",
            "dim-str",
            "value-bool",
            "feasible-int",
        ],
    )
    def test_mistyped_field_names_the_line(self, tmp_path, capsys, name, value, entry):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        victim = out / "records.jsonl"
        first, second = record_lines(out)
        data = json.loads(second)
        data[name] = value
        victim.write_text(first + "\n" + json.dumps(data) + "\n")
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [f"{victim}:2: record field {name!r} {entry}"]
        assert main(["tables", "--in", str(out)]) == 1
        assert f"{victim}:2: record field {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values",
        [
            np.array([-0.0, 0.0, 5e-324, 1e-310, -2.5e-320, math.inf, -math.inf, 1 / 3, -1e300, 0.1]),
            np.array([-0.0, 1e-45, -1e-40, math.inf, -math.inf, 1 / 3, 0.1], dtype=np.float32),
            np.array([-3, 0, 2**53 + 1, 7]),
        ],
        ids=["float64", "float32", "int64"],
    )
    def test_line_text_is_that_of_float_lists(self, values):
        # the arrays go out through tolist(), which must give the JSON text of
        # one float() per entry: signed zeros, subnormals and infinities too
        (record,) = run_experiment(tiny_config(runs=1)).records
        record = replace(record, best_position=values, trace=values[::-1])
        old = {"schema_version": SCHEMA_VERSION}
        old.update((f.name, getattr(record, f.name)) for f in fields(RunRecord))
        old["best_position"] = [float(v) for v in record.best_position]
        old["trace"] = [float(v) for v in record.trace]
        assert encode(record) == json.dumps(old)

    def test_missing_records_file_is_named(self, tmp_path):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        victim = out / "records.jsonl"
        # a directory of the per-run record files that came before it
        (out / "records").mkdir()
        (out / "records" / "pso__F1__d2__r000.json").write_text(record_lines(out)[0] + "\n")
        victim.unlink()
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [f"{victim}: no records file found"]

    @pytest.mark.parametrize(
        "payload,entries",
        [
            (
                [{"algorithm": "pso"}],
                [f"missing failure field {name!r}" for name in ("problem", "dim", "run_index", "message")],
            ),
            ({"algorithm": "pso"}, ["must be a list, got dict"]),
            (["pso"], ["a failure must be a mapping, got str"]),
            (
                [{"algorithm": 7, "problem": ["x"], "dim": "two", "run_index": None, "message": 3}],
                [
                    "failure field 'algorithm' must be a string, got int",
                    "failure field 'problem' must be a string, got list",
                    "failure field 'dim' must be an integer, got str",
                    "failure field 'run_index' must be an integer, got NoneType",
                    "failure field 'message' must be a string, got int",
                ],
            ),
            ([{**FAILURE, "run_index": 1}], ["pso F1 d2 run 1 is not a run of the stored config"]),
            ([{**FAILURE, "run_index": 0}], ["a failure of pso F1 d2 run 0, which has a record"]),
        ],
    )
    def test_malformed_failures_name_the_file(self, tmp_path, capsys, payload, entries):
        out = emit_records(run_experiment(tiny_config(runs=1)), tmp_path / "out")
        victim = out / "failures.json"
        victim.write_text(json.dumps(payload))
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [f"{victim}: {entry}" for entry in entries]
        assert main(["tables", "--in", str(out)]) == 1
        message = capsys.readouterr().err
        assert message.startswith("error: ") and str(victim) in message

    def test_repeated_failure_names_the_file(self, tmp_path):
        out = emit_records(run_experiment(tiny_config()), tmp_path / "out")
        # run 1 failed: its record goes and failures.json holds it twice
        first, _ = record_lines(out)
        (out / "records.jsonl").write_text(first + "\n")
        victim = out / "failures.json"
        victim.write_text(json.dumps([{**FAILURE, "run_index": 1}] * 2))
        with pytest.raises(ConfigError) as err:
            load_result_set(out)
        assert err.value.problems == [f"{victim}: a second failure of pso F1 d2 run 1, first at entry 1"]

    def test_records_load_in_grid_order(self, tmp_path):
        config = tiny_config(
            problems=("F1", "F5"), algorithms=(AlgorithmSpec("pso"), AlgorithmSpec("gwo"))
        )
        result = run_experiment(config)
        out = emit_records(result, tmp_path / "out")
        lines = record_lines(out)
        (out / "records.jsonl").write_text("\n".join(reversed(lines)) + "\n")
        loaded = load_result_set(out)
        assert [run_key(line) for line in lines] == config.grid_runs()
        assert masked(loaded.records) == masked(result.records)

"""Experiment orchestration: configuration loading and validation, grid
execution (optionally across processes), result persistence, and the table,
statistics, and convergence emitters.

Determinism contract: a ResultSet is a pure function of its config. Run
seeds mix the master seed with the cell coordinates, so adding or removing
grid cells never perturbs the seeds of other cells, and neither the worker
count nor the batches that runs share change results, only scheduling
(wall times excepted).
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import signal
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import benchmarks, engine, stats
from .baselines import BASELINES, OPTIMIZERS, BaselineConfig
from .errors import ConfigError, DrainVortexError, shown
from .records import DEFAULT_CHECKPOINTS, SCHEMA_VERSION, RunRecord, floored_log10
from .rng import mix_seed

SUITES = (*benchmarks.SUITES, "custom")

SUMMARY_COLUMNS = (
    "algorithm",
    "problem",
    "dim",
    "seed",
    "best",
    "error",
    "log10_error",
    "feasible",
    "max_violation",
    "walltime_ms",
)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A grid algorithm: catalog name (or dvo:<variant>) plus overrides."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str = "custom"
    problems: tuple = ()
    dimensions: tuple = ()
    algorithms: tuple = ()
    runs: int = 30
    iterations: int = 1000
    n_agents: int = 30
    master_seed: int = 0
    checkpoints: tuple = DEFAULT_CHECKPOINTS
    output: str | None = None
    workers: int = 1
    penalty_coeff: float = benchmarks.DEFAULT_PENALTY_COEFF
    feasibility_tol: float = benchmarks.DEFAULT_FEASIBILITY_TOL

    def algorithm_names(self) -> list:
        return [spec.name for spec in self.algorithms]

    def case_list(self) -> list:
        """Grid cases as (problem, dim) pairs in suite order: a scalable
        problem at each of `dimensions`, any other at its fixed dimension.
        The dimensions are read from the catalog tables
        (`benchmarks.fixed_dimension`), so listing a grid builds no problem;
        an unknown name raises KeyError."""
        cases = []
        for name in benchmarks.SUITES.get(self.suite, self.problems):
            dim = benchmarks.fixed_dimension(name)
            if dim is None:
                cases.extend((name, int(d)) for d in self.dimensions)
            else:
                cases.append((name, dim))
        return cases

    def grid_runs(self) -> list:
        """Each run's (algorithm, problem, dim, run_index), in grid order."""
        cases = self.case_list()
        return [
            (name, problem, dim, run_index)
            for name in self.algorithm_names()
            for problem, dim in cases
            for run_index in range(self.runs)
        ]


# the ExperimentConfig fields a config file sets in its "execution" section
EXECUTION_KEYS = ("runs", "iterations", "n_agents", "master_seed", "workers")


def _resolve_algorithm(name: str, params: dict, n_agents: int, iterations: int):
    """The DvoParams or BaselineConfig (its parameter block resolved) that
    grid algorithm `name` runs at the execution sizes. A `dvo:<variant>`
    block takes its variant's overrides before the check, so it is checked
    as it runs. Raises ConfigError for an unknown name or variant, or with
    the entries of the settings' own checks, each labelled with `name`."""
    base, colon, variant = name.partition(":")
    if base == "dvo" and colon and variant not in engine.ABLATION_VARIANTS:
        raise ConfigError([f"unknown dvo variant {variant!r}"])
    if base != "dvo" and name not in BASELINES:
        raise ConfigError([f"unknown algorithm {shown(name)}"])
    sizes = {"n_agents": n_agents, "iterations": iterations}
    try:
        if base == "dvo":
            return engine.DvoParams.from_mapping(
                {**sizes, **params, **engine.ABLATION_VARIANTS.get(variant, {})}
            )
        overrides = {**sizes, **params}
        config = BaselineConfig(name, overrides.pop("n_agents"), overrides.pop("iterations"), overrides)
        return replace(config, params=config.resolved())
    except ConfigError as exc:
        raise ConfigError([f"{name}: {entry}" for entry in exc.problems]) from exc


# the scalar fields, the names a config file gives the real ones, and the
# intervals of the bounded ones by those names
_SCALARS = ("runs", "master_seed", "workers", "penalty_coeff", "feasibility_tol")
_LABELS = {"penalty_coeff": "penalty coefficient", "feasibility_tol": "penalty feasibility_tol"}
_SCALAR_BOUNDS = {
    "runs": "[1, inf)",
    "workers": "[1, inf)",
    "penalty coefficient": "(0, inf)",
    "penalty feasibility_tol": "[0, inf]",
}


def _list_of(values, kind) -> bool:
    """Whether `values` is a list or tuple of `kind` (a bool is not an int)."""
    return isinstance(values, (list, tuple)) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in values
    )


def _duplicates(values, label: str) -> list:
    """One entry per value that `values` holds more than once, in sorted order."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    return [f"duplicate {label} {shown(v)}" for v in repeated]


def validate_config(config: ExperimentConfig) -> list:
    """Collect every problem with a config instead of stopping at the first.

    This is the one check of a config's values, for a config read from a
    file and one built in Python alike. A value of the wrong type gets one
    entry and is compared with no bound; a NaN gets one entry too.
    """
    problems = []
    if config.suite not in SUITES:
        problems.append(f"unknown suite {shown(config.suite)}; expected one of {SUITES}")
    defaults = ExperimentConfig()
    for key in _SCALARS:
        label = _LABELS.get(key, key)
        problems.extend(
            engine.parameter_problems(
                {label: getattr(config, key)}, {label: getattr(defaults, key)}, _SCALAR_BOUNDS
            )[0]
        )
    # the seed hash prints the master seed; Python prints no integer of over 4,300 digits
    try:
        mix_seed(config.master_seed)
    except ValueError:
        problems.append(f"master_seed must be short enough to print, got {shown(config.master_seed)}")

    specs = []
    if not _list_of(config.algorithms, AlgorithmSpec):
        problems.append(f"'algorithms' must be a list of AlgorithmSpec entries, got {shown(config.algorithms)}")
    elif not config.algorithms:
        problems.append("at least one algorithm is required")
    else:
        for spec in config.algorithms:
            if not isinstance(spec.name, str):
                problems.append(f"algorithm names must be strings, got {shown(spec.name)}")
            elif not isinstance(spec.params, Mapping):
                problems.append(f"algorithm {spec.name!r}: params must be a mapping, got {shown(spec.params)}")
            else:
                specs.append(spec)
    problems.extend(_duplicates([spec.name for spec in specs], "algorithm"))
    for spec in specs:
        try:
            _resolve_algorithm(spec.name, spec.params, config.n_agents, config.iterations)
        except ConfigError as exc:
            problems.extend(exc.problems)
    # an execution size that every entry overrides reaches no algorithm's
    # check, so it is checked against the config's own default
    unused = {
        key: getattr(config, key)
        for key in ("n_agents", "iterations")
        if all(key in spec.params for spec in specs)
    }
    problems.extend(engine.parameter_problems(unused, vars(defaults))[0])

    names = config.problems
    if not _list_of(names, str):
        problems.append(f"'problems' must be a list of names, got {shown(names)}")
        names = ()
    elif config.suite == "custom":
        if not names:
            problems.append("suite 'custom' requires an explicit problems list")
    elif names and config.suite in SUITES:
        problems.append(f"problems list is only valid with suite 'custom', not {shown(config.suite)}")
    problems.extend(_duplicates(names, "problem"))
    catalog = benchmarks.catalog_names()
    problems.extend(f"unknown problem {name!r}" for name in names if name not in catalog)

    dims = config.dimensions
    if not _list_of(dims, int):
        problems.append(f"'dimensions' must be a list of integers, got {shown(dims)}")
    else:
        # a suite's own names, when the suite is known (it may be unhashable)
        listed = (*benchmarks.SUITES.get(config.suite, ()), *names) if config.suite in SUITES else names
        needs_dims = any(name in benchmarks.SUITES["classical_scalable"] for name in listed)
        if needs_dims and not dims:
            problems.append("scalable problems require a non-empty dimensions list")
        problems.extend(f"dimensions must be integers >= 2, got {shown(d)}" for d in dims if d < 2)
        problems.extend(_duplicates(dims, "dimension"))

    if not _list_of(config.checkpoints, int):
        problems.append(f"'checkpoints' must be a list of integers, got {shown(config.checkpoints)}")
    if config.output is not None and not isinstance(config.output, str):
        problems.append(f"'output' must be a string path, got {shown(config.output)}")
    return problems


def expand_ablation(config: ExperimentConfig) -> ExperimentConfig:
    """Replace the algorithm list with the seven dvo ablation variants.

    The base parameter block is taken from the first dvo entry (if any);
    re-expansion of an already expanded config is a no-op.
    """
    base_params: dict = {}
    for spec in config.algorithms:
        if spec.name == "dvo" or spec.name.startswith("dvo:"):
            base_params = dict(spec.params)
            break
    variants = tuple(
        AlgorithmSpec(name=f"dvo:{variant}", params=dict(base_params))
        for variant in engine.ABLATION_VARIANTS
    )
    return replace(config, algorithms=variants)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from parsed structured data. This checks
    only the file's shape (its sections, keys and algorithm entries);
    validate_config checks the values."""
    problems = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])
    # the sections and keys of a config file, holding ExperimentConfig's defaults
    template = config_to_dict(ExperimentConfig())
    for key in sorted(set(data) - set(template)):
        problems.append(f"unknown config key {key!r}")
    sections = {}
    for name in ("execution", "penalty"):
        section = data.get(name, {})
        if not isinstance(section, dict):
            problems.append(f"{name!r} must be a mapping")
            section = {}
        for key in sorted(set(section) - set(template[name])):
            problems.append(f"unknown {name} key {key!r}")
        sections[name] = {**template[name], **section}
    execution = sections["execution"]

    algorithms = []
    raw_algorithms = data.get("algorithms", [])
    if not isinstance(raw_algorithms, list):
        problems.append("'algorithms' must be a list")
        raw_algorithms = []
    for entry in raw_algorithms:
        if isinstance(entry, str):
            algorithms.append(AlgorithmSpec(name=entry))
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            extra = sorted(set(entry) - {"name", "params"})
            if extra:
                problems.append(f"algorithm {entry['name']!r}: unknown keys {extra}")
            algorithms.append(AlgorithmSpec(name=entry["name"], params=entry.get("params", {})))
        else:
            problems.append(f"algorithm entries must be names or mappings with a name, got {shown(entry)}")

    def _tuple(key):
        value = data.get(key, template[key])
        return tuple(value) if isinstance(value, list) else value

    config = ExperimentConfig(
        suite=data.get("suite", template["suite"]),
        problems=_tuple("problems"),
        dimensions=_tuple("dimensions"),
        algorithms=tuple(algorithms),
        checkpoints=_tuple("checkpoints"),
        output=data.get("output"),
        penalty_coeff=sections["penalty"]["coefficient"],
        feasibility_tol=sections["penalty"]["feasibility_tol"],
        **{key: execution[key] for key in EXECUTION_KEYS},
    )
    problems.extend(validate_config(config))
    if problems:
        raise ConfigError(problems)
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "suite": config.suite,
        "problems": list(config.problems),
        "dimensions": list(config.dimensions),
        "algorithms": [
            {"name": spec.name, "params": dict(spec.params)} for spec in config.algorithms
        ],
        "execution": {key: getattr(config, key) for key in EXECUTION_KEYS},
        "checkpoints": list(config.checkpoints),
        "penalty": {
            "coefficient": config.penalty_coeff,
            "feasibility_tol": config.feasibility_tol,
        },
        "output": config.output,
    }


def _parse_json(text: str, source: str):
    """JSON text's data; a parse error is a ConfigError naming `source`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{source}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    return config_from_dict(_parse_json(Path(path).read_text(), str(path)))


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureRecord:
    algorithm: str
    problem: str
    dim: int
    run_index: int
    message: str


@dataclass
class ResultSet:
    config: ExperimentConfig
    records: list
    failures: list = field(default_factory=list)


def _optimizer(name: str) -> tuple:
    """The (init, sweep) pair that `engine.run_optimizer` drives for grid
    algorithm `name`."""
    if name.partition(":")[0] == "dvo":
        return engine.initialize, engine.sweep
    return OPTIMIZERS[name]


def _problem(config: ExperimentConfig, name: str, dim: int, built: dict):
    """The problem that grid case (name, dim) runs on, penalized if it is
    constrained; `built` keeps each case's problem, so it is built once."""
    if (name, dim) not in built:
        problem = benchmarks.get_problem(name, dim)
        if problem.constrained:
            problem = benchmarks.penalize(problem, config.penalty_coeff)
        built[name, dim] = problem
    return built[name, dim]


def _run_batch(config: ExperimentConfig, settings: dict, built: dict, runs: list) -> list:
    """The records of grid runs `runs`, of one dimension, stepped together by
    `engine.run_optimizer` as one group per algorithm."""
    groups: dict = {}
    for run in runs:
        problem = _problem(config, run[1], run[2], built)
        groups.setdefault(run[0], []).append((problem, mix_seed(config.master_seed, *run), run[3]))
    records = engine.run_optimizer(
        [
            engine.Group(name, *_optimizer(name), settings[name], triples)
            for name, triples in groups.items()
        ],
        config.checkpoints,
    )
    for record in records:
        if record.max_violation is not None:
            record.feasible = record.max_violation <= config.feasibility_tol
    return records


def _execute_batch(config: ExperimentConfig, settings: dict, built: dict, runs: list) -> list:
    """The record or the FailureRecord of each grid run of `runs`, a batch of
    `config.grid_runs()` keys, with each algorithm's `settings` and the
    problems `built` so far. A batch of several cases that raises runs again
    case by case, every algorithm's runs of one (problem, dim) together, and
    a case that raises runs again one run at a time, so that only a run
    that raises alone fails, with its own message, and the healthy cases
    keep their pooled calls."""
    try:
        return _run_batch(config, settings, built, runs)
    except Exception as exc:  # noqa: BLE001 - failures become grid diagnostics
        if len(runs) == 1:
            return [FailureRecord(*runs[0], message=f"{type(exc).__name__}: {exc}")]
        cases: dict = {}
        for run in runs:
            cases.setdefault(run[1:3], []).append(run)
        parts = cases.values() if len(cases) > 1 else [[run] for run in runs]
        return [o for part in parts for o in _execute_batch(config, settings, built, part)]


# runs of one algorithm one batch may hold: per run, a 30-agent dvo sweep on F9
# at d30 cost 347, 281, 215, 175, 156 and 147 us in batches of 1, 2, 4, 8, 16 and
# 32 runs (a 2-vCPU Xeon host), so a batch past 16 runs saves little more
BATCH_RUNS = 16


def _batch_size(config: ExperimentConfig, degree: int) -> int:
    """Runs of one algorithm per batch of `config`'s grid on `degree`
    workers: BATCH_RUNS on one worker, and on more the largest size, at
    most BATCH_RUNS, that still cuts the grid into 4 batches per worker (1
    if none does). The search lists the grid's cases once and cuts that
    one list at each size it tries."""
    if degree <= 1:
        return BATCH_RUNS
    cases = config.case_list()
    sizes = range(BATCH_RUNS, 1, -1)
    return next((size for size in sizes if len(_case_batches(cases, config.runs, size)) >= 4 * degree), 1)


def _case_batches(cases: list, runs: int, size: int) -> list:
    """The batches of a grid of `cases` with `runs` runs each, as lists of
    (problem, dim, run indices) pieces: consecutive cases of one dimension,
    whole, with at most `size` runs in all; a case of more than `size` runs
    is cut into pieces of `size` runs (the last may be shorter)."""
    by_dim: dict = {}
    for problem, dim in cases:
        batches = by_dim.setdefault(dim, [[]])
        for lo in range(0, runs, size):
            piece = (problem, dim, range(lo, min(lo + size, runs)))
            if sum(len(indices) for *_, indices in batches[-1]) + len(piece[2]) > size:
                batches.append([])
            batches[-1].append(piece)
    return [batch for batches in by_dim.values() for batch in batches]


def _batches(config: ExperimentConfig, size: int) -> list:
    """The grid's runs as batches of `config.grid_runs()` keys, each in grid
    order: every algorithm's runs of the pieces of one of `_case_batches`,
    so that the runs of a case share their batch."""
    names = config.algorithm_names()
    return [
        [(name, problem, dim, i) for name in names for problem, dim, indices in batch for i in indices]
        for batch in _case_batches(config.case_list(), config.runs, size)
    ]


def _claimed(counter, count: int):
    """Batch indices below `count`, taken in turn from the shared `counter`
    (a `multiprocessing.Value`), each by one of the processes that share it."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= count:
            return
        yield index


def _run_batches(config: ExperimentConfig, settings: dict, batches: list, indices) -> list:
    """The outcomes of `batches[i]` for each i of `indices`, with problems
    this process builds and never sends (a penalized objective is a local
    function, which cannot be pickled)."""
    built: dict = {}
    return [o for i in indices for o in _execute_batch(config, settings, built, batches[i])]


def _child(sender, config: ExperimentConfig, settings: dict, batches: list, counter) -> None:
    """A forked worker: it sends its outcomes once, after its last batch, so
    that it never waits on a full pipe mid-grid. It ignores Ctrl-C, which
    reaches its parent too: the parent terminates its children."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sender.send(_run_batches(config, settings, batches, _claimed(counter, len(batches))))


def run_experiment(config: ExperimentConfig, parallel: int | None = None) -> ResultSet:
    """Execute the full grid; failures are collected, not raised.

    Each algorithm is resolved once, and the runs of whole cases of one
    dimension, every algorithm's, step together in batches (`_batches`,
    `_batch_size`). N workers are this process and N - 1 children forked
    before it claims a batch, at most one process per batch: each process
    claims the next batch, in grid order, from one shared counter as it
    frees up, and builds each case's problem once. A child inherits the
    config, the settings, the batches and any plugins by fork and sends its
    outcomes once, at the end. `engine.run_optimizer` steps a batch as one
    group per algorithm: each group's sweep yields its proposals, and the
    driver evaluates every group's together, so the runs of a case, which
    share its problem object, share each objective call of a sweep when the
    problem is vectorized and not noisy. Results are identical for any
    parallelism degree and any batching: seeds are derived per cell, each
    run's record is the record it gets alone, and grid order (not
    completion order) fixes the record order. A child that exits without
    sending raises DrainVortexError, and any exception that leaves this
    process's batches, an interrupt too, first terminates every child.
    """
    # a --parallel degree is checked by the workers rule
    checked = config if parallel is None else replace(config, workers=parallel)
    problems = validate_config(checked)
    if problems:
        raise ConfigError(problems)
    settings = {
        spec.name: _resolve_algorithm(spec.name, spec.params, config.n_agents, config.iterations)
        for spec in config.algorithms
    }
    runs = config.grid_runs()
    batches = _batches(config, _batch_size(config, checked.workers))
    workers = min(checked.workers, len(batches))
    indices = range(len(batches))
    children = []
    try:
        if workers > 1:
            context = multiprocessing.get_context("fork")
            counter = context.Value("q", 0)
            indices = _claimed(counter, len(batches))
            for _ in range(workers - 1):
                receiver, sender = context.Pipe(duplex=False)
                child = context.Process(target=_child, args=(sender, config, settings, batches, counter))
                child.start()
                children.append((child, receiver))
                # the child holds the only write end, so its exit ends the pipe
                sender.close()
        outcomes = _run_batches(config, settings, batches, indices)
        for child, receiver in children:
            try:
                outcomes += receiver.recv()
            except EOFError:
                child.join()
                raise DrainVortexError(
                    f"a worker process exited with code {child.exitcode} before it sent its runs"
                ) from None
            child.join()
    finally:
        for child, receiver in children:
            receiver.close()
            if child.exitcode is None:
                child.terminate()
                child.join()
    by_run = {(o.algorithm, o.problem, o.dim, o.run_index): o for o in outcomes}
    ordered = [by_run[run] for run in runs]
    records = [outcome for outcome in ordered if isinstance(outcome, RunRecord)]
    failures = [outcome for outcome in ordered if isinstance(outcome, FailureRecord)]
    return ResultSet(config=config, records=records, failures=failures)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


# one line per run, each `json.dumps(_record_to_dict(record))`, in grid order
RECORDS_FILE = "records.jsonl"

# the fields of each dataclass that a file stores, in declaration order
_STORED_FIELDS = {kind: fields(kind) for kind in (RunRecord, FailureRecord)}


def _record_to_dict(record: RunRecord) -> dict:
    """The schema version, then RunRecord's fields in declaration order
    (json writes the integer checkpoint keys as text)."""
    data = {"schema_version": SCHEMA_VERSION}
    data.update((f.name, getattr(record, f.name)) for f in _STORED_FIELDS[RunRecord])
    data["best_position"] = np.asarray(record.best_position, dtype=float).tolist()
    data["trace"] = np.asarray(record.trace, dtype=float).tolist()
    return data


def _numbers(values) -> bool:
    return set(map(type, values)) <= {int, float}


# the JSON value a stored RunRecord or FailureRecord field takes, by its annotation
_JSON_VALUES = {
    "str": ("a string", lambda v: type(v) is str),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: _numbers((v,))),
    "Optional[float]": ("a number or null", lambda v: v is None or _numbers((v,))),
    "Optional[bool]": ("true, false or null", lambda v: v is None or type(v) is bool),
    "Array": ("a list of numbers", lambda v: type(v) is list and _numbers(v)),
    "dict": (
        "a mapping of sweep numbers to numbers",
        lambda v: type(v) is dict and all(k.isdecimal() for k in v) and _numbers(v.values()),
    ),
}


def _field_values(kind, data, source: str, label: str) -> dict:
    """The values of dataclass `kind`'s fields in one entry of a file; an entry
    that is not a mapping, misses a field or holds a field of the wrong JSON
    type (`_JSON_VALUES`) is a ConfigError naming the file."""
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: a {label} must be a mapping, got {type(data).__name__}"])
    kind_fields = _STORED_FIELDS[kind]
    missing = [f.name for f in kind_fields if f.name not in data]
    if missing:
        raise ConfigError([f"{source}: missing {label} field {name!r}" for name in missing])
    bad = [
        f"{source}: {label} field {f.name!r} must be {_JSON_VALUES[f.type][0]}, "
        f"got {type(data[f.name]).__name__}"
        for f in kind_fields
        if not _JSON_VALUES[f.type][1](data[f.name])
    ]
    if bad:
        raise ConfigError(bad)
    return {f.name: data[f.name] for f in kind_fields}


def _record_from_dict(data: dict, source: str) -> RunRecord:
    if isinstance(data, dict) and data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError([f"{source}: unsupported schema version {data.get('schema_version')!r}"])
    values = _field_values(RunRecord, data, source, "record")
    values["best_position"] = np.asarray(values["best_position"], dtype=float)
    values["trace"] = np.asarray(values["trace"], dtype=float)
    values["checkpoints"] = {int(k): v for k, v in values["checkpoints"].items()}
    return RunRecord(**values)


def _grid_run(entry: RunRecord | FailureRecord, grid: dict, source: str) -> tuple:
    """The (algorithm, problem, dim, run_index) key of a stored entry and its
    text; a run that is not in `grid` is a ConfigError naming `source`."""
    key = (entry.algorithm, entry.problem, entry.dim, entry.run_index)
    run = "{} {} d{} run {}".format(*key)
    if key not in grid:
        raise ConfigError([f"{source}: {run} is not a run of the stored config"])
    return key, run


def _read_records(path: Path, grid: dict) -> dict:
    """The records of records.jsonl by run key, one per line; a bad line (not
    JSON, torn, not a record, not a run of `grid`, or a second record of the
    same run) is a ConfigError naming the file and the line. `grid` holds the
    (algorithm, problem, dim, run_index) key of each run of the stored config."""
    if not path.exists():
        raise ConfigError([f"{path}: no records file found"])
    records, line_of = {}, {}
    with path.open() as stream:
        for number, line in enumerate(stream, start=1):
            source = f"{path}:{number}"
            record = _record_from_dict(_parse_json(line, source), source)
            key, run = _grid_run(record, grid, source)
            if key in line_of:
                raise ConfigError([f"{source}: a second record of {run}, first at line {line_of[key]}"])
            line_of[key] = number
            records[key] = record
    return records


def _read_failures(path: Path, grid: dict, recorded) -> list:
    """The entries of failures.json (none without the file); an entry that is
    not a failure, not a run of `grid`, a run in `recorded` or a second
    failure of the same run is a ConfigError naming the file."""
    if not path.exists():
        return []
    items = _parse_json(path.read_text(), str(path))
    if not isinstance(items, list):
        raise ConfigError([f"{path}: must be a list, got {type(items).__name__}"])
    failures, entry_of = [], {}
    for number, item in enumerate(items, start=1):
        failure = FailureRecord(**_field_values(FailureRecord, item, str(path), "failure"))
        key, run = _grid_run(failure, grid, str(path))
        if key in recorded:
            raise ConfigError([f"{path}: a failure of {run}, which has a record"])
        if key in entry_of:
            raise ConfigError([f"{path}: a second failure of {run}, first at entry {entry_of[key]}"])
        entry_of[key] = number
        failures.append(failure)
    return failures


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_rows(result_set: ResultSet) -> list:
    """Flat per-run rows; the seed column is the run index within the cell."""
    rows = []
    for r in result_set.records:
        rows.append(
            [
                r.algorithm,
                r.problem,
                str(r.dim),
                str(r.run_index),
                _csv_cell(r.best_value),
                _csv_cell(r.error),
                _csv_cell(r.log10_error),
                _csv_cell(r.feasible),
                _csv_cell(r.max_violation),
                _csv_cell(r.walltime_ms),
            ]
        )
    return rows


def emit_records(result_set: ResultSet, out_dir) -> Path:
    """Write the config snapshot, records.jsonl (one record per line, in grid
    order) and summary.csv; an earlier grid's records.jsonl is overwritten
    and its failures.json removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "failures.json").unlink(missing_ok=True)
    save_config(result_set.config, out / "config.json")
    with (out / RECORDS_FILE).open("w") as stream:
        for record in result_set.records:
            stream.write(json.dumps(_record_to_dict(record)) + "\n")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(summary_rows(result_set))
    (out / "summary.csv").write_text(buffer.getvalue())
    if result_set.failures:
        payload = [asdict(f) for f in result_set.failures]
        (out / "failures.json").write_text(json.dumps(payload, indent=2) + "\n")
    return out


def load_result_set(in_dir) -> ResultSet:
    """Read back a persisted ResultSet (config, records, failures)."""
    root = Path(in_dir)
    config_path = root / "config.json"
    if not config_path.exists():
        raise ConfigError([f"{config_path}: no config snapshot found"])
    config = load_config(config_path)
    grid = dict.fromkeys(config.grid_runs())
    records = _read_records(root / RECORDS_FILE, grid)
    failures = _read_failures(root / "failures.json", grid, records)
    ordered = [records[run] for run in grid if run in records]
    return ResultSet(config=config, records=ordered, failures=failures)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _latex_escape(text: str) -> str:
    return text.replace("_", r"\_")


def _render_plain(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    for row in [list(header)] + [list(r) for r in rows]:
        first = row[0].ljust(widths[0])
        rest = [cell.rjust(widths[j + 1]) for j, cell in enumerate(row[1:])]
        lines.append("  ".join([first] + rest).rstrip())
    return "\n".join(lines) + "\n"


def _render_latex(header, rows) -> str:
    spec = "l" + "r" * (len(header) - 1)
    lines = [f"\\begin{{tabular}}{{{spec}}}"]
    lines.append(" & ".join(_latex_escape(h) for h in header) + r" \\")
    lines.append(r"\hline")
    for row in rows:
        cells = [_latex_escape(row[0])] + list(row[1:])
        lines.append(" & ".join(cells) + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def _case_cell(case: stats.CaseSummary, algorithm: str) -> tuple:
    """Cell text plus whether it should be bolded (row winner)."""
    value = case.metrics[algorithm]
    if case.constrained and not np.isfinite(value):
        return "n/a", False
    text = f"{value:.3f}" if case.log_metric else f"{value:.6g}"
    if case.constrained and case.feasible_rate[algorithm] < 1.0:
        text += f" ({case.feasible_rate[algorithm]:.2f})"
    return text, algorithm in case.winners


def emit_result_table(result_set: ResultSet, fmt: str = "plain") -> str:
    """Per-case comparison table: mean floored log error (3 decimals) for
    unconstrained cases, best feasible objective with the feasibility rate
    in parentheses (when below 1.00) for constrained ones. Row winners are
    emphasized; ties share the emphasis."""
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown table format {fmt!r}")
    table = stats.summarize(result_set)
    header = ["case"] + list(table.algorithms)
    rows = []
    for case in table.cases:
        row = [case.label]
        for algorithm in table.algorithms:
            text, bold = _case_cell(case, algorithm)
            if bold:
                text = f"*{text}*" if fmt == "plain" else f"\\textbf{{{text}}}"
            elif fmt == "latex":
                text = _latex_escape(text)
            row.append(text)
        rows.append(row)
    render = _render_plain if fmt == "plain" else _render_latex
    return render(header, rows)


def emit_stat_tables(result_set: ResultSet, reference: str) -> str:
    """Friedman rank table plus pairwise signed-rank comparisons against
    the reference algorithm over the log-error cases, Holm-corrected at the
    0.05 level; `n` counts the cases whose metrics differ, and a comparison
    whose n cases cannot reach significance reads `too few cases`."""
    report = stats.compare(result_set, reference)
    table = report.table
    header = ["algorithm", "avg_rank", "wins", "cases"]
    rows = [
        [name, f"{table.mean_ranks[name]:.3f}", str(table.wins[name]), str(len(table.cases))]
        for name in table.algorithms
    ]
    out = _render_plain(header, rows)
    test = table.friedman
    if test is not None:
        out += (
            f"\nFriedman chi-square = {test.statistic:.3f}, "
            f"dof = {test.dof}, p = {test.p_value:.3e}\n"
        )
    if report.comparisons:
        header = ["comparison", "n", "mean(algo)", "mean(ref)", "diff", "W+", "p", "p_holm", "significant"]
        rows = [
            [
                f"{c.algorithm} vs {c.reference}",
                str(c.test.n),
                f"{c.algorithm_mean:.3f}",
                f"{c.reference_mean:.3f}",
                f"{c.difference:+.3f}",
                f"{c.test.statistic:.1f}",
                f"{c.test.p_value:.3e}",
                f"{c.p_holm:.3e}",
                "yes" if c.significant else "too few cases" if c.too_few_cases else "no",
            ]
            for c in report.comparisons
        ]
        out += "\n" + _render_plain(header, rows)
    elif len(table.algorithms) > 1:
        out += "\nno signed-rank tests: they use only cases with a log10 error, and there are none\n"
    return out


def emit_best_designs(result_set: ResultSet) -> str:
    """One line per problem with a feasible run: the feasible record with
    the least objective value (the first in grid order on a tie), by whom
    and at which point."""
    lines = []
    for problem in dict(result_set.config.case_list()):
        feasible = [r for r in result_set.records if r.problem == problem and r.feasible]
        if not feasible:
            continue
        best = min(feasible, key=lambda r: r.objective_value)
        xs = ", ".join(f"{v:.6g}" for v in best.best_position)
        lines.append(f"{problem}: f = {best.objective_value:.6f} by {best.algorithm} at [{xs}]\n")
    return "".join(lines)


def emit_convergence(result_set: ResultSet, problems=None) -> str:
    """Checkpoint table: mean and standard deviation of the records' floored
    log error (so a row at the last sweep is the case metric) across runs,
    per (algorithm, case, checkpoint), as CSV text."""
    table_cases = result_set.config.case_list()
    known = {name for name, _ in table_cases}
    if problems is not None:
        unknown = sorted(set(problems) - known)
        if unknown:
            raise ValueError(f"unknown problems requested: {', '.join(unknown)}")
        table_cases = [case for case in table_cases if case[0] in set(problems)]

    cells: dict = {}
    for record in result_set.records:
        cells.setdefault((record.algorithm, record.problem, record.dim), []).append(record)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["algorithm", "problem", "dim", "checkpoint", "mean_log10_error", "std_log10_error"]
    )
    for name in result_set.config.algorithm_names():
        for problem, dim in table_cases:
            runs = sorted(cells.get((name, problem, dim), []), key=lambda r: r.run_index)
            if not runs:
                continue
            for checkpoint in sorted(runs[0].checkpoints):
                logs = np.array([floored_log10(r.checkpoints[checkpoint]) for r in runs])
                writer.writerow(
                    [
                        name,
                        problem,
                        str(dim),
                        str(checkpoint),
                        repr(float(logs.mean())),
                        repr(float(logs.std(ddof=0))),
                    ]
                )
    return buffer.getvalue()

"""Experiment orchestration: configuration loading and validation, grid
execution (optionally across processes), result persistence, and the table,
statistics, and convergence emitters.

Determinism contract: a ResultSet is a pure function of its config. Run
seeds mix the master seed with the cell coordinates, so adding or removing
grid cells never perturbs the seeds of other cells, and the worker count
only changes scheduling, never results (wall times excepted).
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import benchmarks, engine, stats
from .baselines import BASELINES, BaselineConfig
from .errors import ConfigError
from .records import DEFAULT_CHECKPOINTS, SCHEMA_VERSION, RunRecord
from .rng import mix_seed

SUITES = ("classical_scalable", "classical_fixed", "engineering", "ablation", "custom")

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
        """Grid cases as (problem, dim) pairs in suite order."""
        if self.suite == "classical_scalable":
            names = benchmarks.SCALABLE_IDS
        elif self.suite == "classical_fixed":
            names = benchmarks.FIXED_IDS
        elif self.suite == "engineering":
            names = benchmarks.ENGINEERING_NAMES
        else:
            names = self.problems
        cases = []
        for name in names:
            if name in benchmarks.SCALABLE_IDS:
                cases.extend((name, int(d)) for d in self.dimensions)
            else:
                cases.append((name, benchmarks.get_problem(name).dim))
        return cases


# the ExperimentConfig fields a config file sets in its "execution" section
EXECUTION_KEYS = ("runs", "iterations", "n_agents", "master_seed", "workers")


# dvo flags deleted because a numeric parameter already did their work
_REPLACED_PARAMS = {
    "switching": "switch_prob=0",
    "splash": "splash_prob=0",
    "multi_vortex": "n_drains=1",
    "adaptive_spiral": "residual_shrink=1.0",
}


def _resolve_algorithm(name: str, params: dict, n_agents: int, iterations: int):
    """The DvoParams (ablation variant applied) or BaselineConfig of one grid
    algorithm at the execution sizes; raises ConfigError with the entries of
    the settings' own checks."""
    base, colon, variant = name.partition(":")
    if base == "dvo":
        replaced = [
            f"dvo parameters: {key!r} was removed; {key}=false is {_REPLACED_PARAMS[key]}"
            for key in params
            if key in _REPLACED_PARAMS
        ]
        if replaced:
            raise ConfigError(replaced)
        block = {"n_agents": n_agents, "iterations": iterations, **params}
        try:
            dvo = engine.DvoParams.from_mapping(block)
        except ConfigError as exc:
            raise ConfigError([f"dvo parameters: {p}" for p in exc.problems]) from exc
        return engine.make_ablation_params(dvo, variant) if colon else dvo
    overrides = dict(params)
    config = BaselineConfig(
        algorithm=name,
        n_agents=overrides.pop("n_agents", n_agents),
        iterations=overrides.pop("iterations", iterations),
        params=overrides,
    )
    config.resolved()
    return config


# the scalar fields, and the names a config file gives the real ones
_SCALARS = ("runs", "master_seed", "workers", "penalty_coeff", "feasibility_tol")
_LABELS = {"penalty_coeff": "penalty coefficient", "feasibility_tol": "penalty feasibility_tol"}
# a real field's bound rejects NaN too, so its entry is the one a NaN gets
_REAL_BOUNDS = {
    "penalty_coeff": (lambda v: v > 0 and math.isfinite(v), "penalty coefficient must be positive"),
    "feasibility_tol": (lambda v: v >= 0, "feasibility tolerance must be >= 0"),
}


def _list_of(values, kind) -> bool:
    """Whether `values` is a list or tuple of `kind` (a bool is not an int)."""
    return isinstance(values, (list, tuple)) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in values
    )


def validate_config(config: ExperimentConfig) -> list:
    """Collect every problem with a config instead of stopping at the first.

    This is the one check of a config's values, for a config read from a
    file and one built in Python alike. A value of the wrong type gets one
    entry and is compared with no bound; a NaN gets one entry too.
    """
    problems = []
    if config.suite not in SUITES:
        problems.append(f"unknown suite {config.suite!r}; expected one of {SUITES}")
    defaults = ExperimentConfig()
    for key in _SCALARS:
        label, value = _LABELS.get(key, key), getattr(config, key)
        bad, typed = engine.parameter_problems(
            {label: value}, {label: getattr(defaults, key)}, {"runs": 1, "workers": 1}
        )
        if typed and key in _REAL_BOUNDS:
            within, rule = _REAL_BOUNDS[key]
            bad = [] if within(value) else [f"{rule}, got {value}"]
        problems.extend(bad)

    specs = []
    if not _list_of(config.algorithms, AlgorithmSpec):
        problems.append(f"'algorithms' must be a list of AlgorithmSpec entries, got {config.algorithms!r}")
    elif not config.algorithms:
        problems.append("at least one algorithm is required")
    else:
        for spec in config.algorithms:
            if not isinstance(spec.name, str):
                problems.append(f"algorithm names must be strings, got {spec.name!r}")
            elif not isinstance(spec.params, Mapping):
                problems.append(f"algorithm {spec.name!r}: params must be a mapping, got {spec.params!r}")
            else:
                specs.append(spec)
    names = [spec.name for spec in specs]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"duplicate algorithm {name!r}")
    for spec in specs:
        try:
            _resolve_algorithm(spec.name, spec.params, config.n_agents, config.iterations)
        except ConfigError as exc:
            problems.extend(exc.problems)
    # an execution size that every entry overrides reaches no algorithm's check
    unused = {
        key: getattr(config, key)
        for key in ("n_agents", "iterations")
        if all(key in spec.params for spec in specs)
    }
    problems.extend(engine.parameter_problems(unused, unused)[0])

    names = config.problems
    if not _list_of(names, str):
        problems.append(f"'problems' must be a list of names, got {names!r}")
        names = ()
    elif config.suite in ("custom", "ablation"):
        if not names:
            problems.append(f"suite {config.suite!r} requires an explicit problems list")
    elif names and config.suite in SUITES:
        problems.append(
            f"problems list is only valid with suite 'custom' or 'ablation', not {config.suite!r}"
        )
    for name in sorted({p for p in names if names.count(p) > 1}):
        problems.append(f"duplicate problem {name!r}")
    for name in names:
        if name in benchmarks.SCALABLE_IDS:
            continue
        try:
            benchmarks.get_problem(name)
        except KeyError:
            problems.append(f"unknown problem {name!r}")

    dims = config.dimensions
    if not _list_of(dims, int):
        problems.append(f"'dimensions' must be a list of integers, got {dims!r}")
    else:
        needs_dims = config.suite == "classical_scalable" or any(
            name in benchmarks.SCALABLE_IDS for name in names
        )
        if needs_dims and not dims:
            problems.append("scalable problems require a non-empty dimensions list")
        problems.extend(f"dimensions must be integers >= 2, got {d!r}" for d in dims if d < 2)
        for dim in sorted({d for d in dims if dims.count(d) > 1}):
            problems.append(f"duplicate dimension {dim}")

    if not _list_of(config.checkpoints, int):
        problems.append(f"'checkpoints' must be a list of integers, got {config.checkpoints!r}")
    if config.output is not None and not isinstance(config.output, str):
        problems.append(f"'output' must be a string path, got {config.output!r}")
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
            params = entry.get("params", {})
            extra = sorted(set(entry) - {"name", "params"})
            if extra:
                problems.append(f"algorithm {entry['name']!r}: unknown keys {extra}")
            if not isinstance(params, dict):
                problems.append(f"algorithm {entry['name']!r}: params must be a mapping, got {params!r}")
                params = {}
            algorithms.append(AlgorithmSpec(name=entry["name"], params=dict(params)))
        else:
            problems.append(f"algorithm entries must be names or mappings with a name, got {entry!r}")

    def _tuple(key):
        value = data.get(key, template[key])
        return tuple(value) if isinstance(value, list) else value

    checkpoints = _tuple("checkpoints")
    if _list_of(checkpoints, int) and _list_of([execution["iterations"]], int):
        checkpoints = tuple(sorted({c for c in checkpoints if 1 <= c <= execution["iterations"]}))

    config = ExperimentConfig(
        suite=data.get("suite", template["suite"]),
        problems=_tuple("problems"),
        dimensions=_tuple("dimensions"),
        algorithms=tuple(algorithms),
        checkpoints=checkpoints,
        output=data.get("output"),
        penalty_coeff=sections["penalty"]["coefficient"],
        feasibility_tol=sections["penalty"]["feasibility_tol"],
        **{key: execution[key] for key in EXECUTION_KEYS},
    )
    if config.suite == "ablation":
        config = expand_ablation(config)
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


def _read_json(path: Path):
    """A JSON file's data; a parse error is a ConfigError naming the file."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    return config_from_dict(_read_json(Path(path)))


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


@dataclass(frozen=True)
class _Task:
    """One run of the grid, as handed to a worker."""

    algorithm: str
    settings: engine.DvoParams | BaselineConfig  # from _resolve_algorithm
    problem: str
    dim: int
    seed: int
    run_index: int
    checkpoints: tuple
    penalty_coeff: float
    feasibility_tol: float


def _run_single(task: _Task) -> RunRecord:
    problem = benchmarks.get_problem(task.problem, task.dim)
    if problem.constrained:
        problem = benchmarks.penalize(problem, task.penalty_coeff)
    settings = task.settings
    if isinstance(settings, engine.DvoParams):
        record = engine.run(
            problem,
            settings,
            seed=task.seed,
            checkpoints=task.checkpoints,
            algorithm=task.algorithm,
            run_index=task.run_index,
        )
    else:
        record = BASELINES[settings.algorithm](
            problem, settings, task.seed, checkpoints=task.checkpoints, run_index=task.run_index
        )
    if problem.constrained:
        record.feasible = record.max_violation <= task.feasibility_tol
    return record


def _execute_task(task: _Task):
    try:
        return ("ok", _run_single(task))
    except Exception as exc:  # noqa: BLE001 - failures become grid diagnostics
        return (
            "fail",
            FailureRecord(
                algorithm=task.algorithm,
                problem=task.problem,
                dim=task.dim,
                run_index=task.run_index,
                message=f"{type(exc).__name__}: {exc}",
            ),
        )


def _task_grid(config: ExperimentConfig) -> list:
    tasks = []
    for spec in config.algorithms:
        settings = _resolve_algorithm(spec.name, spec.params, config.n_agents, config.iterations)
        for problem_name, dim in config.case_list():
            for run_index in range(config.runs):
                seed = mix_seed(config.master_seed, spec.name, problem_name, dim, run_index)
                tasks.append(
                    _Task(
                        algorithm=spec.name,
                        settings=settings,
                        problem=problem_name,
                        dim=dim,
                        seed=seed,
                        run_index=run_index,
                        checkpoints=tuple(config.checkpoints),
                        penalty_coeff=config.penalty_coeff,
                        feasibility_tol=config.feasibility_tol,
                    )
                )
    return tasks


# evaluations one chunk of worker tasks may hold; a larger task goes alone
CHUNK_EVALUATIONS = 2000


def _chunk_size(tasks: list, degree: int) -> int:
    """Tasks per chunk sent to a pool of `degree` workers: as many as fit in
    CHUNK_EVALUATIONS (a task costs n_agents * (iterations + 1) evaluations,
    the largest over the grid), and no more than leave 4 chunks per worker."""
    cost = max(t.settings.n_agents * (t.settings.iterations + 1) for t in tasks)
    return max(1, min(CHUNK_EVALUATIONS // cost, len(tasks) // (4 * degree)))


def run_experiment(config: ExperimentConfig, parallel: int | None = None) -> ResultSet:
    """Execute the full grid; failures are collected, not raised.

    The pool has at most one worker per run, and a single worker is no pool.
    With more than one, runs are sent to the workers in contiguous chunks of
    the grid (`_chunk_size`). Results are identical for any parallelism
    degree and any chunking: seeds are derived per cell, and task order (not
    completion order) fixes the record order.
    """
    # a --parallel degree is checked by the workers rule
    checked = config if parallel is None else replace(config, workers=parallel)
    problems = validate_config(checked)
    if problems:
        raise ConfigError(problems)
    tasks = _task_grid(config)
    workers = min(checked.workers, len(tasks))
    if workers <= 1:
        outcomes = [_execute_task(task) for task in tasks]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            size = _chunk_size(tasks, workers)
            outcomes = list(pool.map(_execute_task, tasks, chunksize=size))
    records = [payload for kind, payload in outcomes if kind == "ok"]
    failures = [payload for kind, payload in outcomes if kind == "fail"]
    return ResultSet(config=config, records=records, failures=failures)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _record_to_dict(record: RunRecord) -> dict:
    """The schema version, then RunRecord's fields in declaration order
    (json writes the integer checkpoint keys as text)."""
    data = {"schema_version": SCHEMA_VERSION}
    data.update((f.name, getattr(record, f.name)) for f in fields(RunRecord))
    data["best_position"] = [float(v) for v in record.best_position]
    data["trace"] = [float(v) for v in record.trace]
    return data


def _record_from_dict(data: dict, source: str) -> RunRecord:
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: a record must be a mapping, got {type(data).__name__}"])
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError([f"{source}: unsupported schema version {version!r}"])
    names = [f.name for f in fields(RunRecord)]
    missing = [name for name in names if name not in data]
    if missing:
        raise ConfigError([f"{source}: missing record field {name!r}" for name in missing])
    values = {name: data[name] for name in names}
    values["best_position"] = np.asarray(values["best_position"], dtype=float)
    values["trace"] = np.asarray(values["trace"], dtype=float)
    values["checkpoints"] = {int(k): v for k, v in values["checkpoints"].items()}
    return RunRecord(**values)


def _record_filename(record: RunRecord) -> str:
    safe = record.algorithm.replace(":", "-")
    return f"{safe}__{record.problem}__d{record.dim}__r{record.run_index:03d}.json"


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
    """Write config snapshot, per-run record files, and summary.csv; the
    record files and failures.json of an earlier grid there are removed."""
    out = Path(out_dir)
    records_dir = out / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*records_dir.glob("*.json"), out / "failures.json"]:
        stale.unlink(missing_ok=True)
    save_config(result_set.config, out / "config.json")
    for record in result_set.records:
        path = records_dir / _record_filename(record)
        path.write_text(json.dumps(_record_to_dict(record)) + "\n")
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
    records = []
    records_dir = root / "records"
    if records_dir.is_dir():
        for path in sorted(records_dir.glob("*.json")):
            records.append(_record_from_dict(_read_json(path), str(path)))
    algo_order = {name: i for i, name in enumerate(config.algorithm_names())}
    case_order = {case: i for i, case in enumerate(config.case_list())}
    records.sort(
        key=lambda r: (
            algo_order.get(r.algorithm, len(algo_order)),
            case_order.get((r.problem, r.dim), len(case_order)),
            r.run_index,
        )
    )
    failures = []
    failures_path = root / "failures.json"
    if failures_path.exists():
        for item in json.loads(failures_path.read_text()):
            failures.append(FailureRecord(**item))
    return ResultSet(config=config, records=records, failures=failures)


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
    if case.constrained:
        best = case.best_feasible[algorithm]
        if not np.isfinite(best):
            return "n/a", False
        rate = case.feasible_rate[algorithm]
        text = f"{best:.6g}"
        if rate < 1.0:
            text += f" ({rate:.2f})"
    elif case.log_metric:
        text = f"{case.metrics[algorithm]:.3f}"
    else:
        text = f"{case.metrics[algorithm]:.6g}"
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
    the reference algorithm, Holm-corrected at the 0.05 level."""
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
        header = ["comparison", "mean(algo)", "mean(ref)", "diff", "W+", "p", "p_holm", "significant"]
        rows = [
            [
                f"{c.algorithm} vs {c.reference}",
                f"{c.algorithm_mean:.3f}",
                f"{c.reference_mean:.3f}",
                f"{c.difference:+.3f}",
                f"{c.statistic:.1f}",
                f"{c.p_value:.3e}",
                f"{c.p_holm:.3e}",
                "yes" if c.significant else "no",
            ]
            for c in report.comparisons
        ]
        out += "\n" + _render_plain(header, rows)
    return out


def emit_convergence(result_set: ResultSet, problems=None) -> str:
    """Checkpoint table: mean and standard deviation of the floored log
    error across runs, per (algorithm, case, checkpoint), as CSV text."""
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
                values = np.array([r.checkpoints[checkpoint] for r in runs])
                logs = stats.log10_error(values)
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

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
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
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


# dvo flags deleted because a numeric parameter already did their work
_REPLACED_PARAMS = {
    "switching": "switch_prob=0",
    "splash": "splash_prob=0",
    "multi_vortex": "n_drains=1",
    "adaptive_spiral": "residual_shrink=1.0",
}


def _resolve_algorithm(name: str, params: dict, n_agents: int, iterations: int):
    """The DvoParams (ablation variant applied) or BaselineConfig of one grid
    algorithm; raises ConfigError listing every problem with the entry."""
    base, _, variant = name.partition(":")
    if base == "dvo":
        if variant and variant not in engine.ABLATION_VARIANTS:
            raise ConfigError([f"unknown dvo variant {variant!r}"])
        replaced = [
            f"dvo parameters: {key!r} was removed; {key}=false is {_REPLACED_PARAMS[key]}"
            for key in params
            if key in _REPLACED_PARAMS
        ]
        if replaced:
            raise ConfigError(replaced)
        try:
            dvo = engine.DvoParams(**{"n_agents": n_agents, "iterations": iterations, **params})
            dvo.validate()
        except TypeError as exc:
            raise ConfigError([f"dvo parameters: {exc}"]) from exc
        except ConfigError as exc:
            raise ConfigError([f"dvo parameters: {p}" for p in exc.problems]) from exc
        return engine.make_ablation_params(dvo, variant) if variant else dvo
    if base not in BASELINES:
        raise ConfigError([f"unknown algorithm {name!r}"])
    overrides = dict(params)
    config = BaselineConfig(
        algorithm=base,
        n_agents=int(overrides.pop("n_agents", n_agents)),
        iterations=int(overrides.pop("iterations", iterations)),
        params=overrides,
    )
    config.resolved()
    return config


def validate_config(config: ExperimentConfig) -> list:
    """Collect every problem with a config instead of stopping at the first."""
    problems = []
    if config.suite not in SUITES:
        problems.append(f"unknown suite {config.suite!r}; expected one of {SUITES}")
    if config.runs < 1:
        problems.append(f"runs must be >= 1, got {config.runs}")
    if config.iterations < 2:
        problems.append(f"iterations must be >= 2, got {config.iterations}")
    if config.n_agents < 2:
        problems.append(f"n_agents must be >= 2, got {config.n_agents}")
    if config.workers < 1:
        problems.append(f"workers must be >= 1, got {config.workers}")
    if not (config.penalty_coeff > 0 and np.isfinite(config.penalty_coeff)):
        problems.append(f"penalty coefficient must be positive, got {config.penalty_coeff}")
    if config.feasibility_tol < 0:
        problems.append(f"feasibility tolerance must be >= 0, got {config.feasibility_tol}")

    if not config.algorithms:
        problems.append("at least one algorithm is required")
    names = config.algorithm_names()
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"duplicate algorithm {name!r}")
    for spec in config.algorithms:
        try:
            _resolve_algorithm(spec.name, spec.params, config.n_agents, config.iterations)
        except ConfigError as exc:
            problems.extend(exc.problems)

    if config.suite in ("custom", "ablation"):
        if not config.problems:
            problems.append(f"suite {config.suite!r} requires an explicit problems list")
    elif config.problems:
        problems.append(
            f"problems list is only valid with suite 'custom' or 'ablation', not {config.suite!r}"
        )
    for name in sorted({p for p in config.problems if config.problems.count(p) > 1}):
        problems.append(f"duplicate problem {name!r}")
    for dim in sorted({d for d in config.dimensions if config.dimensions.count(d) > 1}):
        problems.append(f"duplicate dimension {dim}")

    for name in config.problems:
        if name in benchmarks.SCALABLE_IDS:
            continue
        try:
            benchmarks.get_problem(name)
        except KeyError:
            problems.append(f"unknown problem {name!r}")
    needs_dims = config.suite == "classical_scalable" or any(
        name in benchmarks.SCALABLE_IDS for name in config.problems
    )
    if needs_dims and not config.dimensions:
        problems.append("scalable problems require a non-empty dimensions list")
    for dim in config.dimensions:
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
            problems.append(f"dimensions must be integers >= 2, got {dim!r}")
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
    """Build and validate a config from parsed structured data."""
    problems = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])
    known_keys = {
        "suite",
        "problems",
        "dimensions",
        "algorithms",
        "execution",
        "checkpoints",
        "penalty",
        "output",
    }
    for key in sorted(set(data) - known_keys):
        problems.append(f"unknown config key {key!r}")

    execution = data.get("execution", {})
    if not isinstance(execution, dict):
        problems.append("'execution' must be a mapping")
        execution = {}
    for key in sorted(set(execution) - {"runs", "iterations", "n_agents", "master_seed", "workers"}):
        problems.append(f"unknown execution key {key!r}")
    penalty = data.get("penalty", {})
    if not isinstance(penalty, dict):
        problems.append("'penalty' must be a mapping")
        penalty = {}
    for key in sorted(set(penalty) - {"coefficient", "feasibility_tol"}):
        problems.append(f"unknown penalty key {key!r}")

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
                problems.append(f"algorithm {entry['name']!r}: params must be a mapping")
                params = {}
            algorithms.append(AlgorithmSpec(name=entry["name"], params=dict(params)))
        else:
            problems.append(f"algorithm entries must be names or mappings with a name, got {entry!r}")

    def _int(section, key, default):
        value = section.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"{key} must be an integer, got {value!r}")
            return default
        return value

    iterations = _int(execution, "iterations", 1000)
    raw_checkpoints = data.get("checkpoints", list(DEFAULT_CHECKPOINTS))
    if not isinstance(raw_checkpoints, list) or any(
        isinstance(c, bool) or not isinstance(c, int) for c in raw_checkpoints
    ):
        problems.append("'checkpoints' must be a list of integers")
        raw_checkpoints = list(DEFAULT_CHECKPOINTS)
    checkpoints = tuple(sorted({c for c in raw_checkpoints if 1 <= c <= iterations}))

    output = data.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"'output' must be a string path, got {output!r}")
        output = None

    config = ExperimentConfig(
        suite=data.get("suite", "custom"),
        problems=tuple(data.get("problems", ())),
        dimensions=tuple(data.get("dimensions", ())),
        algorithms=tuple(algorithms),
        runs=_int(execution, "runs", 30),
        iterations=iterations,
        n_agents=_int(execution, "n_agents", 30),
        master_seed=_int(execution, "master_seed", 0),
        checkpoints=checkpoints,
        output=output,
        workers=_int(execution, "workers", 1),
        penalty_coeff=float(penalty.get("coefficient", benchmarks.DEFAULT_PENALTY_COEFF)),
        feasibility_tol=float(penalty.get("feasibility_tol", benchmarks.DEFAULT_FEASIBILITY_TOL)),
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
        "execution": {
            "runs": config.runs,
            "iterations": config.iterations,
            "n_agents": config.n_agents,
            "master_seed": config.master_seed,
            "workers": config.workers,
        },
        "checkpoints": list(config.checkpoints),
        "penalty": {
            "coefficient": config.penalty_coeff,
            "feasibility_tol": config.feasibility_tol,
        },
        "output": config.output,
    }


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    return config_from_dict(data)


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

    def summary(self) -> stats.SummaryTable:
        return stats.summarize(self)

    def compare(self, reference: str) -> stats.StatReport:
        return stats.compare(self, reference)


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
        problem = benchmarks.penalize(problem, benchmarks.PenaltySpec(task.penalty_coeff))
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
    # build_record has checked feasibility at the default tolerance already
    if problem.constrained and task.feasibility_tol != benchmarks.DEFAULT_FEASIBILITY_TOL:
        record.feasible, record.max_violation = benchmarks.feasibility(
            record.best_position, problem, tol=task.feasibility_tol
        )
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


def run_experiment(config: ExperimentConfig, parallel: int | None = None) -> ResultSet:
    """Execute the full grid; failures are collected, not raised.

    Results are identical for any parallelism degree: seeds are derived per
    cell, and task order (not completion order) fixes the record order.
    """
    problems = validate_config(config)
    if problems:
        raise ConfigError(problems)
    tasks = _task_grid(config)
    degree = config.workers if parallel is None else parallel
    if degree < 1:
        raise ConfigError([f"parallelism degree must be >= 1, got {degree}"])
    if degree == 1:
        outcomes = [_execute_task(task) for task in tasks]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=degree, mp_context=context) as pool:
            outcomes = list(pool.map(_execute_task, tasks, chunksize=1))
    records = [payload for kind, payload in outcomes if kind == "ok"]
    failures = [payload for kind, payload in outcomes if kind == "fail"]
    return ResultSet(config=config, records=records, failures=failures)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _record_to_dict(record: RunRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": record.algorithm,
        "problem": record.problem,
        "dim": record.dim,
        "run_index": record.run_index,
        "seed": record.seed,
        "best_position": [float(v) for v in record.best_position],
        "best_value": record.best_value,
        "trace": [float(v) for v in record.trace],
        "evaluations": record.evaluations,
        "walltime_ms": record.walltime_ms,
        "f_true": record.f_true,
        "error": record.error,
        "log10_error": record.log10_error,
        "objective_value": record.objective_value,
        "feasible": record.feasible,
        "max_violation": record.max_violation,
        "checkpoints": {str(k): v for k, v in record.checkpoints.items()},
    }


def _record_from_dict(data: dict, source: str) -> RunRecord:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError([f"{source}: unsupported schema version {version!r}"])
    return RunRecord(
        algorithm=data["algorithm"],
        problem=data["problem"],
        dim=int(data["dim"]),
        run_index=int(data["run_index"]),
        seed=int(data["seed"]),
        best_position=np.asarray(data["best_position"], dtype=float),
        best_value=float(data["best_value"]),
        trace=np.asarray(data["trace"], dtype=float),
        evaluations=int(data["evaluations"]),
        walltime_ms=float(data["walltime_ms"]),
        f_true=data.get("f_true"),
        error=data.get("error"),
        log10_error=data.get("log10_error"),
        objective_value=data.get("objective_value"),
        feasible=data.get("feasible"),
        max_violation=data.get("max_violation"),
        checkpoints={int(k): float(v) for k, v in data.get("checkpoints", {}).items()},
    )


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
    """Write config snapshot, per-run record files, and summary.csv."""
    out = Path(out_dir)
    records_dir = out / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
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
        payload = [
            {
                "algorithm": f.algorithm,
                "problem": f.problem,
                "dim": f.dim,
                "run_index": f.run_index,
                "message": f.message,
            }
            for f in result_set.failures
        ]
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
            records.append(_record_from_dict(json.loads(path.read_text()), str(path)))
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

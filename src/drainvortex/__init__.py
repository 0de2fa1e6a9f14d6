"""Drain-vortex optimization: a sink-and-swirl population metaheuristic for
bound-constrained continuous minimization, with six comparison baselines,
classical and engineering benchmark suites, nonparametric test utilities,
and an experiment harness."""

from .baselines import (
    BASELINES,
    BaselineConfig,
    run_baseline,
)
from .benchmarks import (
    ProblemSpec,
    catalog_names,
    feasibility,
    get_problem,
    penalize,
    register_plugin,
)
from .engine import (
    ABLATION_VARIANTS,
    DvoParams,
    Phase,
    run,
)
from .errors import ConfigError, DrainVortexError, IncompleteGridError
from .harness import (
    AlgorithmSpec,
    ExperimentConfig,
    ResultSet,
    emit_best_designs,
    emit_convergence,
    emit_records,
    emit_result_table,
    emit_stat_tables,
    load_config,
    load_result_set,
    run_experiment,
)
from .records import DEFAULT_CHECKPOINTS, SCHEMA_VERSION, RunRecord
from .rng import RngStream, levy_step, mantegna_sigma, mix_seed
from .stats import (
    FriedmanResult,
    StatReport,
    SummaryTable,
    WilcoxonResult,
    chi_square_sf,
    compare,
    friedman,
    holm_correct,
    rank_per_case,
    summarize,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATION_VARIANTS",
    "AlgorithmSpec",
    "BASELINES",
    "BaselineConfig",
    "ConfigError",
    "DEFAULT_CHECKPOINTS",
    "DrainVortexError",
    "DvoParams",
    "ExperimentConfig",
    "FriedmanResult",
    "IncompleteGridError",
    "Phase",
    "ProblemSpec",
    "ResultSet",
    "RngStream",
    "RunRecord",
    "SCHEMA_VERSION",
    "StatReport",
    "SummaryTable",
    "WilcoxonResult",
    "catalog_names",
    "chi_square_sf",
    "compare",
    "emit_best_designs",
    "emit_convergence",
    "emit_records",
    "emit_result_table",
    "emit_stat_tables",
    "feasibility",
    "friedman",
    "get_problem",
    "holm_correct",
    "levy_step",
    "load_config",
    "load_result_set",
    "mantegna_sigma",
    "mix_seed",
    "penalize",
    "rank_per_case",
    "register_plugin",
    "run",
    "run_baseline",
    "run_experiment",
    "summarize",
    "wilcoxon_signed_rank",
]

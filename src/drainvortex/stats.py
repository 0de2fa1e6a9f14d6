"""Nonparametric comparison machinery: per-case ranking, the classical
Friedman test, an exact/normal signed-rank test, and Holm step-down
correction, plus grid summarization over a set of run records.

Conventions: lower metric values are better everywhere, rank 1 is the best
algorithm in a case, and tied metrics share averaged ranks.

Everything here is numpy and the standard library: ranks are computed in
numpy, and the Friedman and normal-approximation p-values in closed form
with `math`. The tests check them against reference implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IncompleteGridError

EXACT_WILCOXON_LIMIT = 25
SIGNIFICANCE_LEVEL = 0.05


def chi_square_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X >= x) for an integer `dof` >= 1, in
    the closed form of Abramowitz & Stegun (1964), eqs. 26.4.4-26.4.5. With
    y = x / 2 it is the sum over j < dof/2 of exp(-y) y^j / j! for even
    `dof`, and erfc(sqrt(y)) plus the sum over 1 <= j <= (dof - 1)/2 of
    exp(-y) y^(j - 1/2) / Gamma(j + 1/2) for odd `dof`. Each term is formed
    in log space, so none overflows."""
    if not isinstance(dof, int) or isinstance(dof, bool) or dof < 1:
        raise ValueError(f"dof must be an integer >= 1, got {dof!r}")
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y = x / 2.0
    log_y = math.log(y)
    if dof % 2 == 0:
        terms = [math.exp(-y + j * log_y - math.lgamma(j + 1)) for j in range(dof // 2)]
    else:
        terms = [math.erfc(math.sqrt(y))] + [
            math.exp(-y + (j - 0.5) * log_y - math.lgamma(j + 0.5)) for j in range(1, (dof + 1) // 2)
        ]
    return min(math.fsum(terms), 1.0)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks along the last axis of a 1-D or 2-D array, tied values
    sharing the mean of their positions; a NaN makes every rank of its row
    NaN. The tests find it bitwise equal to the reference `rankdata` with
    `method="average"` and `axis=-1`."""
    rows = np.atleast_2d(values)
    n, m = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    ordered = np.take_along_axis(rows, order, axis=1)
    obs = np.ones(rows.shape, dtype=bool)
    obs[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    dense = obs.cumsum().reshape(rows.shape)
    count = np.r_[np.flatnonzero(obs), rows.size]
    # tie groups span the flattened rows, so each row's offset is taken off
    in_order = 0.5 * (count[dense] + count[dense - 1] + 1) - m * np.arange(n)[:, None]
    ranks = np.empty(rows.shape)
    np.put_along_axis(ranks, order, in_order, axis=1)
    ranks[np.isnan(rows).any(axis=1)] = np.nan
    return ranks.reshape(values.shape)


def rank_per_case(metrics) -> np.ndarray:
    """Row-wise ascending ranks with average tie handling.

    metrics has shape (n_cases, n_algorithms); smaller is better.
    """
    metrics = np.asarray(metrics, dtype=float)
    if metrics.ndim != 2:
        raise ValueError(f"expected a 2-D metric matrix, got shape {metrics.shape}")
    return _average_ranks(metrics)


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    dof: int
    mean_ranks: np.ndarray
    n_cases: int


def friedman(ranks) -> FriedmanResult:
    """Classical Friedman statistic (no tie correction) from a rank matrix.

    chi2 = 12 n / (m (m + 1)) * (sum_j Rbar_j^2 - m (m + 1)^2 / 4)
    with n cases, m algorithms, and Rbar_j the mean rank of column j.
    """
    ranks = np.asarray(ranks, dtype=float)
    if ranks.ndim != 2:
        raise ValueError(f"expected a 2-D rank matrix, got shape {ranks.shape}")
    n, m = ranks.shape
    if n < 1 or m < 2:
        raise ValueError(f"need at least one case and two algorithms, got {ranks.shape}")
    if not np.all(np.isfinite(ranks)):
        raise ValueError("rank matrix contains non-finite entries")
    mean_ranks = ranks.mean(axis=0)
    statistic = 12.0 * n / (m * (m + 1.0)) * (
        float(np.sum(mean_ranks**2)) - m * (m + 1.0) ** 2 / 4.0
    )
    statistic = max(statistic, 0.0)
    dof = m - 1
    return FriedmanResult(
        statistic=statistic,
        p_value=chi_square_sf(statistic, dof),
        dof=dof,
        mean_ranks=mean_ranks,
        n_cases=n,
    )


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    direction: int
    method: str
    n: int


def _exact_signed_rank_p(doubled_ranks: np.ndarray, doubled_w: int) -> float:
    """Two-sided exact tail by counting sign assignments at least as far
    from the null center as the observed positive-rank sum.

    Works on doubled ranks so averaged ties stay integral.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled_ranks:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts += shifted
    center = total / 2.0
    gap = abs(doubled_w - center)
    sums = np.arange(total + 1, dtype=float)
    tail = counts[np.abs(sums - center) >= gap].sum()
    return min(tail / 2.0 ** len(doubled_ranks), 1.0)


def wilcoxon_signed_rank(x, y) -> WilcoxonResult:
    """Paired two-sided signed-rank test with zero differences discarded.

    Exact enumeration (dynamic programming over doubled ranks) up to 25
    nonzero pairs, normal approximation with tie variance and a continuity
    correction beyond. The statistic is the positive-rank sum W+ and
    direction is the sign of the median nonzero difference (+1 means x
    tends to exceed y), or 0 where that median is undefined.

    Samples may hold +-inf but not NaN: equal values, infinite ones
    included, are a zero difference, and an infinite difference ranks
    above every finite one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"need matching 1-D samples, got {x.shape} and {y.shape}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("samples contain NaN")
    differ = x != y
    diffs = x[differ] - y[differ]
    n = diffs.size
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, direction=0, method="degenerate", n=0)

    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    with np.errstate(invalid="ignore"):  # -inf and +inf in the middle: NaN
        median = np.median(diffs)
    direction = 0 if math.isnan(median) else int(np.sign(median))

    if n <= EXACT_WILCOXON_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(int)
        doubled_w = int(round(2.0 * w_plus))
        p = _exact_signed_rank_p(doubled, doubled_w)
        return WilcoxonResult(w_plus, p, direction, "exact", n)

    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / 48.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if variance <= 0.0:
        return WilcoxonResult(w_plus, 1.0, direction, "normal", n)
    centered = w_plus - mean
    if centered > 0:
        centered -= 0.5
    elif centered < 0:
        centered += 0.5
    z = centered / math.sqrt(variance)
    p = min(math.erfc(abs(z) / math.sqrt(2.0)), 1.0)
    return WilcoxonResult(w_plus, p, direction, "normal", n)


def holm_correct(p_values) -> np.ndarray:
    """Holm step-down adjustment: sort ascending, scale by (k - i), enforce
    monotonicity with a running maximum, cap at 1, restore input order."""
    p_values = np.asarray(p_values, dtype=float)
    if p_values.ndim != 1:
        raise ValueError(f"expected a 1-D array of p-values, got shape {p_values.shape}")
    k = p_values.size
    if k == 0:
        return p_values.copy()
    if np.any(~np.isfinite(p_values)) or np.any(p_values < 0) or np.any(p_values > 1):
        raise ValueError("p-values must lie in [0, 1]")
    order = np.argsort(p_values, kind="stable")
    scaled = p_values[order] * (k - np.arange(k))
    adjusted = np.minimum(np.maximum.accumulate(scaled), 1.0)
    out = np.empty(k)
    out[order] = adjusted
    return out


@dataclass(frozen=True)
class CaseSummary:
    """One problem/dimension row of the cross-algorithm comparison."""

    problem: str
    dim: int
    constrained: bool
    log_metric: bool = False
    metrics: dict = field(default_factory=dict)
    feasible_rate: dict = field(default_factory=dict)
    winners: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.problem}/d{self.dim}"


@dataclass(frozen=True)
class SummaryTable:
    algorithms: tuple
    cases: tuple
    rank_matrix: np.ndarray
    mean_ranks: dict
    wins: dict
    friedman: FriedmanResult | None


@dataclass(frozen=True)
class PairwiseComparison:
    """One algorithm against the reference over the log-error case metrics;
    the means and their difference cover the cases where both metrics are
    finite, and `test.n` counts the cases that differ. `too_few_cases`: even
    the smallest exact p over n cases, 2/2^n, is not below the smallest Holm
    threshold 0.05/k."""

    algorithm: str
    reference: str
    algorithm_mean: float
    reference_mean: float
    difference: float
    test: WilcoxonResult
    p_holm: float
    significant: bool
    too_few_cases: bool


@dataclass(frozen=True)
class StatReport:
    reference: str
    table: SummaryTable
    comparisons: tuple


def summarize(result_set) -> SummaryTable:
    """Collapse a full record grid into per-case metrics, winners, average
    ranks, win counts, and a Friedman test over the rank matrix.

    The result set's config gives the algorithm order, the case order and
    the run count. Raises IncompleteGridError when any (algorithm, problem,
    dim) cell is missing runs. Unconstrained cells are scored by mean
    floored log error (the mean best value when the optimum is unknown);
    constrained cells by the best feasible objective (infinite when no run
    is feasible).
    """
    config = result_set.config
    algorithms, cases, runs = config.algorithm_names(), config.case_list(), config.runs
    by_run = {(r.algorithm, r.problem, r.dim, r.run_index): r for r in result_set.records}
    missing = {run[:3] for run in config.grid_runs() if run not in by_run}
    if missing:
        raise IncompleteGridError(missing)

    case_summaries = []
    for problem, dim in cases:
        metrics, feasible_rate = {}, {}
        constrained = False
        for algorithm in algorithms:
            runs_here = [by_run[(algorithm, problem, dim, i)] for i in range(runs)]
            if runs_here[0].feasible is not None:
                constrained = True
                feasible = [r.objective_value for r in runs_here if r.feasible]
                feasible_rate[algorithm] = len(feasible) / runs
                metrics[algorithm] = min(feasible, default=math.inf)
            else:
                values = [
                    r.log10_error if r.log10_error is not None else r.best_value
                    for r in runs_here
                ]
                metrics[algorithm] = float(np.asarray(values, dtype=float).mean())
        row = np.array([metrics[a] for a in algorithms])
        finite_min = row.min()
        winners = (
            tuple(a for a in algorithms if metrics[a] == finite_min)
            if math.isfinite(finite_min)
            else ()
        )
        sample = by_run[(algorithms[0], problem, dim, 0)]
        case_summaries.append(
            CaseSummary(
                problem=problem,
                dim=dim,
                constrained=constrained,
                log_metric=sample.log10_error is not None and not constrained,
                metrics=metrics,
                feasible_rate=feasible_rate,
                winners=winners,
            )
        )

    metric_matrix = np.array(
        [[case.metrics[a] for a in algorithms] for case in case_summaries]
    )
    rank_matrix = rank_per_case(metric_matrix)
    mean_ranks = {a: float(rank_matrix[:, j].mean()) for j, a in enumerate(algorithms)}
    wins = {a: sum(a in case.winners for case in case_summaries) for a in algorithms}
    test = friedman(rank_matrix) if len(algorithms) >= 2 else None
    return SummaryTable(
        algorithms=tuple(algorithms),
        cases=tuple(case_summaries),
        rank_matrix=rank_matrix,
        mean_ranks=mean_ranks,
        wins=wins,
        friedman=test,
    )


def compare(result_set, reference: str) -> StatReport:
    """Pairwise signed-rank tests of every algorithm against a reference,
    Holm-corrected across the family, on one value per case: the metric of
    each log-error case. Constrained cases and cases without a known
    optimum are ranked by `summarize` but enter no signed-rank test, so a
    grid without a log-error case gives no comparisons."""
    table = summarize(result_set)
    if reference not in table.algorithms:
        raise ValueError(f"reference algorithm {reference!r} not in results")
    others = [a for a in table.algorithms if a != reference]
    cases = [case for case in table.cases if case.log_metric]
    if not others or not cases:
        return StatReport(reference=reference, table=table, comparisons=())

    ref_values = np.array([case.metrics[reference] for case in cases])
    raw = []
    for algorithm in others:
        values = np.array([case.metrics[algorithm] for case in cases])
        # means over the cases finite for both, so one infinite case hides no other
        both = np.isfinite(values) & np.isfinite(ref_values)
        means = [float(v[both].mean()) if both.any() else math.nan for v in (values, ref_values)]
        raw.append((algorithm, means, wilcoxon_signed_rank(values, ref_values)))
    adjusted = holm_correct(np.array([t.p_value for _, _, t in raw]))
    comparisons = tuple(
        PairwiseComparison(
            algorithm=algorithm,
            reference=reference,
            algorithm_mean=mean,
            reference_mean=ref_mean,
            difference=mean - ref_mean,
            test=test,
            p_holm=float(p_holm),
            significant=bool(p_holm < SIGNIFICANCE_LEVEL),
            too_few_cases=2.0 ** (1 - test.n) >= SIGNIFICANCE_LEVEL / len(others),
        )
        for (algorithm, (mean, ref_mean), test), p_holm in zip(raw, adjusted)
    )
    return StatReport(reference=reference, table=table, comparisons=comparisons)

"""Statistics tests.

The nonparametric machinery is verified against independent oracles:
scipy's signed-rank test for both the exact and the normal-approximation
regimes, an enumeration over all sign assignments for small samples, a
test-side reimplementation of tie-averaged ranking, scipy's `rankdata`,
which the package's numpy ranks equal bit for bit, 50-digit mpmath values
of the chi-square and normal tails, and hand-worked Friedman and Holm cases.
"""

import json
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats
from conftest import child_env
from hypothesis import given, strategies as st

from drainvortex.benchmarks import get_problem
from drainvortex.errors import IncompleteGridError
from drainvortex.harness import AlgorithmSpec, ExperimentConfig, ResultSet, emit_stat_tables
from drainvortex.records import RunRecord, floored_log10
from drainvortex.stats import (
    WilcoxonResult,
    _average_ranks,
    chi_square_sf,
    compare,
    friedman,
    holm_correct,
    rank_per_case,
    summarize,
    wilcoxon_signed_rank,
)


def tie_average_ranks(values):
    """Independent rank oracle: positions of equal values share their mean."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j < values.size and values[order[j]] == values[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    return ranks


def brute_force_signed_rank_p(x, y):
    """Enumerate every sign assignment; exact two-sided tail probability."""
    diffs = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return 1.0
    ranks = tie_average_ranks(np.abs(diffs))
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    observed = int(round(2.0 * ranks[diffs > 0].sum()))
    gap = abs(2 * observed - total)
    count = 0
    for mask in range(2**n):
        w = sum(int(doubled[k]) for k in range(n) if (mask >> k) & 1)
        if abs(2 * w - total) >= gap:
            count += 1
    return count / 2.0**n


def test_no_scipy_module_is_ever_loaded():
    # a child interpreter: this test process has imported scipy.stats itself
    code = (
        "import json, sys\n"
        "import drainvortex, drainvortex.cli, drainvortex.harness\n"
        "from drainvortex import stats\n"
        "from drainvortex.harness import AlgorithmSpec, ExperimentConfig, emit_stat_tables, run_experiment\n"
        "p_friedman = stats.friedman([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [1.0, 2.0, 3.0]]).p_value\n"
        "normal = stats.wilcoxon_signed_rank([float(i) for i in range(30)], [i + 0.5 for i in range(30)])\n"
        "grid = run_experiment(ExperimentConfig(suite='custom', problems=('F1', 'F5'), dimensions=(2,),\n"
        "    algorithms=(AlgorithmSpec('pso'), AlgorithmSpec('gwo')), runs=2, iterations=12, n_agents=6,\n"
        "    checkpoints=(6, 12)))\n"
        "text = emit_stat_tables(grid, reference='pso')\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print(json.dumps([p_friedman, normal.method, normal.n, 'gwo vs pso' in text, loaded]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    p_friedman, method, n, tested, loaded = json.loads(proc.stdout)
    assert 0.0 < p_friedman < 1.0
    assert (method, n, tested) == ("normal", 30, True)
    assert loaded == []


class TestLogError:
    def test_floor_applies(self):
        out = [floored_log10(v) for v in (0.0, 1e-15, 1e-3, 100.0)]
        assert out == [-12.0, -12.0, -3.0, 2.0]

    def test_absolute_value(self):
        assert floored_log10(-10.0) == 1.0


class TestChiSquareSf:
    def test_exponential_special_case(self):
        # with two degrees of freedom the tail is exp(-x/2)
        assert abs(chi_square_sf(2.0 * math.log(2.0), 2) - 0.5) <= 1e-12
        assert math.isclose(chi_square_sf(6.0, 2), math.exp(-3.0), rel_tol=1e-12)

    def test_reference_values(self):
        assert math.isclose(chi_square_sf(6.0, 2), 0.049787068367863944, rel_tol=1e-12)
        assert math.isclose(chi_square_sf(14.07, 7), 0.04995025031747947, rel_tol=1e-12)

    def test_domain(self):
        assert chi_square_sf(0.0, 3) == 1.0
        assert chi_square_sf(-2.0, 3) == 1.0
        assert chi_square_sf(math.inf, 3) == 0.0

    @pytest.mark.parametrize("dof", [0, -1, 2.0, True, None], ids=repr)
    def test_dof_is_an_integer_of_at_least_one(self, dof):
        with pytest.raises(ValueError, match="dof must be an integer >= 1"):
            chi_square_sf(1.0, dof)

    def test_matches_mpmath(self):
        # the closed form against the regularized upper incomplete gamma function
        xs = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 2000.0]
        checked = 0
        with mpmath.workdps(50):
            for dof in [*range(1, 61), 99, 100, 199]:
                for x in xs:
                    want = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
                    if want > 1e-300:
                        checked += 1
                        assert abs(chi_square_sf(x, dof) - want) <= 1e-12 * want, (x, dof)
        assert checked > 800

    @given(st.floats(0.01, 50.0), st.integers(1, 20))
    def test_is_a_probability_and_decreasing(self, x, dof):
        p = chi_square_sf(x, dof)
        assert 0.0 <= p <= 1.0
        assert chi_square_sf(x + 1.0, dof) <= p


class TestRanks:
    def test_simple_row(self):
        out = rank_per_case([[3.0, 1.0, 2.0]])
        assert np.array_equal(out, [[3.0, 1.0, 2.0]])

    def test_ties_share_average(self):
        out = rank_per_case([[1.0, 1.0, 5.0]])
        assert np.array_equal(out, [[1.5, 1.5, 3.0]])

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            rank_per_case([1.0, 2.0])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[2.0, 1.0, 2.0, 2.0], [0.0, -0.0, 3.0, 0.0]],
            [[math.inf, 1.0, math.inf, -math.inf], [-math.inf, -math.inf, 0.0, math.inf]],
            [[1.0, math.nan, 2.0, math.nan], [3.0, 1.0, 1.0, 2.0]],
            [[4.0], [math.inf], [-1.0]],
            [[5.0, 5.0, -math.inf, 1.0, 5.0]],
        ],
        ids=["ties", "infinities", "nan-row", "one-column", "one-case"],
    )
    def test_bitwise_equal_to_scipy(self, matrix):
        matrix = np.array(matrix)
        want = scipy.stats.rankdata(matrix, method="average", axis=1)
        assert rank_per_case(matrix).tobytes() == want.tobytes()
        for row, want_row in zip(matrix, want):
            got = _average_ranks(row)
            assert got.dtype == want_row.dtype and got.tobytes() == want_row.tobytes()

    @given(
        st.lists(
            st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, math.inf]),
            min_size=1,
            max_size=30,
        )
    )
    def test_average_ranks_bitwise_equal_to_scipy(self, values):
        values = np.array(values)
        want = scipy.stats.rankdata(values, method="average")
        assert _average_ranks(values).tobytes() == want.tobytes()

    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=4, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    def test_matches_independent_oracle(self, rows):
        matrix = np.array(rows, dtype=float)
        got = rank_per_case(matrix)
        for i, row in enumerate(matrix):
            assert np.array_equal(got[i], tie_average_ranks(row))


class TestFriedman:
    def test_hand_case(self):
        result = friedman([[1.0, 2.0, 3.0]] * 3)
        assert result.statistic == 6.0
        assert result.dof == 2
        assert result.n_cases == 3
        assert result.p_value == chi_square_sf(6.0, 2)
        assert np.array_equal(result.mean_ranks, [1.0, 2.0, 3.0])

    def test_balanced_ranks_give_zero(self):
        # every column averages rank 2: no signal at all
        ranks = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 3.0, 1.0], [2.0, 1.0, 3.0]])
        result = friedman(ranks)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            friedman(np.ones((3,)))
        with pytest.raises(ValueError):
            friedman(np.ones((3, 1)))
        with pytest.raises(ValueError):
            friedman([[1.0, math.nan]])

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(0)
        metrics = rng.standard_normal((12, 5))
        ranks = rank_per_case(metrics)
        ours = friedman(ranks)
        reference = scipy.stats.friedmanchisquare(*(metrics[:, j] for j in range(5)))
        assert math.isclose(ours.statistic, reference.statistic, rel_tol=1e-12)
        assert math.isclose(ours.p_value, reference.pvalue, rel_tol=1e-10)


class TestWilcoxon:
    def clean_pairs(self, n, salt):
        rng = np.random.default_rng(salt)
        while True:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n) + 0.3
            d = np.abs(x - y)
            if (d > 0).all() and np.unique(d).size == n:
                return x, y

    @pytest.mark.parametrize("n,salt", [(6, 0), (10, 1), (15, 2), (20, 3), (25, 4)])
    def test_exact_matches_scipy(self, n, salt):
        x, y = self.clean_pairs(n, salt)
        ours = wilcoxon_signed_rank(x, y)
        reference = scipy.stats.wilcoxon(x, y, alternative="two-sided", method="exact")
        assert ours.method == "exact"
        assert abs(ours.p_value - reference.pvalue) <= 1e-12
        w_minus = n * (n + 1) / 2.0 - ours.statistic
        assert min(ours.statistic, w_minus) == reference.statistic

    @pytest.mark.parametrize("salt", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_exact_matches_brute_force(self, salt):
        rng = np.random.default_rng(100 + salt)
        n = int(rng.integers(3, 11))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if salt % 2:
            x = np.round(x, 1)
            y = np.round(y, 1)  # provoke ties and zero differences
        ours = wilcoxon_signed_rank(x, y)
        assert abs(ours.p_value - brute_force_signed_rank_p(x, y)) <= 1e-12

    def test_normal_regime_matches_scipy(self):
        x, y = self.clean_pairs(40, 7)
        ours = wilcoxon_signed_rank(x, y)
        reference = scipy.stats.wilcoxon(
            x, y, alternative="two-sided", method="approx", correction=True
        )
        assert ours.method == "normal"
        assert ours.n == 40
        assert abs(ours.p_value - reference.pvalue) <= 1e-10

    def test_normal_regime_with_ties(self):
        rng = np.random.default_rng(11)
        x = np.round(rng.standard_normal(60), 1)
        y = np.round(rng.standard_normal(60), 1)
        keep = x != y
        x, y = x[keep], y[keep]
        assert x.size > 25
        ours = wilcoxon_signed_rank(x, y)
        reference = scipy.stats.wilcoxon(
            x, y, alternative="two-sided", method="approx", correction=True
        )
        assert abs(ours.p_value - reference.pvalue) <= 1e-8

    @pytest.mark.parametrize("n", [26, 40, 120, 400])
    def test_normal_tail_matches_mpmath(self, n):
        # the normal branch of the signed-rank test, distinct |differences|
        # 1..n with the k smallest negative, against erfc(|z| / sqrt(2))
        with mpmath.workdps(50):
            sd = mpmath.sqrt(mpmath.mpf(n * (n + 1) * (2 * n + 1)) / 24)
            for k in range(n + 1):
                diffs = np.arange(1.0, n + 1.0)
                diffs[:k] *= -1.0
                ours = wilcoxon_signed_rank(diffs, np.zeros(n))
                centered = mpmath.mpf(n * (n + 1) - k * (k + 1)) / 2 - mpmath.mpf(n * (n + 1)) / 4
                centered -= mpmath.sign(centered) / 2
                want = mpmath.erfc(abs(centered) / sd / mpmath.sqrt(2))
                assert ours.method == "normal"
                if want > 1e-300:
                    assert abs(ours.p_value - want) <= 1e-12 * want, k

    def test_identical_samples_degenerate(self):
        x = np.array([1.0, 2.0, 3.0])
        result = wilcoxon_signed_rank(x, x)
        assert result.method == "degenerate"
        assert result.p_value == 1.0
        assert result.n == 0
        assert result.direction == 0

    def test_direction(self):
        x = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1.0, 1.0, 1.0, 1.0, 10.0])
        assert wilcoxon_signed_rank(x, y).direction == 1
        assert wilcoxon_signed_rank(y, x).direction == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])
        assert wilcoxon_signed_rank([1.0, math.inf], [0.0, 0.0]) == WilcoxonResult(
            statistic=3.0, p_value=0.5, direction=1, method="exact", n=2
        )
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank([1.0, math.nan], [0.0, 0.0])

    def test_infinite_samples(self):
        inf = math.inf
        # equal infinities are a zero difference and are discarded
        assert wilcoxon_signed_rank([inf, -inf, 3.0], [inf, -inf, 1.0]) == (
            wilcoxon_signed_rank([3.0], [1.0])
        )
        # an infinite difference ranks above every finite one
        result = wilcoxon_signed_rank([-inf, 1.0, 2.0, 5.0], [0.0, 0.0, 0.0, 0.0])
        assert result.statistic == 1.0 + 2.0 + 3.0
        assert result.p_value == wilcoxon_signed_rank(
            [-9.0, 1.0, 2.0, 5.0], [0.0, 0.0, 0.0, 0.0]
        ).p_value
        # -inf and +inf in the middle leave the median difference undefined
        assert wilcoxon_signed_rank([-inf, inf], [0.0, 0.0]).direction == 0
        assert wilcoxon_signed_rank([inf, inf, -inf], [0.0, 0.0, 0.0]).direction == 1


class TestHolm:
    def test_hand_case(self):
        out = holm_correct([0.01, 0.04, 0.03])
        assert np.array_equal(out, [0.03, 0.06, 0.06])

    def test_single_p_unchanged(self):
        assert np.array_equal(holm_correct([0.2]), [0.2])

    def test_empty(self):
        assert holm_correct([]).size == 0

    def test_cap_at_one(self):
        out = holm_correct([0.9, 0.95, 0.99])
        assert (out <= 1.0).all()
        assert out[2] == 1.0

    def test_order_restored(self):
        p = [0.04, 0.01, 0.03]
        out = holm_correct(p)
        assert np.array_equal(out, [0.06, 0.03, 0.06])

    def test_validation(self):
        with pytest.raises(ValueError):
            holm_correct([0.5, 1.5])
        with pytest.raises(ValueError):
            holm_correct([[0.5]])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_adjusted_never_smaller_and_monotone(self, p):
        p = np.array(p)
        out = holm_correct(p)
        assert (out >= p).all()
        assert (out <= 1.0).all()
        order = np.argsort(p, kind="stable")
        assert (np.diff(out[order]) >= -1e-15).all()


def make_record(
    algorithm,
    problem,
    dim,
    run_index,
    best,
    f_true=0.0,
    feasible=None,
    objective_value=None,
):
    error = None if f_true is None else best - f_true
    return RunRecord(
        algorithm=algorithm,
        problem=problem,
        dim=dim,
        run_index=run_index,
        seed=run_index,
        best_position=np.zeros(dim),
        best_value=best,
        trace=np.array([best]),
        evaluations=10,
        walltime_ms=1.0,
        f_true=f_true,
        error=error,
        log10_error=None if error is None else floored_log10(error),
        objective_value=objective_value,
        feasible=feasible,
        max_violation=None if feasible is None else (0.0 if feasible else 1.0),
    )


def result_set(records, algorithms, problems, runs):
    """The records as the result set of a custom-suite grid of these
    algorithms and problems (a scalable one at d2), each with `runs` runs."""
    config = ExperimentConfig(
        suite="custom",
        problems=tuple(problems),
        dimensions=(2,),
        algorithms=tuple(map(AlgorithmSpec, algorithms)),
        runs=runs,
    )
    return ResultSet(config=config, records=list(records))


class TestSummarize:
    def two_algo_grid(self):
        records = []
        for run in range(3):
            records.append(make_record("a", "F1", 2, run, best=10.0 ** (-run - 1)))
            records.append(make_record("b", "F1", 2, run, best=10.0 ** (-run - 3)))
            records.append(make_record("a", "F9", 2, run, best=1.0 + run))
            records.append(make_record("b", "F9", 2, run, best=2.0 + run))
        return result_set(records, ["a", "b"], ["F1", "F9"], runs=3)

    def test_metrics_and_winners(self):
        table = summarize(self.two_algo_grid())
        assert table.algorithms == ("a", "b")
        assert [case.label for case in table.cases] == ["F1/d2", "F9/d2"]
        f1 = table.cases[0]
        # mean of log10 errors: a gets (-1-2-3)/3, b shifts two decades down
        assert f1.metrics["a"] == pytest.approx(-2.0)
        assert f1.metrics["b"] == pytest.approx(-4.0)
        assert f1.winners == ("b",)
        assert f1.log_metric
        f9 = table.cases[1]
        assert f9.winners == ("a",)
        assert np.array_equal(table.rank_matrix, [[2.0, 1.0], [1.0, 2.0]])
        assert table.mean_ranks == {"a": 1.5, "b": 1.5}
        assert table.wins == {"a": 1, "b": 1}
        assert table.friedman is not None
        assert table.friedman.statistic == 0.0

    def test_exact_tie_bolds_both(self):
        records = []
        for run in range(2):
            records.append(make_record("a", "F1", 2, run, best=1e-3))
            records.append(make_record("b", "F1", 2, run, best=1e-3))
        table = summarize(result_set(records, ["a", "b"], ["F1"], runs=2))
        assert table.cases[0].winners == ("a", "b")
        assert np.array_equal(table.rank_matrix, [[1.5, 1.5]])

    def test_missing_cell_is_an_error(self):
        rs = self.two_algo_grid()
        rs.records = [
            r for r in rs.records if not (r.algorithm == "b" and r.problem == "F9")
        ]
        with pytest.raises(IncompleteGridError) as err:
            summarize(rs)
        assert ("b", "F9", 2) in err.value.missing

    def test_missing_single_run_is_an_error(self):
        rs = self.two_algo_grid()
        rs.records = [
            r
            for r in rs.records
            if not (r.algorithm == "a" and r.problem == "F1" and r.run_index == 1)
        ]
        with pytest.raises(IncompleteGridError):
            summarize(rs)

    def constrained_grid(self):
        records = []
        feas = {
            ("a", 0): (True, 264.1),
            ("a", 1): (True, 263.9),
            ("a", 2): (False, 999.0),
            ("b", 0): (False, 500.0),
            ("b", 1): (False, 600.0),
            ("b", 2): (False, 700.0),
        }
        for (algo, run), (ok, value) in feas.items():
            records.append(
                make_record(
                    algo,
                    "three_bar_truss",
                    2,
                    run,
                    best=value + (0.0 if ok else 1e9),
                    f_true=None,
                    feasible=ok,
                    objective_value=value,
                )
            )
        return result_set(records, ["a", "b"], ["three_bar_truss"], runs=3)

    def test_constrained_scoring(self):
        table = summarize(self.constrained_grid())
        case = table.cases[0]
        assert case.constrained
        assert not case.log_metric
        assert case.metrics["a"] == 263.9
        assert case.metrics["b"] == math.inf
        assert case.feasible_rate["a"] == pytest.approx(2.0 / 3.0)
        assert case.feasible_rate["b"] == 0.0
        assert case.winners == ("a",)

    def test_all_infeasible_has_no_winner(self):
        records = [
            make_record(
                "a", "three_bar_truss", 2, run, best=1e9, f_true=None,
                feasible=False, objective_value=100.0,
            )
            for run in range(2)
        ] + [
            make_record(
                "b", "three_bar_truss", 2, run, best=1e9, f_true=None,
                feasible=False, objective_value=100.0,
            )
            for run in range(2)
        ]
        table = summarize(result_set(records, ["a", "b"], ["three_bar_truss"], runs=2))
        assert table.cases[0].winners == ()

    def test_single_algorithm_skips_friedman(self):
        records = [make_record("a", "F1", 2, run, best=0.1) for run in range(2)]
        table = summarize(result_set(records, ["a"], ["F1"], runs=2))
        assert table.friedman is None


def exponent_grid(exponents, runs=3, more_problems=(), more_records=()):
    """Records with best value 10**(e + run), where `exponents` maps each
    algorithm to one integer e per case F1, F2, ... at d2; every case metric
    is then an exact mean of integers, whatever the run order. The cases of
    `more_problems`, whose runs are `more_records`, come after them."""
    problems = [f"F{j + 1}" for j in range(len(next(iter(exponents.values()))))]
    records = [
        make_record(algorithm, problems[j], 2, run, best=10.0 ** (e + run))
        for algorithm, per_case in exponents.items()
        for j, e in enumerate(per_case)
        for run in range(runs)
    ]
    return result_set(
        records + list(more_records), list(exponents), problems + list(more_problems), runs
    )


def constrained_records(algorithm, problem, objectives, infeasible=()):
    """One constrained run per objective, at the problem's dimension; runs
    listed in `infeasible` are penalized to 1e9 and not feasible."""
    return [
        make_record(
            algorithm, problem, get_problem(problem).dim, run,
            best=1e9 if run in infeasible else value, f_true=None,
            feasible=run not in infeasible, objective_value=value,
        )
        for run, value in enumerate(objectives)
    ]


class TestCompare:
    def grid(self):
        """Eight log-error cases; both baselines sit decades above dvo."""
        rng = np.random.default_rng(3)
        records = []
        for problem in [f"F{i}" for i in range(1, 9)]:
            for run in range(3):
                records.append(
                    make_record("dvo", problem, 2, run, best=10.0 ** rng.uniform(-9, -6))
                )
                records.append(
                    make_record("pso", problem, 2, run, best=10.0 ** rng.uniform(-4, -2))
                )
                records.append(
                    make_record("gwo", problem, 2, run, best=10.0 ** rng.uniform(-5, -3))
                )
        return result_set(records, ["dvo", "pso", "gwo"], [f"F{i}" for i in range(1, 9)], runs=3)

    def test_report_shape(self):
        report = compare(self.grid(), "dvo")
        assert report.reference == "dvo"
        names = [c.algorithm for c in report.comparisons]
        assert names == ["pso", "gwo"]
        for c in report.comparisons:
            assert c.reference == "dvo"
            assert c.test.n == 8
            assert c.p_holm >= c.test.p_value
            assert c.difference == pytest.approx(c.algorithm_mean - c.reference_mean)
            # both baselines sit decades above the reference here
            assert c.test.direction == 1
            assert c.significant
            assert not c.too_few_cases

    def test_holm_family_is_joint(self):
        report = compare(self.grid(), "dvo")
        raw = np.array([c.test.p_value for c in report.comparisons])
        adjusted = np.array([c.p_holm for c in report.comparisons])
        assert np.array_equal(adjusted, holm_correct(raw))

    def test_unknown_reference(self):
        with pytest.raises(ValueError):
            compare(self.grid(), "nope")

    def test_reference_only_gives_empty_report(self):
        records = [make_record("solo", "F1", 2, run, best=0.5) for run in range(3)]
        report = compare(result_set(records, ["solo"], ["F1"], runs=3), "solo")
        assert report.comparisons == ()

    def test_run_order_does_not_change_the_comparison(self):
        rng = np.random.default_rng(5)
        exponents = {a: rng.integers(-9, -3, size=8).tolist() for a in ("dvo", "pso", "gwo")}
        grid = exponent_grid(exponents)
        before = compare(grid, "dvo").comparisons
        for record in grid.records:
            if record.algorithm == "pso":
                record.run_index = (record.run_index + 1) % 3
        assert compare(grid, "dvo").comparisons == before

    def test_one_infeasible_run_changes_no_verdict(self):
        exponents = {"dvo": [-8, -7, -9, -6, -8, -7, -6, -9], "pso": [-3, -4, -2, -5, -7, -3, -8, -2]}
        grids = []
        for infeasible in ((), (2,)):
            truss = constrained_records("dvo", "three_bar_truss", [263.9, 264.0, 264.1])
            truss += constrained_records("pso", "three_bar_truss", [264.5, 264.2, 264.8], infeasible)
            grids.append(exponent_grid(exponents, more_problems=["three_bar_truss"], more_records=truss))
        clean, spoiled = (compare(grid, "dvo") for grid in grids)
        assert spoiled.table.cases[-1].metrics == clean.table.cases[-1].metrics
        assert spoiled.comparisons == clean.comparisons
        assert [c.significant for c in spoiled.comparisons] == [True]

    def test_only_constrained_cases_give_no_comparisons(self):
        records = []
        for algorithm, shift in (("dvo", 0.0), ("pso", 1.0), ("gwo", 2.0)):
            for problem in ("three_bar_truss", "welded_beam"):
                records += constrained_records(algorithm, problem, [10.0 + shift, 11.0], (1,))
        grid = result_set(records, ["dvo", "pso", "gwo"], ["three_bar_truss", "welded_beam"], runs=2)
        assert compare(grid, "dvo").comparisons == ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = emit_stat_tables(grid, reference="dvo")
        assert "Friedman chi-square =" in text
        assert text.endswith(
            "\nno signed-rank tests: they use only cases with a log10 error, and there are none\n"
        )

    def test_n_counts_log_cases_that_differ(self):
        exponents = {
            "dvo": [-8, -7, -9, -6, -8, -7, -6, -9, -5, -7],
            "pso": [-8, -4, -9, -5, -8, -3, -8, -2, -4, -6],  # ties dvo on three cases
            "gwo": [-4] * 10,
        }
        more = []
        for algorithm, objective in (("dvo", 263.9), ("pso", 264.5), ("gwo", 265.0)):
            more += constrained_records(algorithm, "three_bar_truss", [objective] * 3)
            # no known optimum: ranked, never tested
            more += [
                make_record(algorithm, "F14", 2, run, best=objective, f_true=None)
                for run in range(3)
            ]
        grid = exponent_grid(exponents, more_problems=["three_bar_truss", "F14"], more_records=more)
        report = compare(grid, "dvo")
        assert len(report.table.cases) == 12
        assert [c.test.n for c in report.comparisons] == [7, 10]
        assert "pso vs dvo   7" in emit_stat_tables(grid, reference="dvo")

    def test_means_cover_the_cases_finite_for_both(self):
        exponents = {"dvo": [-8, -7, -9, -6], "pso": [-3, -4, -2, -5], "gwo": [-4, -5, -6, -7]}
        finite_pso, _ = compare(exponent_grid(exponents), "dvo").comparisons
        # F5 is infinite for pso only: pso's means leave it out, gwo's count it
        f5 = [
            make_record(algorithm, "F5", 2, run, best=best)
            for algorithm, best in (("dvo", 1e-8), ("pso", math.inf), ("gwo", 1e-4))
            for run in range(3)
        ]
        grid = exponent_grid(exponents, more_problems=["F5"], more_records=f5)
        pso, gwo = compare(grid, "dvo").comparisons
        assert (pso.algorithm_mean, pso.reference_mean, pso.difference) == (
            finite_pso.algorithm_mean,
            finite_pso.reference_mean,
            finite_pso.difference,
        )
        assert (pso.algorithm_mean, pso.reference_mean) == (-2.5, -6.5)
        assert (gwo.algorithm_mean, gwo.reference_mean) == (-4.4, -6.8)
        # the signed-rank test still sees every case
        assert [c.test.n for c in (pso, gwo)] == [5, 5]
        line = next(line for line in emit_stat_tables(grid, "dvo").splitlines() if "pso vs" in line)
        assert line.split()[3:7] == ["5", "-2.500", "-6.500", "+4.000"]

    def test_means_without_a_case_finite_for_both_are_nan(self):
        grid = result_set(
            (
                make_record(algorithm, "F1", 2, run, best=best)
                for algorithm, best in (("dvo", 1e-8), ("pso", math.inf))
                for run in range(3)
            ),
            ["dvo", "pso"],
            ["F1"],
            runs=3,
        )
        (c,) = compare(grid, "dvo").comparisons
        assert math.isnan(c.algorithm_mean) and math.isnan(c.reference_mean)
        assert c.test.n == 1

    @pytest.mark.parametrize("n_cases,too_few", [(5, True), (7, True), (8, False), (10, False)])
    def test_too_few_cases_for_six_baselines(self, n_cases, too_few):
        others = ("pso", "gwo", "woa", "sca", "aoa", "eo")
        exponents = {"dvo": [-9] * n_cases}
        exponents.update((a, [-8 + k] * n_cases) for k, a in enumerate(others))
        report = compare(exponent_grid(exponents, runs=2), "dvo")
        assert [c.too_few_cases for c in report.comparisons] == [too_few] * 6
        assert [c.significant for c in report.comparisons] == [not too_few] * 6
        text = emit_stat_tables(exponent_grid(exponents, runs=2), reference="dvo")
        verdicts = [line.split("  ")[-1].strip() for line in text.splitlines() if " vs dvo" in line]
        assert verdicts == ["too few cases" if too_few else "yes"] * 6

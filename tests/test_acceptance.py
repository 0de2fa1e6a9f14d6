"""Acceptance gate: pinned quality bars and exactness guarantees.

Each test here freezes an externally checkable promise: geometric
invariants of the search dynamics, agreement of the statistics layer with
independent oracles (high precision gamma evaluation, exhaustive sign
enumeration), solution quality on the constrained design problems under a
fixed seeding protocol, bitwise reproducibility across parallelism
degrees, and byte-stable report formatting. Tolerances are deliberately
explicit so regressions fail loudly.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from conftest import child_env, drive
from scipy.stats import rankdata

from drainvortex import engine
from drainvortex.baselines import BASELINES, BaselineConfig
from drainvortex.benchmarks import get_problem
from drainvortex.engine import (
    ABLATION_VARIANTS,
    Batch,
    DvoParams,
    Phase,
    drain_probabilities,
    exploration_scale,
    initial_population,
    initialize,
    select_phase,
    shrink_factor,
    spiral_update,
    swirl_speed,
)
from drainvortex.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    ResultSet,
    emit_result_table,
    load_result_set,
    run_experiment,
)
from drainvortex.records import RunRecord, floored_log10
from drainvortex.rng import RngStream, levy_step, mantegna_sigma, mix_seed
from drainvortex.stats import chi_square_sf, friedman, holm_correct, wilcoxon_signed_rank

PROTOCOL_SEED = 2024

# P(|Z| > 5) for a standard normal, the comparison floor for the heavy tail
GAUSS_TAIL_BEYOND_5 = 5.733031437583892e-07

_PROPERTY_BUDGET = {"spent": 0.0}


@pytest.fixture
def property_clock():
    started = time.perf_counter()
    yield
    _PROPERTY_BUDGET["spent"] += time.perf_counter() - started


class TestSearchInvariants:
    """Randomized structural checks on the update geometry; the whole
    sweep must stay inside a strict wall-clock budget."""

    def test_schedule_endpoints(self, property_clock):
        for total in (2, 3, 10, 1000):
            assert exploration_scale(0, total) == 2.0
            assert exploration_scale(total - 1, total) == 0.0

    def test_drain_probability_shape(self, property_clock):
        for k in range(1, 13):
            for pressure in (0.0, 0.5, 1.0, 3.0, 6.0, 10.0):
                probs = drain_probabilities(k, pressure)
                assert probs.shape == (k,)
                assert abs(float(probs.sum()) - 1.0) < 1e-12
                assert np.all(probs > 0.0)
                assert np.all(np.diff(probs) <= 1e-15)
        # more pressure concentrates mass on the best drain
        for k in range(2, 13):
            leads = [drain_probabilities(k, p)[0] for p in (0.5, 1.0, 3.0, 6.0)]
            assert np.all(np.diff(leads) > 0.0)

    def test_phase_partition(self, property_clock):
        rng = np.random.default_rng(11)
        for _ in range(200):
            near = float(rng.uniform(0.0, 0.3))
            far = near + float(rng.uniform(0.0, 0.6))
            rho = np.concatenate([rng.uniform(0.0, 1.0, 100), [0.0, near, far, 1.0]])
            phase = select_phase(rho, far, near)
            expected = np.full(rho.shape, int(Phase.SPIRAL))
            expected[rho > far] = int(Phase.FAR)
            expected[rho <= near] = int(Phase.CORE)
            assert np.array_equal(phase, expected)

    def test_spiral_distance_identity(self, property_clock):
        """|new - target| = s * sqrt(cos^2 w + v_theta^2 sin^2 w) across
        ten thousand random agent configurations, to 1e-9."""
        rng = np.random.default_rng(41)
        stream = RngStream(7)
        worst = 0.0
        for _ in range(100):
            n, d = 100, int(rng.integers(2, 9))
            params = DvoParams(
                circulation=float(rng.uniform(0.05, 2.0)),
                core_softening=float(rng.uniform(1e-3, 0.1)),
                swirl_cap=float(rng.uniform(1.0, 20.0)),
                shrink_gain=float(rng.uniform(0.0, 1.0)),
                residual_shrink=float(rng.uniform(0.0, 1.0)),
            )
            if rng.integers(0, 2) == 0:  # a shrink that does not adapt
                params = replace(params, residual_shrink=1.0)
            targets = rng.uniform(-5.0, 5.0, (n, d))
            direction = rng.standard_normal((n, d))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radii = rng.uniform(0.5, 5.0, n)
            positions = targets + radii[:, None] * direction
            rho = rng.uniform(1e-3, 1.0, n)
            scale = float(rng.uniform(0.0, 2.0))
            angles = 2.0 * math.pi * rng.random(n)
            raw = rng.standard_normal((n, d))
            tangents = raw - (raw * direction).sum(axis=1, keepdims=True) * direction
            norms = np.linalg.norm(tangents, axis=1, keepdims=True)
            assert np.all(norms > 1e-9)
            tangents /= norms
            out = spiral_update(
                positions, targets, radii, rho, scale, params, stream,
                angles=angles, tangents=tangents,
            )
            s = np.abs(shrink_factor(radii, scale, params))
            v_theta = swirl_speed(rho, params)
            expected = s * np.sqrt(np.cos(angles) ** 2 + (v_theta * np.sin(angles)) ** 2)
            got = np.linalg.norm(out - targets, axis=1)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst < 1e-9

    def test_swirl_speed_cap(self, property_clock):
        rng = np.random.default_rng(5)
        for _ in range(500):
            params = DvoParams(
                circulation=float(rng.uniform(0.01, 5.0)),
                core_softening=float(rng.uniform(1e-4, 0.5)),
                swirl_cap=float(rng.uniform(0.5, 20.0)),
            )
            rho = rng.uniform(0.0, 1.0, 50)
            v = swirl_speed(rho, params)
            assert np.all(v <= params.swirl_cap + 1e-15)
            raw = params.circulation / (rho + params.core_softening)
            assert np.array_equal(v, np.minimum(raw, params.swirl_cap))

    def test_best_value_never_worsens(self, property_clock):
        problem = get_problem("F9", dim=4)
        for variant in ("full", "no_greedy", "no_splash"):
            params = replace(DvoParams(n_agents=10, iterations=40), **ABLATION_VARIANTS[variant])
            for seed in (0, 1, 2):
                record = engine.run(problem, params, seed=seed)
                assert np.all(np.diff(record.trace) <= 0.0)

    def test_population_stays_in_bounds(self, property_clock):
        problem = get_problem("F5", dim=4)
        params = DvoParams(n_agents=8, iterations=30, splash_prob=0.5, stay_limit=2)
        for seed in (0, 1, 2):
            batch = Batch((problem,), (RngStream(seed),))
            state = initialize(*drive(initial_population(batch, params.n_agents), batch), params)
            for t in range(params.iterations):
                drive(engine.sweep(state, t, params, batch), batch)
                assert np.all(state.positions >= problem.lower)
                assert np.all(state.positions <= problem.upper)

    def test_invariant_sweep_fits_time_budget(self):
        # runs last in this class by definition order
        assert _PROPERTY_BUDGET["spent"] < 60.0


class TestStepScaleOracle:
    def test_matches_high_precision_gamma(self):
        mpmath.mp.dps = 50

        def reference(beta):
            b = mpmath.mpf(beta)
            num = mpmath.gamma(1 + b) * mpmath.sin(mpmath.pi * b / 2)
            den = mpmath.gamma((1 + b) / 2) * b * mpmath.power(2, (b - 1) / 2)
            return float(mpmath.power(num / den, 1 / b))

        assert mantegna_sigma(1.0) == 1.0
        for beta in (0.5, 1.5):
            expected = reference(beta)
            assert abs(mantegna_sigma(beta) - expected) / expected <= 1e-9


class TestHeavyTail:
    def test_tail_mass_dwarfs_gaussian(self):
        started = time.perf_counter()
        stream = RngStream(PROTOCOL_SEED)
        steps = levy_step(1_000_000, 1.5, stream)
        elapsed = time.perf_counter() - started
        tail_freq = float(np.mean(np.abs(steps) > 5.0))
        assert tail_freq >= 10.0 * GAUSS_TAIL_BEYOND_5
        assert tail_freq < 0.2  # sane: heavy tailed, not degenerate
        assert elapsed < 5.0


def _signed_rank_reference(x, y):
    """Exhaustive two-sided signed-rank p: every sign assignment counted,
    doubled tie-averaged ranks keep the arithmetic exact."""
    diffs = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return 1.0
    doubled = np.rint(2.0 * rankdata(np.abs(diffs), method="average")).astype(np.int64)
    total = int(doubled.sum())
    observed = int(doubled[diffs > 0].sum())
    masks = np.arange(2**n, dtype=np.int64)
    signs = (masks[:, None] >> np.arange(n)) & 1
    w_all = signs @ doubled
    gap = abs(2 * observed - total)
    count = int(np.count_nonzero(np.abs(2 * w_all - total) >= gap))
    return count / 2.0**n


class TestSignedRankExactness:
    def test_matches_enumeration_over_random_pairs(self):
        rng = np.random.default_rng(PROTOCOL_SEED)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if trial % 2 == 1:
                # coarse rounding manufactures ties and zero differences
                x = np.round(x, 1)
                y = np.round(y, 1)
            result = wilcoxon_signed_rank(x, y)
            assert result.method in ("exact", "degenerate")
            assert abs(result.p_value - _signed_rank_reference(x, y)) <= 1e-12


class TestRankTestIdentities:
    def test_three_case_statistic_is_exact(self):
        result = friedman(np.array([[1.0, 2.0, 3.0]] * 3))
        assert result.statistic == 6.0

    def test_chi_square_median_of_two_dof(self):
        # dof 2 is an exponential: sf(2 ln 2) is exactly one half
        assert abs(chi_square_sf(2.0 * math.log(2.0), 2) - 0.5) <= 1e-10

    def test_holm_adjustment_is_exact(self):
        adjusted = holm_correct(np.array([0.01, 0.04, 0.03]))
        assert np.array_equal(adjusted, np.array([0.03, 0.06, 0.06]))


TARGET_MEAN_RANKS = (1.664, 2.422, 2.741, 3.931, 4.293, 6.922, 6.112, 7.914)
TARGET_COLUMN_SUMS = np.array([97, 140, 159, 228, 249, 401, 355, 459], dtype=float)


def _rank_matrix_with_column_sums():
    """Deterministic 58 x 8 matrix of full-ranking rows hitting the target
    column sums exactly: greedy proportional seeding, then improving pair
    swaps, then a token walk moving single rank units between columns."""
    n_rows, n_cols = 58, 8
    rows = []
    remaining = TARGET_COLUMN_SUMS.copy()
    for i in range(n_rows):
        target = remaining / (n_rows - i)
        row = np.argsort(np.argsort(target, kind="stable"), kind="stable") + 1.0
        rows.append(row)
        remaining -= row
    matrix = np.array(rows)
    while True:
        deficit = TARGET_COLUMN_SUMS - matrix.sum(axis=0)
        if np.abs(deficit).sum() == 0:
            return matrix
        best = None
        for i in range(n_rows):
            for a in range(n_cols):
                for b in range(a + 1, n_cols):
                    delta = matrix[i, b] - matrix[i, a]
                    change = (
                        abs(deficit[a] - delta)
                        + abs(deficit[b] + delta)
                        - abs(deficit[a])
                        - abs(deficit[b])
                    )
                    if best is None or change < best[0]:
                        best = (change, i, a, b)
        if best[0] >= 0:
            break
        _, i, a, b = best
        matrix[i, a], matrix[i, b] = matrix[i, b], matrix[i, a]
    for guard in range(10000):
        deficit = TARGET_COLUMN_SUMS - matrix.sum(axis=0)
        if np.abs(deficit).sum() == 0:
            return matrix
        a = int(np.argmax(deficit))
        b = int(np.argmin(deficit))
        start = guard % n_rows
        done = False
        for i in list(range(start, n_rows)) + list(range(start)):
            if matrix[i, b] == matrix[i, a] + 1.0:
                matrix[i, a], matrix[i, b] = matrix[i, b], matrix[i, a]
                done = True
                break
        if not done:
            for i in list(range(start, n_rows)) + list(range(start)):
                if matrix[i, a] < n_cols:
                    x = int(np.where(matrix[i] == matrix[i, a] + 1.0)[0][0])
                    matrix[i, a], matrix[i, x] = matrix[i, x], matrix[i, a]
                    break
    raise AssertionError("rank matrix constructor failed to converge")


class TestLargeRankTable:
    def test_statistic_on_58_by_8_grid(self):
        matrix = _rank_matrix_with_column_sums()
        assert matrix.shape == (58, 8)
        # every row is a complete ranking
        assert np.array_equal(np.sort(matrix, axis=1), np.tile(np.arange(1.0, 9.0), (58, 1)))
        assert np.array_equal(matrix.sum(axis=0), TARGET_COLUMN_SUMS)
        assert np.allclose(matrix.mean(axis=0), TARGET_MEAN_RANKS, atol=0.01)
        result = friedman(matrix)
        assert abs(result.statistic - 347.44) <= 1.0
        assert result.statistic == pytest.approx(347.16666666666646, abs=1e-9)
        assert result.dof == 7


@pytest.fixture(scope="module")
def engineering_results():
    """Full-budget constrained study under the frozen seeding protocol;
    shared by the design quality tests below (about half a minute). It runs
    on two workers, which changes no record (see the determinism contract
    in `harness`)."""
    config = ExperimentConfig(
        suite="custom",
        problems=("three_bar_truss", "welded_beam", "pressure_vessel"),
        algorithms=(AlgorithmSpec("dvo"), AlgorithmSpec("pso")),
        runs=30,
        iterations=1000,
        n_agents=30,
        master_seed=PROTOCOL_SEED,
    )
    return run_experiment(config, parallel=2)


def _best_feasible(result_set, algorithm, problem):
    values = [
        r.objective_value
        for r in result_set.records
        if r.algorithm == algorithm and r.problem == problem and r.feasible
    ]
    assert values, f"no feasible designs for {algorithm} on {problem}"
    return min(values)


class TestConstrainedDesignQuality:
    def test_truss_mass_window(self, engineering_results):
        for algorithm in ("dvo", "pso"):
            best = _best_feasible(engineering_results, algorithm, "three_bar_truss")
            assert 263.89 <= best <= 264.0

    def test_weld_cost(self, engineering_results):
        assert _best_feasible(engineering_results, "pso", "welded_beam") <= 1.76
        assert _best_feasible(engineering_results, "dvo", "welded_beam") <= 1.80

    def test_vessel_cost(self, engineering_results):
        assert _best_feasible(engineering_results, "pso", "pressure_vessel") <= 6200.0

    def test_feasibility_was_assessed_everywhere(self, engineering_results):
        for record in engineering_results.records:
            assert record.feasible is not None
            assert record.max_violation is not None


class TestUnconstrainedQuality:
    def test_high_dimensional_quadratic(self):
        problem = get_problem("F1", dim=30)
        params = DvoParams()  # 30 agents, 1000 sweeps
        # the 30 runs step together as one batch; each record is its solo run's
        runs = [
            (problem, mix_seed(PROTOCOL_SEED, "dvo", "F1", 30, run_index), run_index)
            for run_index in range(30)
        ]
        group = engine.Group("dvo", engine.initialize, engine.sweep, params, runs)
        records = engine.run_optimizer([group])
        logs = [record.log10_error for record in records]
        assert len(logs) == 30
        assert float(np.mean(logs)) <= 1.2

    def test_baselines_solve_trivial_case(self):
        problem = get_problem("F1", dim=2)
        for name in sorted(BASELINES):
            config = BaselineConfig(algorithm=name, n_agents=30, iterations=300)
            for run_index in range(30):
                seed = mix_seed(PROTOCOL_SEED, name, "F1", 2, run_index)
                record = BASELINES[name](problem, config, seed, run_index=run_index)
                assert record.error < 1e-1, f"{name} run {run_index}: {record.error}"


def _cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "drainvortex", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )


def _masked_summary(out_dir):
    # final column is wall time, the only permitted difference
    lines = (out_dir / "summary.csv").read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def _masked_records(out_dir):
    """The lines of records.jsonl in file order, keyed by run, wall time masked."""
    payload = []
    for line in (out_dir / "records.jsonl").read_text().splitlines():
        data = json.loads(line)
        data.pop("walltime_ms")
        payload.append(((data["algorithm"], data["problem"], data["dim"], data["run_index"]), data))
    return payload


class TestParallelReproducibility:
    def test_worker_count_cannot_change_results(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "suite": "custom",
                    "problems": ["F1"],
                    "dimensions": [2],
                    "algorithms": ["pso", "dvo"],
                    "execution": {
                        "runs": 3,
                        "iterations": 60,
                        "n_agents": 8,
                        "master_seed": 7,
                    },
                    "checkpoints": [30, 60],
                    "output": "out",
                }
            )
        )
        # same relative output path from two working directories keeps the
        # config snapshots byte-comparable across parallelism degrees
        outputs = {}
        for degree in ("1", "8"):
            workdir = tmp_path / f"w{degree}"
            workdir.mkdir()
            proc = _cli(
                ["run", "--config", str(config_path), "--parallel", degree], cwd=workdir
            )
            assert proc.returncode == 0, proc.stderr
            outputs[degree] = workdir / "out"
        one, eight = outputs["1"], outputs["8"]
        assert (one / "config.json").read_bytes() == (eight / "config.json").read_bytes()
        masked = _masked_summary(one)
        assert masked == _masked_summary(eight)
        assert len(masked) == 1 + 6
        records = _masked_records(one)
        assert len(dict(records)) == len(records) == 6
        assert records == _masked_records(eight)


class TestComponentToggles:
    def test_toggle_study_covers_every_variant(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "suite": "custom",
                    "problems": ["F16"],
                    "algorithms": [f"dvo:{variant}" for variant in ABLATION_VARIANTS],
                    "execution": {"runs": 2, "iterations": 40, "n_agents": 8},
                }
            )
        )
        out = tmp_path / "out"
        proc = _cli(["run", "--config", str(config_path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        loaded = load_result_set(out)
        assert len(loaded.records) == 14
        names = {record.algorithm for record in loaded.records}
        assert names == {f"dvo:{variant}" for variant in ABLATION_VARIANTS}
        assert len(names) == 7

    def test_single_drain_toggle_equals_explicit_setting(self):
        problem = get_problem("F9", dim=6)
        base = DvoParams(n_agents=10, iterations=50)
        variant = replace(base, **ABLATION_VARIANTS["single_vortex"])
        explicit = DvoParams(n_agents=10, iterations=50, n_drains=1)
        for seed in (123, 9001):
            a = engine.run(problem, variant, seed=seed)
            b = engine.run(problem, explicit, seed=seed)
            assert np.array_equal(a.trace, b.trace)
            assert np.array_equal(a.best_position, b.best_position)
            assert a.best_value == b.best_value
            assert a.evaluations == b.evaluations


def _pinned_record(algorithm, problem, dim, run_index, value, feasible=None):
    constrained = feasible is not None
    return RunRecord(
        algorithm=algorithm,
        problem=problem,
        dim=dim,
        run_index=run_index,
        seed=run_index,
        best_position=np.zeros(dim),
        best_value=value if feasible is not False else value + 1e9,
        trace=np.full(10, value),
        evaluations=66,
        walltime_ms=1.0,
        f_true=None if constrained else 0.0,
        error=None if constrained else value,
        log10_error=None if constrained else floored_log10(value),
        objective_value=value if constrained else None,
        feasible=feasible,
        max_violation=None if feasible is None else (0.0 if feasible else 1.0),
        checkpoints={},
    )


def _pinned_result_set():
    config = ExperimentConfig(
        suite="custom",
        problems=("F1", "three_bar_truss", "pressure_vessel"),
        dimensions=(2,),
        algorithms=(AlgorithmSpec("dvo"), AlgorithmSpec("pso")),
        runs=10,
        iterations=10,
        n_agents=6,
        checkpoints=(5, 10),
    )
    records = []
    for run in range(10):
        records.append(_pinned_record("dvo", "F1", 2, run, 1e-4))
        records.append(_pinned_record("pso", "F1", 2, run, 1e-4))
        records.append(
            _pinned_record("dvo", "three_bar_truss", 2, run, 263.9 + 0.05 * run, feasible=True)
        )
        records.append(
            _pinned_record(
                "pso", "three_bar_truss", 2, run, 264.2 + 0.05 * run, feasible=run != 3
            )
        )
        records.append(
            _pinned_record("dvo", "pressure_vessel", 4, run, 6059.71 + 5.0 * run, feasible=True)
        )
        records.append(
            _pinned_record("pso", "pressure_vessel", 4, run, 6100.0 + 5.0 * run, feasible=False)
        )
    return ResultSet(config=config, records=records)


PLAIN_GOLDEN = (
    "case                      dvo           pso\n"
    "F1/d2                *-4.000*      *-4.000*\n"
    "three_bar_truss/d2    *263.9*  264.2 (0.90)\n"
    "pressure_vessel/d4  *6059.71*           n/a\n"
)

LATEX_GOLDEN = (
    "\\begin{tabular}{lrr}\n"
    "case & dvo & pso \\\\\n"
    "\\hline\n"
    "F1/d2 & \\textbf{-4.000} & \\textbf{-4.000} \\\\\n"
    "three\\_bar\\_truss/d2 & \\textbf{263.9} & 264.2 (0.90) \\\\\n"
    "pressure\\_vessel/d4 & \\textbf{6059.71} & n/a \\\\\n"
    "\\end{tabular}\n"
)


class TestReportFormatStability:
    def test_plain_table_matches_golden(self):
        assert emit_result_table(_pinned_result_set(), fmt="plain") == PLAIN_GOLDEN

    def test_latex_table_matches_golden(self):
        assert emit_result_table(_pinned_result_set(), fmt="latex") == LATEX_GOLDEN

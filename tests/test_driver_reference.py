"""The one run driver against the seven run loops it replaced.

`engine.run_optimizer` owns the stream, the timer, the initial population,
the evaluation count, the trace and the record of dvo and of every baseline.
Records stay bitwise identical only if each optimizer still draws, evaluates
and reports its best so far exactly as its own loop did. The functions from
`_reference_initialize` down to `_reference_run_eo` below are those loops,
kept verbatim as the reference; the helpers they call are the package's own.
The only edits: `_reference_run` calls `_reference_initialize` (the engine's
`initialize` now takes the evaluated population), and that copy reads
`params.n_drains` where it read `params.effective_drains`, the value it had
for every params passed here. `DvoState` no longer carries the previous
population, the best so far or the evaluation count, so
`_reference_initialize` no longer passes `prev_positions`, `prev_fitness`,
`best_position`, `best_value` and `evaluations`, and `_reference_run` reads
the best so far as `state.drains[0]`/`float(state.drain_fitness[0])` where it
read `state.best_position`/`state.best_value` (the copies `step` made of
them) and counts `n_agents*(iterations+1)` evaluations where it read
`state.evaluations`. The engine's `Bounds` is gone and `ProblemSpec` carries
the same `lower` and `span`, so `_reference_initialize` reads `problem` where
it read `bounds` and no longer takes `bounds`, and `_reference_run` no longer
builds `Bounds.of(problem)` nor passes it to `_reference_initialize` and
`step`. `DvoState` no longer counts its sweeps, so `_reference_initialize`
builds no `t` and `_reference_run` passes its sweep index `s` to `step`.
sca no longer takes `n_elites`, so `_reference_run_sca` reads `n_elites = 2`,
the default it resolved to for every config passed here. A dvo sweep is
the generator `engine.sweep` over an `engine.Batch` of runs, which yields
its proposals for evaluation, so `_reference_run` drives it for the batch
of its one run with `benchmarks.evaluate` (conftest's `drive`), where it
called `step(state, s, params, problem, rng)`.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import drive

from drainvortex import benchmarks, engine
from drainvortex.baselines import BASELINES, BaselineConfig, _woa_spiral
from drainvortex.engine import ABLATION_VARIANTS, Batch, DvoParams, DvoState
from drainvortex.errors import ConfigError
from drainvortex.records import DEFAULT_CHECKPOINTS, RunRecord, build_record
from drainvortex.rng import RngStream

# ---------------------------------------------------------------------------
# reference: the run loops, verbatim
# ---------------------------------------------------------------------------


def _reference_initialize(problem, params: DvoParams, rng: RngStream) -> DvoState:
    """Uniform population, evaluated, with the K best as initial drains."""
    n = params.n_agents
    k = params.n_drains  # was params.effective_drains
    positions = problem.lower + rng.random((n, problem.lower.size)) * problem.span
    fitness = benchmarks.evaluate(problem, positions, rng)
    order = np.argsort(fitness, kind="stable")[:k]
    drains = positions[order].copy()
    drain_fitness = fitness[order].copy()
    return DvoState(
        positions=positions,
        fitness=fitness,
        drains=drains,
        drain_fitness=drain_fitness,
        stagnation=np.zeros(n, dtype=int),
    )


def _reference_run(
    problem,
    params: DvoParams = DvoParams(),
    seed: int = 0,
    checkpoints=DEFAULT_CHECKPOINTS,
    algorithm: str = "dvo",
    run_index: int = 0,
) -> RunRecord:
    """Full drain-vortex run; N*(T+1) objective evaluations."""
    params.validate()
    rng = RngStream(seed)
    started = time.perf_counter()
    state = _reference_initialize(problem, params, rng)
    trace = np.empty(params.iterations)
    for s in range(params.iterations):
        batch = Batch((problem,), (rng,))
        drive(engine.sweep(state, s, params, batch), batch)
        trace[s] = float(state.drain_fitness[0])  # was state.best_value
    walltime_ms = (time.perf_counter() - started) * 1e3
    return build_record(
        algorithm=algorithm,
        problem=problem,
        run_index=run_index,
        seed=seed,
        best_position=state.drains[0],  # was state.best_position
        best_value=float(state.drain_fitness[0]),  # was state.best_value
        trace=trace,
        evaluations=params.n_agents * (params.iterations + 1),  # was state.evaluations
        walltime_ms=walltime_ms,
        checkpoint_iters=checkpoints,
    )


def _linear(start, end, t, total):
    return start + (end - start) * t / (total - 1)


def _init(problem, n, rng):
    lo, hi = problem.lower, problem.upper
    positions = lo + rng.random((n, lo.size)) * (hi - lo)
    return positions, benchmarks.evaluate(problem, positions, rng)


class _Runner:
    """Shared bookkeeping: best-so-far tracking, trace, record assembly."""

    def __init__(self, algorithm, problem, config: BaselineConfig, seed, checkpoints, run_index):
        self.algorithm = algorithm
        self.problem = problem
        self.config = config
        self.seed = seed
        self.checkpoints = checkpoints
        self.run_index = run_index
        self.rng = RngStream(seed)
        self.started = time.perf_counter()
        self.trace = np.empty(config.iterations)
        self.evaluations = 0
        self.best_position = None
        self.best_value = np.inf

    def observe(self, positions, fitness):
        self.evaluations += len(fitness)
        i = int(np.argmin(fitness))
        # the first batch always sets a position, even if every value is inf
        if self.best_position is None or fitness[i] < self.best_value:
            self.best_value = float(fitness[i])
            self.best_position = positions[i].copy()

    def record(self) -> RunRecord:
        walltime_ms = (time.perf_counter() - self.started) * 1e3
        return build_record(
            algorithm=self.algorithm,
            problem=self.problem,
            run_index=self.run_index,
            seed=self.seed,
            best_position=self.best_position,
            best_value=self.best_value,
            trace=self.trace,
            evaluations=self.evaluations,
            walltime_ms=walltime_ms,
            checkpoint_iters=self.checkpoints,
        )


def _reference_run_pso(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Global-best PSO with linear inertia schedule and velocity clamping."""
    p = config.resolved()
    n, total = config.n_agents, config.iterations
    state = _Runner("pso", problem, config, seed, checkpoints, run_index)
    rng = state.rng
    lo, hi = problem.lower, problem.upper
    v_max = p["v_frac"] * (hi - lo)

    positions, fitness = _init(problem, n, rng)
    state.observe(positions, fitness)
    velocity = np.zeros_like(positions)
    pbest = positions.copy()
    pbest_fit = fitness.copy()
    g = int(np.argmin(pbest_fit))
    gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

    for t in range(total):
        w = _linear(p["w_start"], p["w_end"], t, total)
        r1 = rng.random((n, lo.size))
        r2 = rng.random((n, lo.size))
        velocity = (
            w * velocity
            + p["c1"] * r1 * (pbest - positions)
            + p["c2"] * r2 * (gbest - positions)
        )
        velocity = np.clip(velocity, -v_max, v_max)
        positions = np.clip(positions + velocity, lo, hi)
        fitness = benchmarks.evaluate(problem, positions, state.rng)
        state.observe(positions, fitness)
        better = fitness < pbest_fit
        pbest[better] = positions[better]
        pbest_fit[better] = fitness[better]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])
        state.trace[t] = state.best_value
    return state.record()


def _reference_run_gwo(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Grey wolf optimizer: three-leader average with a linear a-schedule.

    Leaders are the three best of the current population each sweep.
    """
    p = config.resolved()
    n, total = config.n_agents, config.iterations
    state = _Runner("gwo", problem, config, seed, checkpoints, run_index)
    rng = state.rng
    lo, hi = problem.lower, problem.upper
    d = lo.size

    positions, fitness = _init(problem, n, rng)
    state.observe(positions, fitness)

    for t in range(total):
        a = _linear(p["a_start"], p["a_end"], t, total)
        leaders = positions[np.argsort(fitness, kind="stable")[:3]]
        pulls = np.empty((3, n, d))
        for j in range(3):
            r1 = rng.random((n, d))
            r2 = rng.random((n, d))
            coeff_a = 2.0 * a * r1 - a
            coeff_c = 2.0 * r2
            pulls[j] = leaders[j] - coeff_a * np.abs(coeff_c * leaders[j] - positions)
        positions = np.clip(pulls.mean(axis=0), lo, hi)
        fitness = benchmarks.evaluate(problem, positions, state.rng)
        state.observe(positions, fitness)
        state.trace[t] = state.best_value
    return state.record()


def _reference_run_woa(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Whale optimization: encircle/spiral alternation at probability 0.5.

    Per agent and sweep: branch choice p, scalar A = 2 a r - a deciding
    encircling (|A| < 1, toward the best-so-far) versus search (random
    agent), per-dimension C, and a scalar spiral parameter l ~ U(-1, 1).
    """
    p = config.resolved()
    n, total = config.n_agents, config.iterations
    state = _Runner("woa", problem, config, seed, checkpoints, run_index)
    rng = state.rng
    lo, hi = problem.lower, problem.upper
    d = lo.size

    positions, fitness = _init(problem, n, rng)
    state.observe(positions, fitness)
    leader = state.best_position.copy()

    for t in range(total):
        a = _linear(p["a_start"], p["a_end"], t, total)
        branch = rng.random(n)
        coeff_a = 2.0 * a * rng.random(n) - a
        coeff_c = 2.0 * rng.random((n, d))
        ell = rng.uniform(-1.0, 1.0, n)
        partners = (rng.random(n) * n).astype(int)

        new_positions = np.empty_like(positions)
        spiral = branch >= 0.5
        if spiral.any():
            new_positions[spiral] = _woa_spiral(
                positions[spiral], leader, ell[spiral], p["spiral_pitch"]
            )
        chase = ~spiral
        encircle = chase & (np.abs(coeff_a) < 1.0)
        search = chase & ~encircle
        if encircle.any():
            gap = np.abs(coeff_c[encircle] * leader - positions[encircle])
            new_positions[encircle] = leader - coeff_a[encircle, None] * gap
        if search.any():
            ref = positions[partners[search]]
            gap = np.abs(coeff_c[search] * ref - positions[search])
            new_positions[search] = ref - coeff_a[search, None] * gap

        positions = np.clip(new_positions, lo, hi)
        fitness = benchmarks.evaluate(problem, positions, state.rng)
        state.observe(positions, fitness)
        leader = state.best_position.copy()
        state.trace[t] = state.best_value
    return state.record()


def _reference_run_sca(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Sine-cosine algorithm against the best of a small elite archive."""
    p = config.resolved()
    n_elites = 2  # was int(p["n_elites"])
    if n_elites < 1:
        raise ConfigError(["sca: n_elites must be >= 1"])
    n, total = config.n_agents, config.iterations
    state = _Runner("sca", problem, config, seed, checkpoints, run_index)
    rng = state.rng
    lo, hi = problem.lower, problem.upper
    d = lo.size

    positions, fitness = _init(problem, n, rng)
    state.observe(positions, fitness)
    order = np.argsort(fitness, kind="stable")[:n_elites]
    elites = positions[order].copy()
    elite_fit = fitness[order].copy()

    for t in range(total):
        r1 = _linear(p["amplitude"], 0.0, t, total)
        r2 = rng.uniform(0.0, 2.0 * np.pi, (n, d))
        r3 = rng.uniform(0.0, 2.0, (n, d))
        r4 = rng.random((n, d))
        dest = elites[0]
        gap = np.abs(r3 * dest - positions)
        sin_move = positions + r1 * np.sin(r2) * gap
        cos_move = positions + r1 * np.cos(r2) * gap
        positions = np.clip(np.where(r4 < 0.5, sin_move, cos_move), lo, hi)
        fitness = benchmarks.evaluate(problem, positions, state.rng)
        state.observe(positions, fitness)
        merged = np.concatenate([elites, positions], axis=0)
        merged_fit = np.concatenate([elite_fit, fitness])
        order = np.argsort(merged_fit, kind="stable")[:n_elites]
        elites, elite_fit = merged[order].copy(), merged_fit[order].copy()
        state.trace[t] = state.best_value
    return state.record()


def _reference_run_aoa(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Arithmetic optimization: mul/div exploration, add/sub exploitation,
    gated by an accelerated schedule rising linearly over [0.1, 0.9]."""
    p = config.resolved()
    n, total = config.n_agents, config.iterations
    state = _Runner("aoa", problem, config, seed, checkpoints, run_index)
    rng = state.rng
    lo, hi = problem.lower, problem.upper
    d = lo.size
    eps = np.finfo(float).eps
    scaled = p["mu"] * (hi - lo) + lo

    positions, fitness = _init(problem, n, rng)
    state.observe(positions, fitness)

    for t in range(total):
        moa = _linear(p["moa_start"], p["moa_end"], t, total)
        mop = 1.0 - (t / total) ** (1.0 / p["mop_power"])
        best = state.best_position
        r1 = rng.random((n, d))
        r2 = rng.random((n, d))
        r3 = rng.random((n, d))
        explore = r1 > moa
        div_move = best / (mop + eps) * scaled
        mul_move = best * mop * scaled
        sub_move = best - mop * scaled
        add_move = best + mop * scaled
        exploring = np.where(r2 < 0.5, div_move, mul_move)
        exploiting = np.where(r3 < 0.5, sub_move, add_move)
        positions = np.clip(np.where(explore, exploring, exploiting), lo, hi)
        fitness = benchmarks.evaluate(problem, positions, state.rng)
        state.observe(positions, fitness)
        state.trace[t] = state.best_value
    return state.record()


def _reference_run_eo(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Equilibrium optimizer: four running-best candidates plus their mean
    form the pool; concentrations relax toward a random pool member with
    exponential mixing and an occasionally active generation term."""
    p = config.resolved()
    n, total = config.n_agents, config.iterations
    state = _Runner("eo", problem, config, seed, checkpoints, run_index)
    rng = state.rng
    lo, hi = problem.lower, problem.upper
    d = lo.size

    positions, fitness = _init(problem, n, rng)
    state.observe(positions, fitness)
    order = np.argsort(fitness, kind="stable")[:4]
    eq_positions = positions[order].copy()
    eq_fitness = fitness[order].copy()
    old_positions = positions.copy()
    old_fitness = fitness.copy()

    for t in range(total):
        pool = np.concatenate([eq_positions, eq_positions.mean(axis=0, keepdims=True)])
        t_relax = (1.0 - t / total) ** (p["a2"] * t / total)
        picks = (rng.random(n) * len(pool)).astype(int)
        ceq = pool[picks]
        lam = rng.random((n, d))
        r = rng.random((n, d))
        mix = p["a1"] * np.sign(r - 0.5) * (np.exp(-lam * t_relax) - 1.0)
        r1 = rng.random(n)
        r2 = rng.random(n)
        gcp = np.where(r2 >= p["gp"], 0.5 * r1, 0.0)[:, None]
        g0 = gcp * (ceq - lam * positions)
        positions = ceq + (positions - ceq) * mix + (g0 * mix / lam) * (1.0 - mix)
        positions = np.clip(positions, lo, hi)
        fitness = benchmarks.evaluate(problem, positions, state.rng)
        state.observe(positions, fitness)

        # running-best pool update (stable: earlier entries win ties)
        merged = np.concatenate([eq_positions, positions], axis=0)
        merged_fit = np.concatenate([eq_fitness, fitness])
        order = np.argsort(merged_fit, kind="stable")[:4]
        eq_positions, eq_fitness = merged[order].copy(), merged_fit[order].copy()

        # particle memory: revert agents that got worse
        worse = fitness > old_fitness
        positions[worse] = old_positions[worse]
        fitness[worse] = old_fitness[worse]
        old_positions = positions.copy()
        old_fitness = fitness.copy()
        state.trace[t] = state.best_value
    return state.record()


REFERENCE_BASELINES = {
    "pso": _reference_run_pso,
    "gwo": _reference_run_gwo,
    "woa": _reference_run_woa,
    "sca": _reference_run_sca,
    "aoa": _reference_run_aoa,
    "eo": _reference_run_eo,
}

# ---------------------------------------------------------------------------
# inputs and comparisons
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2, 3)
CHECKPOINTS = (1, 7, 20, 30)
DVO_NAMES = ("dvo",) + tuple(f"dvo:{v}" for v in engine.ABLATION_VARIANTS)


def _nan_half(x):
    return math.nan if x[0] > 0.5 else float(np.sum(x * x))


def catalog_problem(name, dim=None):
    problem = benchmarks.get_problem(name, dim)
    if problem.constrained:
        problem = benchmarks.penalize(problem)
    return problem


PROBLEMS = {
    # F6 has plateaus, so equal values at different points are common
    "F6-d10": lambda: catalog_problem("F6", 10),
    "F7-d5": lambda: catalog_problem("F7", 5),
    "F9-d6": lambda: catalog_problem("F9", 6),
    "welded_beam": lambda: catalog_problem("welded_beam"),
    # eleven constraints
    "speed_reducer": lambda: catalog_problem("speed_reducer"),
    # a box whose lower bound is 0.0
    "three_bar_truss": lambda: catalog_problem("three_bar_truss"),
    "nan-half": lambda: benchmarks.ProblemSpec(
        name="nan-half", dim=2, lower=np.zeros(2), upper=np.ones(2), objective=_nan_half
    ),
}


def _bytes(value):
    if value is None or isinstance(value, str):
        return repr(value).encode()
    if isinstance(value, dict):
        return b"".join(_bytes(k) + _bytes(v) for k, v in sorted(value.items()))
    return type(value).__name__.encode() + np.asarray(value).tobytes()


def assert_same_record(got: RunRecord, want: RunRecord):
    for name in RunRecord.__dataclass_fields__:
        if name != "walltime_ms":
            assert _bytes(getattr(got, name)) == _bytes(getattr(want, name)), name


def dvo_params(name):
    params = DvoParams(n_agents=12, n_drains=4, iterations=30)
    return replace(params, **ABLATION_VARIANTS[name.split(":")[1]]) if ":" in name else params


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(PROBLEMS))
@pytest.mark.parametrize("name", DVO_NAMES)
def test_dvo_records_bitwise(name, case):
    problem = PROBLEMS[case]()
    params = dvo_params(name)
    for seed in SEEDS:
        kwargs = dict(seed=seed, checkpoints=CHECKPOINTS, algorithm=name, run_index=seed)
        got = engine.run(problem, params, **kwargs)
        assert_same_record(got, _reference_run(problem, params, **kwargs))


@pytest.mark.parametrize("case", sorted(PROBLEMS))
@pytest.mark.parametrize("algorithm", sorted(BASELINES))
def test_baseline_records_bitwise(algorithm, case):
    problem = PROBLEMS[case]()
    config = BaselineConfig(algorithm=algorithm, n_agents=12, iterations=30)
    for seed in SEEDS:
        kwargs = dict(checkpoints=CHECKPOINTS, run_index=seed)
        got = BASELINES[algorithm](problem, config, seed, **kwargs)
        assert_same_record(got, REFERENCE_BASELINES[algorithm](problem, config, seed, **kwargs))


def test_inputs_reach_ties_and_inf():
    # F6 plateaus give ties between agents, and the NaN plugin gives inf
    # values, in the batches that the best-so-far rules read
    fitness = benchmarks.evaluate(PROBLEMS["F6-d10"](), np.full((2, 10), 0.2), RngStream(0))
    assert fitness[0] == fitness[1]
    nan = benchmarks.evaluate(PROBLEMS["nan-half"](), np.array([[0.9, 0.1]]), RngStream(0))
    assert nan[0] == np.inf

"""Baseline optimizers sharing the RunRecord contract: PSO, GWO, WOA, SCA,
AOA (arithmetic), and EO. All use componentwise clipping, evaluate the full
population every sweep (N*(T+1) evaluations), and record the best-so-far
value after each sweep."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import benchmarks
from .errors import ConfigError
from .records import DEFAULT_CHECKPOINTS, RunRecord, build_record
from .rng import RngStream

Array = np.ndarray

DEFAULT_PARAMS = {
    "pso": dict(w_start=0.9, w_end=0.4, c1=2.0, c2=2.0, v_frac=0.2),
    "gwo": dict(a_start=2.0, a_end=0.0),
    "woa": dict(a_start=2.0, a_end=0.0, spiral_pitch=1.0),
    "sca": dict(amplitude=2.0, n_elites=2),
    "aoa": dict(moa_start=0.1, moa_end=0.9, mop_power=5.0, mu=0.499),
    "eo": dict(a1=2.0, a2=1.0, gp=0.5),
}


@dataclass(frozen=True)
class BaselineConfig:
    """Population size, sweep count, and the algorithm's parameter block
    (unknown keys rejected, missing keys filled from defaults)."""

    algorithm: str
    n_agents: int = 30
    iterations: int = 1000
    params: Mapping = field(default_factory=dict)

    def resolved(self) -> dict:
        defaults = DEFAULT_PARAMS.get(self.algorithm)
        if defaults is None:
            raise ConfigError([f"unknown baseline algorithm {self.algorithm!r}"])
        bad = [
            f"{self.algorithm}: unknown parameter {key!r}"
            for key in self.params
            if key not in defaults
        ]
        if self.n_agents < 2:
            bad.append(f"n_agents must be >= 2, got {self.n_agents}")
        if self.iterations < 2:
            bad.append(f"iterations must be >= 2, got {self.iterations}")
        if bad:
            raise ConfigError(bad)
        return {**defaults, **dict(self.params)}


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


def run_pso(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
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


def run_gwo(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
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


def _woa_spiral(positions, best, ell, pitch):
    """Logarithmic spiral toward the leader: |best-x| e^(b l) cos(2 pi l) + best."""
    gap = np.abs(best - positions)
    shape = (np.exp(pitch * ell) * np.cos(2.0 * np.pi * ell))[:, None]
    return gap * shape + best


def run_woa(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
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


def run_sca(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """Sine-cosine algorithm against the best of a small elite archive."""
    p = config.resolved()
    n_elites = int(p["n_elites"])
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


def run_aoa(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
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


def run_eo(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
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


BASELINES = {
    "pso": run_pso,
    "gwo": run_gwo,
    "woa": run_woa,
    "sca": run_sca,
    "aoa": run_aoa,
    "eo": run_eo,
}

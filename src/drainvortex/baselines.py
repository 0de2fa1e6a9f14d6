"""Baseline optimizers sharing the RunRecord contract: PSO, GWO, WOA, SCA,
AOA (arithmetic), and EO. `run_baseline` runs the one `config.algorithm`
names through `engine.run_optimizer`, and each supplies only its pair in
`_OPTIMIZERS`: an init that builds its `Swarm` state and a module-level sweep
that advances it. All use componentwise clipping, evaluate the full
population every sweep (N*(T+1) evaluations), and report as best so far the
first strict minimum over the evaluated batches (`Swarm.observe`), which is
also the leader of woa and aoa and the destination of sca. Only pso (its
velocities and personal bests) and eo (its equilibrium pool) keep memory
arrays, in a `Swarm` subclass."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import benchmarks
from .engine import BOUNDS, k_best, parameter_problems, run_optimizer
from .engine import selection_pressure as linear_ramp
from .errors import ConfigError, shown

# records are built by `engine.run_optimizer`; `build_record` stays bound here
# because the span tracer in perfbench/tracing.py patches `baselines.build_record`
from .records import DEFAULT_CHECKPOINTS, build_record  # noqa: F401

DEFAULT_PARAMS = {
    "pso": dict(w_start=0.9, w_end=0.4, c1=2.0, c2=2.0, v_frac=0.2),
    "gwo": dict(a_start=2.0, a_end=0.0),
    "woa": dict(a_start=2.0, a_end=0.0, spiral_pitch=1.0),
    "sca": dict(amplitude=2.0),
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
        """The full parameter block, defaults overridden by `params`. Raises
        ConfigError listing every problem of the sizes and of the block."""
        defaults = DEFAULT_PARAMS.get(self.algorithm)
        if defaults is None:
            raise ConfigError([f"unknown algorithm {shown(self.algorithm)}"])
        sizes = {"n_agents": self.n_agents, "iterations": self.iterations}
        # gwo pulls every agent toward the three best agents
        bounds = {**BOUNDS, "n_agents": "[3, inf)"} if self.algorithm == "gwo" else BOUNDS
        bad = [
            *parameter_problems(sizes, {k: getattr(BaselineConfig, k) for k in sizes}, bounds)[0],
            *parameter_problems(self.params, defaults)[0],
        ]
        if bad:
            raise ConfigError(bad)
        return {**defaults, **self.params}


@dataclass
class Swarm:
    """A baseline's state between sweeps: the population, its fitness and
    the best so far, which is the first strict minimum over the evaluated
    batches (the first batch always sets a position, even if every value is
    inf). An algorithm with memory arrays subclasses it."""

    positions: np.ndarray
    fitness: np.ndarray
    best_position: np.ndarray
    best_value: float

    @classmethod
    def init(cls, positions, fitness, config, **memory):
        """State from the evaluated initial population and any memory arrays."""
        i = int(np.argmin(fitness))
        return cls(positions, fitness, positions[i].copy(), float(fitness[i]), **memory)

    def observe(self, positions, fitness):
        """Take one evaluated batch as the population; returns the sweep's
        report for the driver."""
        self.positions, self.fitness = positions, fitness
        i = int(fitness.argmin())
        if fitness[i] < self.best_value:
            self.best_position, self.best_value = positions[i].copy(), float(fitness[i])
        return fitness.size, self.best_position, self.best_value


def run_baseline(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """One seeded run of the baseline `config.algorithm`, as a RunRecord."""
    settings = replace(config, params=config.resolved())
    init, sweep = _OPTIMIZERS[config.algorithm]
    return run_optimizer(problem, init, sweep, settings, seed, config.algorithm, checkpoints, run_index)


@dataclass
class _Particles(Swarm):
    """pso's state: each agent's velocity and personal best. The global best
    is the best so far: a new strict minimum of the personal bests first
    appears in a batch, at the first agent of the batch that reaches it."""

    velocity: np.ndarray
    pbest: np.ndarray
    pbest_fit: np.ndarray

    @classmethod
    def init(cls, positions, fitness, config):
        memory = dict(velocity=np.zeros_like(positions), pbest=positions.copy(), pbest_fit=fitness.copy())
        return super().init(positions, fitness, config, **memory)


def _sweep_pso(s: _Particles, t, config, problem, rng):
    """Global-best PSO with linear inertia schedule and velocity clamping."""
    p = config.params
    lo, hi = problem.lower, problem.upper
    v_max = p["v_frac"] * (hi - lo)
    w = linear_ramp(t, config.iterations, p["w_start"], p["w_end"])
    r1, r2 = rng.random((2, *s.positions.shape))
    velocity = (
        w * s.velocity
        + p["c1"] * r1 * (s.pbest - s.positions)
        + p["c2"] * r2 * (s.best_position - s.positions)
    )
    s.velocity = np.clip(velocity, -v_max, v_max)
    positions = np.clip(s.positions + s.velocity, lo, hi)
    fitness = benchmarks.evaluate(problem, positions, rng)
    better = fitness < s.pbest_fit
    np.copyto(s.pbest, positions, where=better[:, None])
    np.copyto(s.pbest_fit, fitness, where=better)
    return s.observe(positions, fitness)


def _sweep_gwo(s: Swarm, t, config, problem, rng):
    """Grey wolf optimizer: three-leader average with a linear a-schedule.

    Leaders are the three best of the current population each sweep.
    """
    p = config.params
    n, d = s.positions.shape
    a = linear_ramp(t, config.iterations, p["a_start"], p["a_end"])
    leaders = k_best(s.positions, s.fitness, 3)[0][:, None]
    # leader j's r1 and r2 blocks, in the order a loop over the leaders drew them
    r = rng.random((3, 2, n, d))
    coeff_a = 2.0 * a * r[:, 0] - a
    coeff_c = 2.0 * r[:, 1]
    pulls = leaders - coeff_a * np.abs(coeff_c * leaders - s.positions)
    positions = np.clip(pulls.mean(axis=0), problem.lower, problem.upper)
    return s.observe(positions, benchmarks.evaluate(problem, positions, rng))


def _woa_spiral(positions, best, ell, pitch):
    """Logarithmic spiral toward the leader: |best-x| e^(b l) cos(2 pi l) + best."""
    gap = np.abs(best - positions)
    shape = (np.exp(pitch * ell) * np.cos(2.0 * np.pi * ell))[:, None]
    return gap * shape + best


def _sweep_woa(s: Swarm, t, config, problem, rng):
    """Whale optimization: encircle/spiral alternation at probability 0.5.

    Per agent and sweep: branch choice p, scalar A = 2 a r - a deciding
    encircling (|A| < 1, toward the best-so-far) versus search (random
    agent), per-dimension C, and a scalar spiral parameter l ~ U(-1, 1).
    """
    p = config.params
    positions = s.positions
    n, d = positions.shape
    leader = s.best_position
    a = linear_ramp(t, config.iterations, p["a_start"], p["a_end"])
    branch, r = rng.random((2, n))
    coeff_a = 2.0 * a * r - a
    coeff_c = 2.0 * rng.random((n, d))
    ell = rng.uniform(-1.0, 1.0, n)
    partners = (rng.random(n) * n).astype(int)

    new_positions = np.empty_like(positions)
    is_spiral = branch >= 0.5
    near = np.abs(coeff_a) < 1.0
    spiral = is_spiral.nonzero()[0]
    encircle = (~is_spiral & near).nonzero()[0]
    search = (~is_spiral & ~near).nonzero()[0]
    if spiral.size:
        new_positions[spiral] = _woa_spiral(
            positions.take(spiral, 0), leader, ell.take(spiral), p["spiral_pitch"]
        )
    if encircle.size:
        gap = np.abs(coeff_c.take(encircle, 0) * leader - positions.take(encircle, 0))
        new_positions[encircle] = leader - coeff_a.take(encircle)[:, None] * gap
    if search.size:
        ref = positions.take(partners.take(search), 0)
        gap = np.abs(coeff_c.take(search, 0) * ref - positions.take(search, 0))
        new_positions[search] = ref - coeff_a.take(search)[:, None] * gap

    positions = np.clip(new_positions, problem.lower, problem.upper)
    return s.observe(positions, benchmarks.evaluate(problem, positions, rng))


def _sweep_sca(s: Swarm, t, config, problem, rng):
    """Sine-cosine algorithm: each agent moves by a sine or a cosine step
    around the destination point, the best so far."""
    p = config.params
    shape = s.positions.shape
    r1 = linear_ramp(t, config.iterations, p["amplitude"], 0.0)
    r2 = rng.uniform(0.0, 2.0 * np.pi, shape)
    r3 = rng.uniform(0.0, 2.0, shape)
    r4 = rng.random(shape)
    gap = np.abs(r3 * s.best_position - s.positions)
    wave = np.where(r4 < 0.5, np.sin(r2), np.cos(r2))
    positions = np.clip(s.positions + r1 * wave * gap, problem.lower, problem.upper)
    return s.observe(positions, benchmarks.evaluate(problem, positions, rng))


def _sweep_aoa(s: Swarm, t, config, problem, rng):
    """Arithmetic optimization: mul/div exploration, add/sub exploitation,
    gated by an accelerated schedule rising linearly over [0.1, 0.9]."""
    p = config.params
    lo, hi = problem.lower, problem.upper
    shape = s.positions.shape
    eps = np.finfo(float).eps
    scaled = p["mu"] * (hi - lo) + lo
    moa = linear_ramp(t, config.iterations, p["moa_start"], p["moa_end"])
    mop = 1.0 - (t / config.iterations) ** (1.0 / p["mop_power"])
    best = s.best_position
    r1, r2, r3 = rng.random((3, *shape))
    explore = r1 > moa
    div_move = best / (mop + eps) * scaled
    mul_move = best * mop * scaled
    sub_move = best - mop * scaled
    add_move = best + mop * scaled
    exploring = np.where(r2 < 0.5, div_move, mul_move)
    exploiting = np.where(r3 < 0.5, sub_move, add_move)
    positions = np.clip(np.where(explore, exploring, exploiting), lo, hi)
    return s.observe(positions, benchmarks.evaluate(problem, positions, rng))


@dataclass
class _Equilibrium(Swarm):
    """eo's state: the equilibrium pool, the four best points evaluated so
    far, best first."""

    elites: np.ndarray
    elite_fit: np.ndarray

    @classmethod
    def init(cls, positions, fitness, config):
        elites, elite_fit = k_best(positions, fitness, 4)
        return super().init(positions, fitness, config, elites=elites, elite_fit=elite_fit)


def _sweep_eo(s: _Equilibrium, t, config, problem, rng):
    """Equilibrium optimizer: four running-best candidates plus their mean
    form the pool; concentrations relax toward a random pool member with
    exponential mixing and an occasionally active generation term. An agent
    that got worse returns to where it was."""
    p = config.params
    old_positions, old_fitness = s.positions, s.fitness
    n, d = old_positions.shape
    pool = np.concatenate([s.elites, s.elites.mean(axis=0, keepdims=True)])
    t_relax = (1.0 - t / config.iterations) ** (p["a2"] * t / config.iterations)
    picks = (rng.random(n) * len(pool)).astype(int)
    ceq = pool.take(picks, 0)
    lam, r = rng.random((2, n, d))
    mix = p["a1"] * np.sign(r - 0.5) * (np.exp(-lam * t_relax) - 1.0)
    r1, r2 = rng.random((2, n))
    gcp = np.where(r2 >= p["gp"], 0.5 * r1, 0.0)[:, None]
    g0 = gcp * (ceq - lam * old_positions)
    positions = ceq + (old_positions - ceq) * mix + (g0 * mix / lam) * (1.0 - mix)
    positions = np.clip(positions, problem.lower, problem.upper)
    fitness = benchmarks.evaluate(problem, positions, rng)
    report = s.observe(positions, fitness)
    s.elites, s.elite_fit = k_best(
        np.concatenate([s.elites, positions]), np.concatenate([s.elite_fit, fitness]), 4
    )
    worse = fitness > old_fitness
    np.copyto(positions, old_positions, where=worse[:, None])
    np.copyto(fitness, old_fitness, where=worse)
    return report


# each baseline as the pair `run_optimizer` drives: init(positions, fitness,
# config) -> state, and sweep(state, t, config, problem, rng) -> (evaluated,
# best position, best value); `config.params` is the resolved block
_OPTIMIZERS = {
    "pso": (_Particles.init, _sweep_pso),
    "gwo": (Swarm.init, _sweep_gwo),
    "woa": (Swarm.init, _sweep_woa),
    "sca": (Swarm.init, _sweep_sca),
    "aoa": (Swarm.init, _sweep_aoa),
    "eo": (_Equilibrium.init, _sweep_eo),
}

# the catalog of baseline names; every entry is the one runner, which runs
# `config.algorithm` (perfbench/tracing.py wraps each entry on its own)
BASELINES = dict.fromkeys(_OPTIMIZERS, run_baseline)

"""Baseline optimizers sharing the RunRecord contract: PSO, GWO, WOA, SCA,
AOA (arithmetic), and EO. `engine.run_optimizer` drives each through its
pair in `OPTIMIZERS`: an init that builds its `Swarm` state and a
module-level sweep that advances it; `run_baseline` runs the one
`config.algorithm` names alone. A sweep is a generator: it yields its
clipped population once, where it needs the objective values, receives them
from the driver and returns its report. All use componentwise clipping,
evaluate the full population every sweep (N*(T+1) evaluations), and report
as best so far the first strict minimum over the evaluated batches
(`Swarm.observe`), which is also the leader of woa and aoa and the
destination of sca. Only pso (its velocities and personal bests) and eo
(its equilibrium pool) keep memory arrays, in a `Swarm` subclass.

A state holds every run of an `engine.Batch` in the batch's stacked shape,
`(R, n, d)` for R runs and `(n, d)` for a run alone (eo's pool has 4 rows
per run), so every formula is written once, against the batch's boxes.
Each run draws from its own stream, site by site, the block it draws alone
(`Batch.each`), in the order of its sweep's code, and gets its own
problem's values."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .engine import BOUNDS, Group, k_best, parameter_problems, run_optimizer
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
    """A baseline's state between sweeps, in the batch's stacked shape
    (`(R, n, d)` for R runs, `(n, d)` for a run alone): the population and
    its fitness, each run's best so far as a one-agent population
    `best_position` (`(R, 1, d)` or `(1, d)`), which broadcasts against the
    population, and its value, one entry per run of `best_value` `(R,)`. A
    run's best so far is the first strict minimum over its evaluated
    batches (the first batch always sets a position, even if every value is
    inf). An algorithm with memory arrays subclasses it."""

    positions: np.ndarray
    fitness: np.ndarray
    best_position: np.ndarray
    best_value: np.ndarray

    @classmethod
    def init(cls, positions, fitness, config, **memory):
        """State from the evaluated initial population and any memory arrays."""
        n, d = positions.shape[-2:]
        first = fitness.reshape(-1, n).argmin(axis=1) + np.arange(0, fitness.size, n)
        best = positions.reshape(-1, d)[first].reshape(*fitness.shape[:-1], 1, d)
        return cls(positions, fitness, best, fitness.reshape(-1)[first], **memory)

    def observe(self, positions, fitness):
        """Take one evaluated batch as the population; returns the sweep's
        report for the driver."""
        self.positions, self.fitness = positions, fitness
        n, d = positions.shape[-2:]
        # each run's agents are a slice of the flat values, read with no gather
        values = fitness.reshape(-1)
        for run, start in enumerate(range(0, values.size, n)):
            i = start + int(values[start : start + n].argmin())
            if values[i] < self.best_value[run]:
                self.best_position.reshape(-1, d)[run] = positions.reshape(-1, d)[i]
                self.best_value[run] = values[i]
        return n, self.best_position, self.best_value


def run_baseline(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """One seeded run of the baseline `config.algorithm`, as a RunRecord."""
    settings = replace(config, params=config.resolved())
    runs = [(problem, seed, run_index)]
    group = Group(config.algorithm, *OPTIMIZERS[config.algorithm], settings, runs)
    return run_optimizer([group], checkpoints)[0]


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


def _sweep_pso(s: _Particles, t, config, batch):
    """Global-best PSO with linear inertia schedule and velocity clamping."""
    p = config.params
    lo, hi = batch.lower, batch.upper
    positions = s.positions
    v_max = p["v_frac"] * (hi - lo)
    w = linear_ramp(t, config.iterations, p["w_start"], p["w_end"])
    r = batch.each("random", (2, *positions.shape[-2:]))
    velocity = (
        w * s.velocity
        + p["c1"] * r[..., 0, :, :] * (s.pbest - positions)
        + p["c2"] * r[..., 1, :, :] * (s.best_position - positions)
    )
    s.velocity = np.clip(velocity, -v_max, v_max)
    positions = np.clip(positions + s.velocity, lo, hi)
    fitness = yield positions
    better = fitness < s.pbest_fit
    np.copyto(s.pbest, positions, where=better[..., None])
    np.copyto(s.pbest_fit, fitness, where=better)
    return s.observe(positions, fitness)


def _sweep_gwo(s: Swarm, t, config, batch):
    """Grey wolf optimizer: three-leader average with a linear a-schedule.

    Leaders are the three best of each run's current population each sweep.
    """
    p = config.params
    positions = s.positions
    a = linear_ramp(t, config.iterations, p["a_start"], p["a_end"])
    leaders = k_best(positions, s.fitness, 3)[0][..., None, :]
    # leader j's r1 and r2 blocks, in the order a loop over the leaders drew them
    r = batch.each("random", (3, 2, *positions.shape[-2:]))
    coeff_a = 2.0 * a * r[..., 0, :, :] - a
    coeff_c = 2.0 * r[..., 1, :, :]
    pulls = leaders - coeff_a * np.abs(coeff_c * leaders - positions[..., None, :, :])
    positions = np.clip(pulls.mean(axis=-3), batch.lower, batch.upper)
    return s.observe(positions, (yield positions))


def _woa_spiral(positions, best, ell, pitch):
    """Logarithmic spiral toward the leader: |best-x| e^(b l) cos(2 pi l) + best."""
    gap = np.abs(best - positions)
    shape = (np.exp(pitch * ell) * np.cos(2.0 * np.pi * ell))[..., None]
    return gap * shape + best


def _sweep_woa(s: Swarm, t, config, batch):
    """Whale optimization: encircle/spiral alternation at probability 0.5.

    Per agent and sweep: branch choice p, scalar A = 2 a r - a deciding
    encircling (|A| < 1, toward the best-so-far) versus search (random
    agent of its run), per-dimension C, and a scalar spiral parameter
    l ~ U(-1, 1). Every agent's three moves are worked out and its branch
    picks one.
    """
    p = config.params
    positions = s.positions
    n, d = positions.shape[-2:]
    a = linear_ramp(t, config.iterations, p["a_start"], p["a_end"])
    draws = batch.each("random", (2, n))
    branch, r = draws[..., 0, :], draws[..., 1, :]
    coeff_a = (2.0 * a * r - a)[..., None]
    coeff_c = 2.0 * batch.each("random", (n, d))
    ell = batch.each("uniform", -1.0, 1.0, n)
    partners = (batch.each("random", n) * n).astype(int)

    # encircling pulls toward the leader and search toward the partner, by one formula
    leader = s.best_position
    target = np.where(np.abs(coeff_a) < 1.0, leader, batch.pick(positions, partners))
    pulled = target - coeff_a * np.abs(coeff_c * target - positions)
    spiral = _woa_spiral(positions, leader, ell, p["spiral_pitch"])
    positions = np.where(branch[..., None] >= 0.5, spiral, pulled)
    positions = np.clip(positions, batch.lower, batch.upper)
    return s.observe(positions, (yield positions))


def _sweep_sca(s: Swarm, t, config, batch):
    """Sine-cosine algorithm: each agent moves by a sine or a cosine step
    around the destination point, its run's best so far."""
    p = config.params
    positions = s.positions
    shape = positions.shape[-2:]
    r1 = linear_ramp(t, config.iterations, p["amplitude"], 0.0)
    r2 = batch.each("uniform", 0.0, 2.0 * np.pi, shape)
    r3 = batch.each("uniform", 0.0, 2.0, shape)
    r4 = batch.each("random", shape)
    gap = np.abs(r3 * s.best_position - positions)
    wave = np.where(r4 < 0.5, np.sin(r2), np.cos(r2))
    positions = np.clip(positions + r1 * wave * gap, batch.lower, batch.upper)
    return s.observe(positions, (yield positions))


def _sweep_aoa(s: Swarm, t, config, batch):
    """Arithmetic optimization: mul/div exploration, add/sub exploitation,
    gated by an accelerated schedule rising linearly over [0.1, 0.9]."""
    p = config.params
    lo, hi = batch.lower, batch.upper
    eps = np.finfo(float).eps
    scaled = p["mu"] * (hi - lo) + lo
    moa = linear_ramp(t, config.iterations, p["moa_start"], p["moa_end"])
    mop = 1.0 - (t / config.iterations) ** (1.0 / p["mop_power"])
    best = s.best_position
    r = batch.each("random", (3, *s.positions.shape[-2:]))
    explore = r[..., 0, :, :] > moa
    div_move = best / (mop + eps) * scaled
    mul_move = best * mop * scaled
    sub_move = best - mop * scaled
    add_move = best + mop * scaled
    exploring = np.where(r[..., 1, :, :] < 0.5, div_move, mul_move)
    exploiting = np.where(r[..., 2, :, :] < 0.5, sub_move, add_move)
    positions = np.clip(np.where(explore, exploring, exploiting), lo, hi)
    return s.observe(positions, (yield positions))


@dataclass
class _Equilibrium(Swarm):
    """eo's state: each run's equilibrium pool, the four best points
    evaluated so far, best first (`(R, 4, d)` for R runs, `(4, d)` alone)."""

    elites: np.ndarray
    elite_fit: np.ndarray

    @classmethod
    def init(cls, positions, fitness, config):
        elites, elite_fit = k_best(positions, fitness, 4)
        return super().init(positions, fitness, config, elites=elites, elite_fit=elite_fit)


def _sweep_eo(s: _Equilibrium, t, config, batch):
    """Equilibrium optimizer: four running-best candidates plus their mean
    form the pool; concentrations relax toward a random pool member with
    exponential mixing and an occasionally active generation term. An agent
    that got worse returns to where it was."""
    p = config.params
    old_positions, old_fitness = s.positions, s.fitness
    n, d = old_positions.shape[-2:]
    elites = s.elites
    pool = np.concatenate([elites, elites.mean(axis=-2, keepdims=True)], axis=-2)
    t_relax = (1.0 - t / config.iterations) ** (p["a2"] * t / config.iterations)
    picks = (batch.each("random", n) * pool.shape[-2]).astype(int)
    ceq = batch.pick(pool, picks)
    r = batch.each("random", (2, n, d))
    lam = r[..., 0, :, :]
    mix = p["a1"] * np.sign(r[..., 1, :, :] - 0.5) * (np.exp(-lam * t_relax) - 1.0)
    u = batch.each("random", (2, n))
    gcp = np.where(u[..., 1, :] >= p["gp"], 0.5 * u[..., 0, :], 0.0)[..., None]
    g0 = gcp * (ceq - lam * old_positions)
    positions = ceq + (old_positions - ceq) * mix + (g0 * mix / lam) * (1.0 - mix)
    positions = np.clip(positions, batch.lower, batch.upper)
    fitness = yield positions
    report = s.observe(positions, fitness)
    s.elites, s.elite_fit = k_best(
        np.concatenate([elites, positions], axis=-2),
        np.concatenate([s.elite_fit, fitness], axis=-1),
        4,
    )
    worse = fitness > old_fitness
    np.copyto(positions, old_positions, where=worse[..., None])
    np.copyto(fitness, old_fitness, where=worse)
    return report


# each baseline as the pair `run_optimizer` drives: init(positions, fitness,
# config) -> state, and the generator sweep(state, t, config, batch), which
# yields its points, receives their values (both in the batch's stacked
# shape) and returns (evaluated per run, best positions, best values);
# `config.params` is the resolved block
OPTIMIZERS = {
    "pso": (_Particles.init, _sweep_pso),
    "gwo": (Swarm.init, _sweep_gwo),
    "woa": (Swarm.init, _sweep_woa),
    "sca": (Swarm.init, _sweep_sca),
    "aoa": (Swarm.init, _sweep_aoa),
    "eo": (_Equilibrium.init, _sweep_eo),
}

# the catalog of baseline names; every entry is the one runner, which runs
# `config.algorithm` (perfbench/tracing.py wraps each entry on its own)
BASELINES = dict.fromkeys(OPTIMIZERS, run_baseline)

"""Baseline optimizers sharing the RunRecord contract: PSO, GWO, WOA, SCA,
AOA (arithmetic), and EO. `run_baseline` runs the one `config.algorithm`
names through `engine.run_optimizer`, and each supplies only its start
function and per-sweep update. All use componentwise clipping, evaluate the
full population every sweep (N*(T+1) evaluations), and report as best so far
the first strict minimum over the evaluated batches."""

from __future__ import annotations

from dataclasses import dataclass, field
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
        """The full parameter block, defaults overridden by `params`. Raises
        ConfigError listing every problem of the sizes and of the block, each
        labelled with the algorithm."""
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
            raise ConfigError([f"{self.algorithm}: {entry}" for entry in bad])
        return {**defaults, **self.params}


class _BestSoFar:
    """First strict minimum over the evaluated batches; the first batch
    always sets a position, even if every value is inf."""

    def __init__(self, positions, fitness):
        i = int(np.argmin(fitness))
        self.position, self.value = positions[i].copy(), float(fitness[i])

    def observe(self, positions, fitness):
        """Take one evaluated batch; returns the sweep's report for the driver."""
        i = int(np.argmin(fitness))
        if fitness[i] < self.value:
            self.position, self.value = positions[i].copy(), float(fitness[i])
        return fitness.size, self.position, self.value


def run_baseline(problem, config, seed, checkpoints=DEFAULT_CHECKPOINTS, run_index=0):
    """One seeded run of the baseline `config.algorithm`, as a RunRecord."""
    params = config.resolved()
    start_algorithm = _STARTS[config.algorithm]

    def start(positions, fitness, rng):
        so_far = _BestSoFar(positions, fitness)
        return start_algorithm(params, config.iterations, problem, positions, fitness, rng, so_far)

    return run_optimizer(
        problem, start, config.n_agents, config.iterations, seed, config.algorithm, checkpoints, run_index
    )


def _start_pso(p, total, problem, positions, fitness, rng, so_far):
    """Global-best PSO with linear inertia schedule and velocity clamping."""
    n, d = positions.shape
    lo, hi = problem.lower, problem.upper
    v_max = p["v_frac"] * (hi - lo)
    velocity = np.zeros_like(positions)
    pbest = positions.copy()
    pbest_fit = fitness.copy()
    g = int(np.argmin(pbest_fit))
    gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])

    def sweep(t):
        nonlocal positions, velocity, gbest, gbest_fit
        w = linear_ramp(t, total, p["w_start"], p["w_end"])
        r1 = rng.random((n, d))
        r2 = rng.random((n, d))
        velocity = (
            w * velocity
            + p["c1"] * r1 * (pbest - positions)
            + p["c2"] * r2 * (gbest - positions)
        )
        velocity = np.clip(velocity, -v_max, v_max)
        positions = np.clip(positions + velocity, lo, hi)
        fitness = benchmarks.evaluate(problem, positions, rng)
        report = so_far.observe(positions, fitness)
        better = fitness < pbest_fit
        pbest[better] = positions[better]
        pbest_fit[better] = fitness[better]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest, gbest_fit = pbest[g].copy(), float(pbest_fit[g])
        return report

    return sweep


def _start_gwo(p, total, problem, positions, fitness, rng, so_far):
    """Grey wolf optimizer: three-leader average with a linear a-schedule.

    Leaders are the three best of the current population each sweep.
    """
    n, d = positions.shape
    lo, hi = problem.lower, problem.upper

    def sweep(t):
        nonlocal positions, fitness
        a = linear_ramp(t, total, p["a_start"], p["a_end"])
        leaders, _ = k_best(positions, fitness, 3)
        pulls = np.empty((3, n, d))
        for j in range(3):
            r1 = rng.random((n, d))
            r2 = rng.random((n, d))
            coeff_a = 2.0 * a * r1 - a
            coeff_c = 2.0 * r2
            pulls[j] = leaders[j] - coeff_a * np.abs(coeff_c * leaders[j] - positions)
        positions = np.clip(pulls.mean(axis=0), lo, hi)
        fitness = benchmarks.evaluate(problem, positions, rng)
        return so_far.observe(positions, fitness)

    return sweep


def _woa_spiral(positions, best, ell, pitch):
    """Logarithmic spiral toward the leader: |best-x| e^(b l) cos(2 pi l) + best."""
    gap = np.abs(best - positions)
    shape = (np.exp(pitch * ell) * np.cos(2.0 * np.pi * ell))[:, None]
    return gap * shape + best


def _start_woa(p, total, problem, positions, fitness, rng, so_far):
    """Whale optimization: encircle/spiral alternation at probability 0.5.

    Per agent and sweep: branch choice p, scalar A = 2 a r - a deciding
    encircling (|A| < 1, toward the best-so-far) versus search (random
    agent), per-dimension C, and a scalar spiral parameter l ~ U(-1, 1).
    """
    n, d = positions.shape
    lo, hi = problem.lower, problem.upper

    def sweep(t):
        nonlocal positions
        leader = so_far.position
        a = linear_ramp(t, total, p["a_start"], p["a_end"])
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
        return so_far.observe(positions, benchmarks.evaluate(problem, positions, rng))

    return sweep


def _start_sca(p, total, problem, positions, fitness, rng, so_far):
    """Sine-cosine algorithm against the best of a small elite archive."""
    n_elites = p["n_elites"]
    n, d = positions.shape
    lo, hi = problem.lower, problem.upper
    elites, elite_fit = k_best(positions, fitness, n_elites)

    def sweep(t):
        nonlocal positions, elites, elite_fit
        r1 = linear_ramp(t, total, p["amplitude"], 0.0)
        r2 = rng.uniform(0.0, 2.0 * np.pi, (n, d))
        r3 = rng.uniform(0.0, 2.0, (n, d))
        r4 = rng.random((n, d))
        dest = elites[0]
        gap = np.abs(r3 * dest - positions)
        sin_move = positions + r1 * np.sin(r2) * gap
        cos_move = positions + r1 * np.cos(r2) * gap
        positions = np.clip(np.where(r4 < 0.5, sin_move, cos_move), lo, hi)
        fitness = benchmarks.evaluate(problem, positions, rng)
        report = so_far.observe(positions, fitness)
        elites, elite_fit = k_best(
            np.concatenate([elites, positions]), np.concatenate([elite_fit, fitness]), n_elites
        )
        return report

    return sweep


def _start_aoa(p, total, problem, positions, fitness, rng, so_far):
    """Arithmetic optimization: mul/div exploration, add/sub exploitation,
    gated by an accelerated schedule rising linearly over [0.1, 0.9]."""
    n, d = positions.shape
    lo, hi = problem.lower, problem.upper
    eps = np.finfo(float).eps
    scaled = p["mu"] * (hi - lo) + lo

    def sweep(t):
        moa = linear_ramp(t, total, p["moa_start"], p["moa_end"])
        mop = 1.0 - (t / total) ** (1.0 / p["mop_power"])
        best = so_far.position
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
        return so_far.observe(positions, benchmarks.evaluate(problem, positions, rng))

    return sweep


def _start_eo(p, total, problem, positions, fitness, rng, so_far):
    """Equilibrium optimizer: four running-best candidates plus their mean
    form the pool; concentrations relax toward a random pool member with
    exponential mixing and an occasionally active generation term."""
    n, d = positions.shape
    lo, hi = problem.lower, problem.upper
    eq_positions, eq_fitness = k_best(positions, fitness, 4)
    old_positions = positions.copy()
    old_fitness = fitness.copy()

    def sweep(t):
        nonlocal positions, eq_positions, eq_fitness, old_positions, old_fitness
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
        fitness = benchmarks.evaluate(problem, positions, rng)
        report = so_far.observe(positions, fitness)

        # running-best pool update
        eq_positions, eq_fitness = k_best(
            np.concatenate([eq_positions, positions]), np.concatenate([eq_fitness, fitness]), 4
        )

        # particle memory: revert agents that got worse
        worse = fitness > old_fitness
        positions[worse] = old_positions[worse]
        fitness[worse] = old_fitness[worse]
        old_positions = positions.copy()
        old_fitness = fitness.copy()
        return report

    return sweep


# each baseline's start function: (params, iterations, problem, positions,
# fitness, rng, so_far) -> sweep(t)
_STARTS = {
    "pso": _start_pso,
    "gwo": _start_gwo,
    "woa": _start_woa,
    "sca": _start_sca,
    "aoa": _start_aoa,
    "eo": _start_eo,
}

# the catalog of baseline names; every entry is the one runner, which runs
# `config.algorithm` (perfbench/tracing.py wraps each entry on its own)
BASELINES = dict.fromkeys(_STARTS, run_baseline)

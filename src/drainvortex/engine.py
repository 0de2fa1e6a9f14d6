"""Drain-vortex optimizer and the run driver shared with the baselines.

A population of agents flows toward a small set of elite "drains". Each agent
is assigned a drain by a quality/proximity score, then moves by one of three
phase rules depending on its normalized distance rho to that drain: far-field
drift with noise, a shrinking swirl (spiral) around the drain, or a tight
Gaussian core search. Core agents that stagnate too long are relaunched by a
heavy-tailed splash around the best drain. Drains are refreshed each sweep
from the elitist pool (current population, previous population, old drains).

`run_optimizer` is the one run loop of dvo and of every baseline: it owns the
seeded stream, the timer, the uniform initial population (drawn first, then
evaluated), the evaluation count, the per-sweep trace and the record. An
optimizer supplies a start function and a per-sweep update that reports the
best so far; dvo reports the best drain after the elitist refresh.

Random draw order within one sweep is fixed and documented in `step`:
switch uniforms, switch destinations (ascending agent index), far-field noise
block, per-spiral-agent tangent then angle, splash-eligibility uniforms, core
noise block, per-splash levy draws, then per-agent objective noise.

The per-agent work is batched without changing that order or any bit of a
record. Switch destinations are one uniform block, which is the same stream
as one scalar draw per switching agent. The spiral keeps a Python loop that
only draws (tangent normals, then the angle, agent by agent); projection and
normalisation then run on the whole block, every dot product and norm being
the same BLAS `ddot` that the per-agent `tangent_unit_vector` calls. A row
that would need a tangent redraw rewinds the stream and replays the
per-agent loop. Only the per-splash levy draws still run agent by agent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Optional

import numpy as np

from . import benchmarks
from . import rng as rng_module
from .errors import ConfigError
from .records import DEFAULT_CHECKPOINTS, RunRecord, build_record
from .rng import LevyParams, RngStream, levy_step, tangent_unit_vector

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class Bounds:
    """Box bounds with the derived span vector and diameter."""

    lower: Array
    upper: Array
    span: Array = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("need lower < upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "span", upper - lower)
        object.__setattr__(self, "diameter", float(np.linalg.norm(upper - lower)))

    @classmethod
    def of(cls, problem: "benchmarks.ProblemSpec") -> "Bounds":
        return cls(problem.lower, problem.upper)


class Phase(IntEnum):
    FAR = 0
    SPIRAL = 1
    CORE = 2


@dataclass(frozen=True)
class DvoParams:
    """Drain-vortex parameters. Defaults are the published configuration
    plus this library's defaults for the free constants. Components with a
    number are switched off through it (`switch_prob=0`, `splash_prob=0`,
    `n_drains=1`, `residual_shrink=1.0`); only the others have a toggle."""

    n_agents: int = 30
    n_drains: int = 6
    iterations: int = 1000
    # far-field
    far_drift: float = 0.5
    far_noise: float = 1.0
    # drain selection pressure ramp
    pressure_start: float = 1.0
    pressure_end: float = 6.0
    # phase thresholds on normalized distance
    far_threshold: float = 0.5
    near_threshold: float = 0.05
    # spiral
    circulation: float = 0.2
    core_softening: float = 0.01
    swirl_cap: float = 10.0
    shrink_gain: float = 0.5
    residual_shrink: float = 0.1
    # core; None means 0.1 * bounds.diameter at run time
    core_radius: Optional[float] = None
    # switching and splash
    switch_prob: float = 0.08
    stay_limit: int = 10
    splash_prob: float = 0.3
    levy_exponent: float = 1.5
    splash_scale: float = 0.5
    epsilon: float = 1e-12
    # toggles
    swirl: bool = True
    greedy_update: bool = True
    forced_splash_replacement: bool = False

    def validate(self) -> None:
        """Raise ConfigError listing every violated bound."""
        bad = []
        if self.n_drains < 1:
            bad.append(f"n_drains must be >= 1, got {self.n_drains}")
        if self.n_agents < self.n_drains:
            bad.append(
                f"n_agents must be >= n_drains, got {self.n_agents} < {self.n_drains}"
            )
        if self.iterations < 2:
            bad.append(f"iterations must be >= 2, got {self.iterations}")
        if not 0.0 < self.near_threshold < self.far_threshold <= 1.0:
            bad.append(
                "need 0 < near_threshold < far_threshold <= 1, got "
                f"{self.near_threshold} and {self.far_threshold}"
            )
        if self.far_drift < 0:
            bad.append(f"far_drift must be >= 0, got {self.far_drift}")
        if self.far_noise < 0:
            bad.append(f"far_noise must be >= 0, got {self.far_noise}")
        if self.pressure_start < 0 or self.pressure_end < 0:
            bad.append("selection pressure endpoints must be >= 0")
        if self.circulation < 0:
            bad.append(f"circulation must be >= 0, got {self.circulation}")
        if self.core_softening <= 0:
            bad.append(f"core_softening must be > 0, got {self.core_softening}")
        if self.swirl_cap <= 0:
            bad.append(f"swirl_cap must be > 0, got {self.swirl_cap}")
        if not 0.0 <= self.shrink_gain <= 1.0:
            bad.append(f"shrink_gain must lie in [0, 1], got {self.shrink_gain}")
        if not 0.0 <= self.residual_shrink <= 1.0:
            bad.append(f"residual_shrink must lie in [0, 1], got {self.residual_shrink}")
        if self.core_radius is not None and self.core_radius < 0:
            bad.append(f"core_radius must be >= 0, got {self.core_radius}")
        if not 0.0 <= self.switch_prob <= 1.0:
            bad.append(f"switch_prob must lie in [0, 1], got {self.switch_prob}")
        if self.stay_limit < 0:
            bad.append(f"stay_limit must be >= 0, got {self.stay_limit}")
        if not 0.0 <= self.splash_prob <= 1.0:
            bad.append(f"splash_prob must lie in [0, 1], got {self.splash_prob}")
        if not 0.0 < self.levy_exponent < 2.0:
            bad.append(f"levy_exponent must lie in (0, 2), got {self.levy_exponent}")
        if self.splash_scale < 0:
            bad.append(f"splash_scale must be >= 0, got {self.splash_scale}")
        if self.epsilon <= 0:
            bad.append(f"epsilon must be > 0, got {self.epsilon}")
        if bad:
            raise ConfigError(bad)


ABLATION_VARIANTS = (
    "full",
    "no_greedy",
    "no_switch",
    "single_vortex",
    "no_swirl",
    "no_adaptive_spiral",
    "no_splash",
)


def make_ablation_params(base: DvoParams, variant: str) -> DvoParams:
    """Parameter set for one ablation variant of the full algorithm."""
    if variant == "full":
        return base
    if variant == "no_greedy":
        return replace(base, greedy_update=False)
    if variant == "no_switch":
        return replace(base, switch_prob=0.0)
    if variant == "single_vortex":
        return replace(base, n_drains=1)
    if variant == "no_swirl":
        return replace(base, swirl=False)
    if variant == "no_adaptive_spiral":
        return replace(base, residual_shrink=1.0)
    if variant == "no_splash":
        return replace(base, splash_prob=0.0)
    raise ConfigError(
        [f"unknown ablation variant {variant!r}; choose one of {ABLATION_VARIANTS}"]
    )


@dataclass
class DvoState:
    """Mutable per-run state; `step` advances it by one sweep."""

    t: int
    positions: Array
    fitness: Array
    prev_positions: Array
    prev_fitness: Array
    drains: Array
    drain_fitness: Array
    stagnation: Array
    best_position: Array
    best_value: float
    evaluations: int
    assignment: Optional[Array] = None
    rho: Optional[Array] = None
    phase: Optional[Array] = None


# ---------------------------------------------------------------------------
# schedules and drain bookkeeping
# ---------------------------------------------------------------------------


def exploration_scale(t: int, total: int) -> float:
    """Linear taper from 2 at the first sweep to 0 at the last."""
    return 2.0 * (1.0 - t / (total - 1))


def selection_pressure(t: int, total: int, start: float, end: float) -> float:
    """Linear ramp between the endpoints (also the baselines' schedules)."""
    return start + (end - start) * t / (total - 1)


def drain_probabilities(k: int, pressure: float) -> Array:
    """Exponentially decaying drain-selection weights, normalized.

    Rank 0 is the best drain; higher pressure concentrates mass on it.
    A single drain gets probability exactly 1.
    """
    if k < 1:
        raise ValueError("need at least one drain")
    if k == 1:
        return np.ones(1)
    w = np.exp(-pressure * np.arange(k) / (k - 1))
    return w / w.sum()


def _normalized_drain_distances(positions, drains, diameter):
    diff = positions[:, None, :] - drains[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    # distances cannot exceed the diameter inside the box; clamp defensively
    return np.minimum(dist / diameter, 1.0)


def assign_drains(positions, drains, probs, diameter, epsilon):
    """(drain index, normalized distance) per agent.

    Score = probability / (rho + epsilon); ties resolve to the lowest
    drain index.
    """
    rho_all = _normalized_drain_distances(positions, drains, diameter)
    score = probs[None, :] / (rho_all + epsilon)
    idx = np.argmax(score, axis=1)
    return idx, rho_all[np.arange(len(positions)), idx]


def stochastic_switch(assignment, probs, switch_prob, rng: RngStream):
    """Reassign each agent with probability switch_prob to a different
    drain, sampled from the remaining weights renormalized.

    With a single drain or zero probability this draws nothing and returns
    the assignment unchanged.
    """
    k = probs.size
    if k < 2 or switch_prob <= 0.0:
        return assignment
    out = np.array(assignment, dtype=int, copy=True)
    movers = np.where(rng.random(out.size) < switch_prob)[0]
    if movers.size:
        w = np.tile(probs, (movers.size, 1))
        w[np.arange(movers.size), out[movers]] = 0.0
        cum = np.cumsum(w, axis=1)
        cum = cum / cum[:, -1:]
        cum[:, -1] = 1.0
        # one uniform per mover in ascending order, drawn as one block; the
        # count of cum <= v is searchsorted(cum, v, side="right")
        out[movers] = (cum <= rng.random(movers.size)[:, None]).sum(axis=1)
    return out


def select_phase(rho, far_threshold, near_threshold):
    """Phase per agent: FAR above far_threshold, CORE at or below
    near_threshold, SPIRAL between. The three regions partition [0, 1]."""
    phase = np.full(np.shape(rho), int(Phase.SPIRAL), dtype=int)
    rho = np.asarray(rho)
    phase[rho > far_threshold] = Phase.FAR
    phase[rho <= near_threshold] = Phase.CORE
    return phase


def elitist_drains(positions, fitness, prev_positions, prev_fitness, drains, drain_fitness, k):
    """K best of the pool (current, previous, old drains), stable order.

    Duplicates are permitted; the best drain ends up at index 0.
    """
    pool = np.concatenate([positions, prev_positions, drains], axis=0)
    pool_fit = np.concatenate([fitness, prev_fitness, drain_fitness])
    order = np.argsort(pool_fit, kind="stable")[:k]
    return pool[order].copy(), pool_fit[order].copy()


# ---------------------------------------------------------------------------
# phase updates
# ---------------------------------------------------------------------------


def far_field_update(positions, targets, scale, params: DvoParams, bounds: Bounds, rng: RngStream):
    """Drift toward the drain plus isotropic noise shaped by the bounds.

    positions/targets are (n, d) blocks; one standard normal block is drawn.
    """
    positions = np.atleast_2d(positions)
    targets = np.atleast_2d(targets)
    d = positions.shape[1]
    noise = rng.standard_normal(positions.shape)
    drift = params.far_drift * scale * (targets - positions)
    jitter = params.far_noise * (scale / 2.0) * (bounds.span / math.sqrt(d)) * noise
    return positions + drift + jitter


def swirl_speed(rho, params: DvoParams):
    """Tangential speed: circulation / (rho + softening), capped."""
    return np.minimum(params.circulation / (np.asarray(rho) + params.core_softening), params.swirl_cap)


def shrink_factor(radii, scale, params: DvoParams):
    """Per-agent spiral shrink s in [0, r]; the contraction deepens as the
    taper `scale` decays, down to `residual_shrink` of its full strength
    (1.0 keeps it fixed)."""
    c = params.residual_shrink + (1.0 - params.residual_shrink) * scale / 2.0
    return (1.0 - params.shrink_gain * c) * np.asarray(radii)


def _row_dot(a, b):
    """Dot product of each row pair; each is the BLAS ddot of a 1-D `a[i] @ b[i]`
    (`einsum` and `norm(axis=1)` add in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(a):
    """Euclidean norm of each row, bitwise equal to `np.linalg.norm(a[i])`."""
    return np.sqrt(_row_dot(a, a))


def _draw_tangents(radial, rng: RngStream):
    """(tangents, angles): per row, `tangent_unit_vector(radial[i], rng)` and
    then the angle `2 pi rng.random()`, with the same draws and bits.

    Only the draws run row by row. If a row has no tangent on the first
    draw (zero radial, projection below the floor, dimension below 2), the
    stream is rewound and the per-row loop replayed, which redraws and
    raises exactly as it always has.
    """
    m, d = radial.shape
    tangents = np.empty((m, d))
    u = np.empty(m)
    if d >= 2:
        scale = _row_norms(radial)
        if scale.all():
            start = rng.snapshot()
            normal, uniform = rng.standard_normal, rng.random
            for i in range(m):
                normal(out=tangents[i])
                u[i] = uniform()
            unit = radial / scale[:, None]
            t = tangents - _row_dot(tangents, unit)[:, None] * unit
            norm = _row_norms(t)
            if (norm >= rng_module._TANGENT_FLOOR).all():
                return t / norm[:, None], 2.0 * math.pi * u
            rng.restore(start)
    for i in range(m):
        tangents[i] = tangent_unit_vector(radial[i], rng)
        u[i] = rng.random()
    return tangents, 2.0 * math.pi * u


def spiral_update(
    positions,
    targets,
    radii,
    rho,
    scale,
    params: DvoParams,
    rng: RngStream,
    angles=None,
    tangents=None,
):
    """Shrinking swirl around the drain.

    new = target + s (cos(w) e_r + sin(w) v_theta e_theta), with e_r the unit
    radial direction, e_theta a random tangent, w one angle per agent, and
    v_theta the capped swirl speed. With the swirl toggle off the tangential
    term is dropped. Draw order per agent: tangent direction, then angle;
    `angles`/`tangents` override the draws (for controlled evaluation).

    Draws and bits are those of the per-agent loop: a Python loop only
    draws, projection and normalisation run on the block with the same BLAS
    `ddot`, and a degenerate row replays the per-agent loop.
    """
    positions = np.atleast_2d(positions)
    targets = np.atleast_2d(targets)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    n = positions.shape[0]

    radial = (positions - targets) / (radii[:, None] + params.epsilon)
    use_swirl = params.swirl
    if use_swirl and tangents is None:
        tangents, drawn_angles = _draw_tangents(radial, rng)
        if angles is None:
            angles = drawn_angles
    elif angles is None:
        angles = 2.0 * math.pi * rng.random(n)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))

    s = shrink_factor(radii, scale, params)
    out = targets + s[:, None] * np.cos(angles)[:, None] * radial
    if use_swirl:
        v_theta = swirl_speed(rho, params)
        out = out + s[:, None] * (np.sin(angles) * v_theta)[:, None] * np.asarray(tangents)
    return out


def core_update(targets, scale, sigma0, rng: RngStream):
    """Gaussian cloud around the drain with tapering radius sigma0*scale/2."""
    targets = np.atleast_2d(targets)
    d = targets.shape[1]
    sigma_t = sigma0 * scale / 2.0
    return targets + sigma_t / math.sqrt(d) * rng.standard_normal(targets.shape)


def splash_out(anchor, params: DvoParams, bounds: Bounds, rng: RngStream):
    """Heavy-tailed relaunch around the best drain."""
    anchor = np.asarray(anchor, dtype=float)
    step_vec = levy_step(anchor.size, LevyParams(params.levy_exponent), rng)
    return anchor + params.splash_scale * bounds.diameter / math.sqrt(anchor.size) * step_vec


def clip_bounds(positions, bounds: Bounds):
    """Componentwise clamp into the box."""
    return np.clip(positions, bounds.lower, bounds.upper)


def greedy_select(
    old_positions, old_fitness, new_positions, new_fitness, enabled: bool, splashed=None
):
    """Per-agent elitist acceptance.

    Returns (positions, fitness, improved). With the toggle on, an agent
    keeps its old position unless the new one is strictly better or the
    agent is marked in `splashed` (a splash is always accepted); with it
    off, the new position is always accepted.
    """
    improved = new_fitness < old_fitness
    if enabled:
        keep_new = improved if splashed is None else improved | splashed
    else:
        keep_new = np.ones(np.shape(new_fitness), dtype=bool)
    positions = np.where(keep_new[:, None], new_positions, old_positions)
    fitness = np.where(keep_new, new_fitness, old_fitness)
    return positions, fitness, improved


def stagnation_update(stagnation, phase, improved, splashed):
    """Advance idle counters: +1 for core agents that neither improved nor
    splashed; reset to 0 on improvement, on leaving the core, or on splash."""
    hold = (np.asarray(phase) == int(Phase.CORE)) & ~np.asarray(improved) & ~np.asarray(splashed)
    return np.where(hold, np.asarray(stagnation) + 1, 0)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def initialize(positions, fitness, params: DvoParams) -> DvoState:
    """State from the evaluated initial population; the K best agents are
    the initial drains."""
    order = np.argsort(fitness, kind="stable")[: params.n_drains]
    drains = positions[order].copy()
    drain_fitness = fitness[order].copy()
    return DvoState(
        t=0,
        positions=positions,
        fitness=fitness,
        prev_positions=positions.copy(),
        prev_fitness=fitness.copy(),
        drains=drains,
        drain_fitness=drain_fitness,
        stagnation=np.zeros(fitness.size, dtype=int),
        best_position=drains[0].copy(),
        best_value=float(drain_fitness[0]),
        evaluations=fitness.size,
    )


def step(state: DvoState, params: DvoParams, problem, bounds: Bounds, rng: RngStream) -> DvoState:
    """One sweep: schedules, assignment, switching, phase moves with splash,
    clip, evaluate, greedy selection, stagnation, elitist drain refresh."""
    n, d = state.positions.shape
    k = params.n_drains
    scale = exploration_scale(state.t, params.iterations)
    pressure = selection_pressure(
        state.t, params.iterations, params.pressure_start, params.pressure_end
    )
    probs = drain_probabilities(k, pressure)

    assignment, rho = assign_drains(
        state.positions, state.drains, probs, bounds.diameter, params.epsilon
    )
    switched = stochastic_switch(assignment, probs, params.switch_prob, rng)
    moved = np.where(switched != assignment)[0]
    if moved.size:
        dist = _row_norms(state.positions[moved] - state.drains[switched[moved]])
        rho[moved] = np.minimum(dist / bounds.diameter, 1.0)
        assignment = switched

    phase = select_phase(rho, params.far_threshold, params.near_threshold)
    targets = state.drains[assignment]
    proposals = state.positions.copy()

    far = np.where(phase == Phase.FAR)[0]
    if far.size:
        proposals[far] = far_field_update(
            state.positions[far], targets[far], scale, params, bounds, rng
        )

    spiral = np.where(phase == Phase.SPIRAL)[0]
    if spiral.size:
        radii = rho[spiral] * bounds.diameter
        proposals[spiral] = spiral_update(
            state.positions[spiral], targets[spiral], radii, rho[spiral], scale, params, rng
        )

    core = np.where(phase == Phase.CORE)[0]
    splashed = np.zeros(n, dtype=bool)
    if core.size:
        sigma0 = (
            params.core_radius if params.core_radius is not None else 0.1 * bounds.diameter
        )
        if params.splash_prob > 0.0:
            eligible = core[state.stagnation[core] >= params.stay_limit]
            if eligible.size:
                u = rng.random(eligible.size)
                splashed[eligible[u < params.splash_prob]] = True
        sample = core[~splashed[core]]
        if sample.size:
            proposals[sample] = core_update(targets[sample], scale, sigma0, rng)
        for i in np.where(splashed)[0]:
            proposals[i] = splash_out(state.drains[0], params, bounds, rng)

    proposals = clip_bounds(proposals, bounds)
    new_fitness = benchmarks.evaluate(problem, proposals, rng)

    positions, fitness, improved = greedy_select(
        state.positions, state.fitness, proposals, new_fitness, params.greedy_update, splashed
    )
    prev_positions = state.positions
    prev_fitness = state.fitness

    if params.forced_splash_replacement and splashed.any():
        # "forced": the splash also evicts the agent's old pool entry
        prev_positions = prev_positions.copy()
        prev_fitness = prev_fitness.copy()
        prev_positions[splashed] = proposals[splashed]
        prev_fitness[splashed] = new_fitness[splashed]

    drains, drain_fitness = elitist_drains(
        positions, fitness, prev_positions, prev_fitness, state.drains, state.drain_fitness, k
    )

    state.stagnation = stagnation_update(state.stagnation, phase, improved, splashed)
    state.prev_positions = prev_positions
    state.prev_fitness = prev_fitness
    state.positions = positions
    state.fitness = fitness
    state.drains = drains
    state.drain_fitness = drain_fitness
    state.assignment = assignment
    state.rho = rho
    state.phase = phase
    state.best_position = drains[0].copy()
    state.best_value = float(drain_fitness[0])
    state.evaluations += new_fitness.size
    state.t += 1
    return state


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------


def initial_population(problem, n: int, rng: RngStream):
    """(positions, fitness) of n points drawn uniformly in the box: the first
    batch of every run."""
    lower = problem.lower
    positions = lower + rng.random((n, lower.size)) * (problem.upper - lower)
    return positions, benchmarks.evaluate(problem, positions, rng)


def run_optimizer(
    problem, start, n_agents, iterations, seed, algorithm, checkpoints=DEFAULT_CHECKPOINTS, run_index=0
) -> RunRecord:
    """One seeded run of any optimizer, as a RunRecord.

    `start(positions, fitness, rng)` receives the evaluated initial
    population and the run's stream and returns the per-sweep update
    `sweep(t)`. Each sweep returns (points it evaluated, best position, best
    value) so far; the evaluation count sums the evaluated batches and the
    trace keeps the best value after each sweep.
    """
    rng = RngStream(seed)
    started = time.perf_counter()
    positions, fitness = initial_population(problem, n_agents, rng)
    sweep = start(positions, fitness, rng)
    evaluations = fitness.size
    trace = np.empty(iterations)
    for t in range(iterations):
        evaluated, best_position, best_value = sweep(t)
        evaluations += evaluated
        trace[t] = best_value
    walltime_ms = (time.perf_counter() - started) * 1e3
    return build_record(
        algorithm=algorithm,
        problem=problem,
        run_index=run_index,
        seed=seed,
        best_position=best_position,
        best_value=best_value,
        trace=trace,
        evaluations=evaluations,
        walltime_ms=walltime_ms,
        checkpoint_iters=checkpoints,
    )


def run(
    problem,
    params: DvoParams = DvoParams(),
    seed: int = 0,
    checkpoints=DEFAULT_CHECKPOINTS,
    algorithm: str = "dvo",
    run_index: int = 0,
) -> RunRecord:
    """Full drain-vortex run through `run_optimizer`; N*(T+1) objective evaluations."""
    params.validate()
    bounds = Bounds.of(problem)

    def start(positions, fitness, rng):
        state = initialize(positions, fitness, params)

        def sweep(t):
            done = state.evaluations
            step(state, params, problem, bounds, rng)
            return state.evaluations - done, state.best_position, state.best_value

        return sweep

    return run_optimizer(
        problem, start, params.n_agents, params.iterations, seed, algorithm, checkpoints, run_index
    )

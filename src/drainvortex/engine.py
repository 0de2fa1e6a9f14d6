"""Drain-vortex optimizer and the run driver shared with the baselines.

A population of agents flows toward a small set of elite "drains". Each agent
is assigned a drain by a quality/proximity score, then moves by one of three
phase rules depending on its normalized distance rho to that drain: far-field
drift with noise, a shrinking swirl (spiral) around the drain, or a tight
Gaussian core search. Core agents that stagnate too long are relaunched by a
heavy-tailed splash around the best drain. Drains are refreshed each sweep
from the elitist pool (current population, previous population, old drains).

A run's `DvoState` carries only what the next sweep reads (see its
docstring); the best so far is `drains[0]`, and `run_optimizer` counts the
sweeps and the evaluations. The sweep reads the box from the `ProblemSpec`
it is given (`lower`, `upper` and the derived `span` and `diameter`, the
denominator of rho) and the splash's Levy exponent from
`DvoParams.levy_exponent`.

`run_optimizer` is the one run loop of dvo and of every baseline: it owns the
seeded stream, the timer, the uniform initial population (drawn first, then
evaluated), the evaluation count, the per-sweep trace and the record. An
optimizer is a pair over explicit state: `init(positions, fitness, settings)`
returns the state, a dataclass of arrays, and `sweep(state, t, settings,
problem, rng)` advances it by one sweep and reports the best so far. dvo's
pair is `initialize` and `sweep`, which runs `step` and reports the best
drain after the elitist refresh.

Random draw order within one sweep is fixed and documented here: switch
uniforms, switch destinations (one uniform per switching agent, in ascending
agent index), far-field noise block, spiral tangent normals as one
(spiral agents x d) block, spiral angles as one uniform block, spiral
tangent redraws of degenerate rows (ascending agent index), splash-eligibility
uniforms, core noise block, per-splash levy draws, then per-agent objective
noise. With the swirl off the spiral draws only its angle block.

Every phase moves its agents as one block. A spiral tangent is each normal
row projected off its radial direction and normalised, every dot product and
norm being the BLAS `ddot` that `tangent_unit_vector` calls; a row whose
projection is degenerate (shorter than 1e-12) is redrawn through
`tangent_unit_vector` after both blocks and keeps its block angle. Only the
per-splash levy draws and the switch destinations run agent by agent. The
destinations are worked out per mover in Python floats, with the arithmetic
a block of movers had in numpy (a running sum, a division by the total, a
count of the ratios at or below the uniform), so each value is bitwise the
same; with a few movers per sweep that costs less than the array calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import accumulate
from typing import Mapping

import numpy as np

from . import benchmarks
from . import rng as rng_module
from .errors import ConfigError, shown
from .records import DEFAULT_CHECKPOINTS, RunRecord, build_record
from .rng import RngStream, levy_step, tangent_unit_vector

Array = np.ndarray


class Phase(IntEnum):
    FAR = 0
    SPIRAL = 1
    CORE = 2


# the phases as plain ints, which numpy compares without converting a member
_FAR, _SPIRAL, _CORE = int(Phase.FAR), int(Phase.SPIRAL), int(Phase.CORE)


# the interval of each bounded parameter, for dvo and every baseline alike: a
# square bracket is a closed end, a round one an open end
BOUNDS = {
    "n_agents": "[2, inf)",
    "iterations": "[2, inf)",
    "n_drains": "[1, inf)",
    "far_drift": "[0, inf]",
    "far_noise": "[0, inf]",
    "pressure_start": "[0, inf)",
    "pressure_end": "[0, inf)",
    "circulation": "[0, inf]",
    "core_softening": "(0, inf]",
    "swirl_cap": "(0, inf]",
    "shrink_gain": "[0, 1]",
    "residual_shrink": "[0, 1]",
    "core_fraction": "[0, inf]",
    "switch_prob": "[0, 1]",
    "stay_limit": "[0, inf)",
    "splash_prob": "[0, 1]",
    "levy_exponent": "(0, 2)",
    "splash_scale": "[0, inf]",
    "epsilon": "(0, inf]",
    "v_frac": "[0, inf]",
    "mop_power": "(0, inf]",
}


def _within(value, interval: str) -> bool:
    """Whether `value` lies in an interval written as in `BOUNDS`."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value >= low if interval[0] == "[" else value > low
    return above and (value <= high if interval[-1] == "]" else value < high)


def _fits_float(value: int) -> bool:
    """Whether `float(value)` gives a float rather than an OverflowError."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def parameter_problems(params: Mapping, defaults: Mapping, bounds: Mapping = BOUNDS) -> tuple:
    """Check each given parameter against its default and its interval in
    `bounds`. Returns the entries and whether every value has its default's
    type and fits in a float where a float is meant, without which no rule
    across parameters may be compared. One entry per name with no default,
    per value not of its default's type (a bool for a bool, an int that is
    not a bool for an int, a number for a float), per integer too large for
    a float where a float is meant, per NaN, and per number outside its
    interval."""
    bad, typed = [], True
    for key, value in params.items():
        if key not in defaults:
            bad.append(f"unknown parameter {shown(key)}")
            continue
        default = defaults[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(default, bool):
            ok, kind = isinstance(value, bool), "true or false"
        elif isinstance(default, int):
            ok, kind = number and isinstance(value, int), "an integer"
        else:
            ok, kind = number, "a number"
        if not ok:
            bad.append(f"{key} must be {kind}, got {shown(value)}")
            typed = False
        elif isinstance(value, int) and not isinstance(default, int) and not _fits_float(value):
            bad.append(f"{key} must fit in a float, got an integer of {value.bit_length()} bits")
            typed = False
        elif value != value:
            bad.append(f"{key} must not be NaN")
        elif key in bounds and not _within(value, bounds[key]):
            bad.append(f"{key} must lie in {bounds[key]}, got {shown(value)}")
    return bad, typed


@dataclass(frozen=True)
class DvoParams:
    """Drain-vortex parameters. Defaults are the published configuration
    plus this library's defaults for the free constants. Components with a
    number are switched off through it (`switch_prob=0`, `splash_prob=0`,
    `n_drains=1`, `residual_shrink=1.0`); only the others have a toggle.
    Every length is relative to the box (`far_noise` scales the span,
    `splash_scale` and `core_fraction` the diameter), so one block means
    the same on every problem."""

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
    # core: the cloud's radius as a fraction of the box diameter
    core_fraction: float = 0.1
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

    @classmethod
    def from_mapping(cls, params: Mapping) -> DvoParams:
        """Checked settings from a name -> value block, such as a config's;
        an unknown name is one more entry beside those `validate` lists."""
        settings = cls(**{k: v for k, v in params.items() if k in _DVO_DEFAULTS})
        settings._check(params)
        return settings

    def validate(self) -> None:
        """Raise ConfigError listing every entry of `parameter_problems` and,
        if every value has its type, every violated rule across parameters.
        A NaN fails none of the rules, so it gets one entry."""
        self._check(vars(self))

    def _check(self, given: Mapping) -> None:
        bad, typed = parameter_problems(given, _DVO_DEFAULTS)
        if not typed:
            raise ConfigError(bad)
        if self.n_agents < self.n_drains:
            bad.append(
                f"n_agents must be >= n_drains, got {shown(self.n_agents)} < {shown(self.n_drains)}"
            )
        near, far = self.near_threshold, self.far_threshold
        if near <= 0.0 or far <= near or far > 1.0:
            bad.append(
                f"need 0 < near_threshold < far_threshold <= 1, got {near} and {far}"
            )
        # the ramp computes (pressure_end - pressure_start) * t for each
        # t < iterations; an end that is not finite has its own entry
        start, end = self.pressure_start, self.pressure_end
        if math.isfinite(start) and math.isfinite(end):
            try:
                finite_ramp = math.isfinite(abs(end - start) * (self.iterations - 1))
            except OverflowError:  # a product or an iteration count beyond a float
                finite_ramp = False
            if not finite_ramp:
                bad.append(
                    "need a finite abs(pressure_end - pressure_start) * (iterations - 1), "
                    f"got {shown(start)}, {shown(end)} and {shown(self.iterations)}"
                )
        if bad:
            raise ConfigError(bad)


_DVO_DEFAULTS = {f.name: f.default for f in fields(DvoParams)}

# each ablation variant as its overrides of the full algorithm's DvoParams
ABLATION_VARIANTS = {
    "full": {},
    "no_greedy": {"greedy_update": False},
    "no_switch": {"switch_prob": 0.0},
    "single_vortex": {"n_drains": 1},
    "no_swirl": {"swirl": False},
    "no_adaptive_spiral": {"residual_shrink": 1.0},
    "no_splash": {"splash_prob": 0.0},
}


@dataclass
class DvoState:
    """Mutable per-run state; `step` advances it by one sweep.

    The population and its fitness, the drains (best first) and their
    fitness, and the per-agent stagnation counters. The sweep index is not
    kept here: `run_optimizer` counts the sweeps and hands each its index.
    """

    positions: Array
    fitness: Array
    drains: Array
    drain_fitness: Array
    stagnation: Array


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
    # each agent's row repeated once per drain, so that the subtraction runs
    # over one contiguous (k, d) block per agent
    n, d = positions.shape
    diff = positions.repeat(drains.shape[0], axis=0).reshape(n, -1, d)
    diff -= drains
    diff *= diff
    dist = np.sqrt(diff.sum(axis=2))
    dist /= diameter
    # distances cannot exceed the diameter inside the box; clamp defensively
    return np.minimum(dist, 1.0, out=dist)


def assign_drains(positions, drains, probs, diameter, epsilon):
    """(drain index, normalized distance) per agent.

    Score = probability / (rho + epsilon); ties resolve to the lowest
    drain index.
    """
    rho_all = _normalized_drain_distances(positions, drains, diameter)
    idx = (probs / (rho_all + epsilon)).argmax(axis=1)
    return idx, rho_all[np.arange(idx.size), idx]


def stochastic_switch(assignment, probs, switch_prob, rng: RngStream):
    """Reassign each agent with probability switch_prob to a different
    drain, sampled from the remaining weights renormalized.

    Returns the new assignment and the ascending indices of the agents whose
    drain changed. A mover whose remaining weights all underflowed to 0 keeps
    its drain. With a single drain or zero probability this draws nothing
    and returns the assignment unchanged.

    The movers come from one uniform block, then one uniform per mover in
    ascending order from a second block. Each destination is worked out per
    mover in Python floats, the same IEEE operations in the same order as
    `np.cumsum` and a division by the total: a running sum over the weights
    with the old drain's taken as 0.0, each partial sum divided by the
    total, and the destination is the count of those at or below the
    uniform (`searchsorted`, side "right"). The last ratio counts as 1.0,
    above every uniform, so it is left out of the count.
    """
    k = probs.size
    if k < 2 or switch_prob <= 0.0:
        return assignment, assignment[:0]
    movers = (rng.random(assignment.size) < switch_prob).nonzero()[0]
    if not movers.size:
        return assignment, movers
    weights = probs.tolist()
    uniforms = rng.random(movers.size).tolist()
    out = assignment.copy()
    moved = []
    for i, drain, u in zip(movers.tolist(), assignment.take(movers).tolist(), uniforms):
        w = weights.copy()
        w[drain] = 0.0
        cum = list(accumulate(w))
        total = cum.pop()
        if total == 0.0:
            continue
        new = 0
        for c in cum:
            new += c / total <= u
        if new != drain:
            out[i] = new
            moved.append(i)
    return out, np.array(moved, dtype=movers.dtype)


def select_phase(rho, far_threshold, near_threshold):
    """Phase per agent: FAR above far_threshold, CORE at or below
    near_threshold, SPIRAL between. The three regions partition [0, 1]."""
    phase = np.where(rho > far_threshold, _FAR, _SPIRAL)
    phase[rho <= near_threshold] = _CORE
    return phase


def k_best(positions, fitness, k):
    """(rows, fitness) of the k best fitness values, best first; on a tie the
    earlier row comes first. This is the elite rule of dvo and of every
    baseline that keeps an elite set."""
    order = fitness.argsort(kind="stable")[:k]
    return positions[order], fitness[order]


def elitist_drains(positions, fitness, prev_positions, prev_fitness, drains, drain_fitness, k):
    """K best of the pool (current, previous, old drains), by `k_best`.

    Duplicates are permitted; the best drain ends up at index 0.
    """
    pool = np.concatenate([positions, prev_positions, drains], axis=0)
    pool_fit = np.concatenate([fitness, prev_fitness, drain_fitness])
    return k_best(pool, pool_fit, k)


# ---------------------------------------------------------------------------
# phase updates
# ---------------------------------------------------------------------------


def far_field_update(positions, targets, scale, params: DvoParams, problem, rng: RngStream):
    """Drift toward the drain plus isotropic noise shaped by the box span.

    positions/targets are (n, d) blocks; one standard normal block is drawn.
    """
    d = positions.shape[1]
    noise = rng.standard_normal(positions.shape)
    drift = params.far_drift * scale * (targets - positions)
    jitter = params.far_noise * (scale / 2.0) * (problem.span / math.sqrt(d)) * noise
    return positions + drift + jitter


def swirl_speed(rho, params: DvoParams):
    """Tangential speed: circulation / (rho + softening), capped."""
    return np.minimum(params.circulation / (rho + params.core_softening), params.swirl_cap)


def shrink_factor(radii, scale, params: DvoParams):
    """Per-agent spiral shrink s in [0, r]; the contraction deepens as the
    taper `scale` decays, down to `residual_shrink` of its full strength
    (1.0 keeps it fixed)."""
    c = params.residual_shrink + (1.0 - params.residual_shrink) * scale / 2.0
    return (1.0 - params.shrink_gain * c) * radii


def _row_dot(a, b):
    """Dot product of each row pair; each is the BLAS ddot of a 1-D `a[i] @ b[i]`
    (`einsum` and `norm(axis=1)` add in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(a):
    """Euclidean norm of each row, bitwise equal to `np.linalg.norm(a[i])`."""
    return np.sqrt(_row_dot(a, a))


def _draw_tangents(radial, rng: RngStream):
    """(tangents, angles) for a block of m radial rows: one (m, d) standard
    normal block, then one (m,) uniform block for the angles `2 pi u`.

    Each normal row is projected off its radial direction and normalised,
    every dot product and norm being the BLAS `ddot` of
    `tangent_unit_vector`. A row whose projection is shorter than the floor
    is redrawn after both blocks, in ascending row order, by
    `tangent_unit_vector(radial[i], rng)`, and keeps its block angle.
    Dimension below 2 or a zero radial row raises ValueError before any draw.
    """
    m, d = radial.shape
    if d < 2:
        raise ValueError("tangent direction requires dimension >= 2")
    scale = _row_norms(radial)
    if not scale.all():
        raise ValueError("radial direction must be nonzero")
    tangents = rng.standard_normal((m, d))
    angles = 2.0 * math.pi * rng.random(m)
    unit = radial / scale[:, None]
    tangents -= _row_dot(tangents, unit)[:, None] * unit
    norm = _row_norms(tangents)
    tangents /= norm[:, None]
    # not `norm < floor`: a NaN norm is degenerate too, as in tangent_unit_vector
    kept = norm >= rng_module._TANGENT_FLOOR
    if not kept.all():
        for i in (~kept).nonzero()[0]:
            tangents[i] = tangent_unit_vector(radial[i], rng)
    return tangents, angles


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
    term is dropped. Draw order: the tangent normals of every agent as one
    block, then every angle as one block, then any degenerate tangent
    redraws (see `_draw_tangents`); with the swirl off, only the angle
    block. `angles`/`tangents` override the draws (for controlled
    evaluation).
    """
    radial = (positions - targets) / (radii[:, None] + params.epsilon)
    if params.swirl and tangents is None:
        tangents, drawn_angles = _draw_tangents(radial, rng)
        if angles is None:
            angles = drawn_angles
    elif angles is None:
        angles = 2.0 * math.pi * rng.random(radii.size)

    s = shrink_factor(radii, scale, params)
    out = (s * np.cos(angles))[:, None] * radial
    out += targets
    if params.swirl:
        out += (s * (np.sin(angles) * swirl_speed(rho, params)))[:, None] * tangents
    return out


def core_update(targets, scale, sigma0, rng: RngStream):
    """Gaussian cloud around the drain with tapering radius sigma0*scale/2."""
    d = targets.shape[1]
    sigma_t = sigma0 * scale / 2.0
    return targets + sigma_t / math.sqrt(d) * rng.standard_normal(targets.shape)


def splash_out(anchor, params: DvoParams, problem, rng: RngStream):
    """Heavy-tailed relaunch around the best drain."""
    anchor = np.asarray(anchor, dtype=float)
    step_vec = levy_step(anchor.size, params.levy_exponent, rng)
    return anchor + params.splash_scale * problem.diameter / math.sqrt(anchor.size) * step_vec


def clip_bounds(positions, problem):
    """Componentwise clamp into the problem's box."""
    return np.clip(positions, problem.lower, problem.upper)


def greedy_select(old_positions, old_fitness, new_positions, new_fitness, enabled: bool, splashed):
    """Per-agent elitist acceptance.

    Returns (positions, fitness, improved). With the toggle on, an agent
    keeps its old position unless the new one is strictly better or the
    agent is marked in the boolean mask `splashed` (a splash is always
    accepted); with it off, the new position is always accepted.
    """
    improved = new_fitness < old_fitness
    if enabled:
        keep_new = improved | splashed
    else:
        keep_new = np.ones(np.shape(new_fitness), dtype=bool)
    positions = np.where(keep_new[:, None], new_positions, old_positions)
    fitness = np.where(keep_new, new_fitness, old_fitness)
    return positions, fitness, improved


def stagnation_update(stagnation, phase, improved, splashed):
    """Advance idle counters: +1 for core agents that neither improved nor
    splashed; reset to 0 on improvement, on leaving the core, or on splash."""
    hold = (phase == _CORE) & ~(improved | splashed)
    return np.where(hold, stagnation + 1, 0)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def initialize(positions, fitness, params: DvoParams) -> DvoState:
    """State from the evaluated initial population; the K best agents are
    the initial drains."""
    drains, drain_fitness = k_best(positions, fitness, params.n_drains)
    return DvoState(
        positions=positions,
        fitness=fitness,
        drains=drains,
        drain_fitness=drain_fitness,
        stagnation=np.zeros(fitness.size, dtype=int),
    )


def step(state: DvoState, t: int, params: DvoParams, problem, rng: RngStream) -> DvoState:
    """Sweep `t` (0-based): schedules, assignment, switching, phase moves
    with splash, clip, evaluate, greedy selection, stagnation, elitist drain
    refresh. Advances `state` in place and returns it (the span tracer in
    perfbench/tracing.py reads the accepted positions from the result)."""
    n = state.fitness.size
    k = params.n_drains
    scale = exploration_scale(t, params.iterations)
    pressure = selection_pressure(t, params.iterations, params.pressure_start, params.pressure_end)
    probs = drain_probabilities(k, pressure)

    assignment, rho = assign_drains(
        state.positions, state.drains, probs, problem.diameter, params.epsilon
    )
    assignment, moved = stochastic_switch(assignment, probs, params.switch_prob, rng)
    # rows are gathered with `take`, which costs less than fancy indexing
    if moved.size:
        dist = _row_norms(
            state.positions.take(moved, axis=0)
            - state.drains.take(assignment.take(moved), axis=0)
        )
        rho[moved] = np.minimum(dist / problem.diameter, 1.0)

    phase = select_phase(rho, params.far_threshold, params.near_threshold)
    targets = state.drains.take(assignment, axis=0)
    proposals = state.positions.copy()

    far = (phase == _FAR).nonzero()[0]
    if far.size:
        proposals[far] = far_field_update(
            state.positions.take(far, axis=0),
            targets.take(far, axis=0),
            scale,
            params,
            problem,
            rng,
        )

    spiral = (phase == _SPIRAL).nonzero()[0]
    if spiral.size:
        rho_spiral = rho.take(spiral)
        proposals[spiral] = spiral_update(
            state.positions.take(spiral, axis=0),
            targets.take(spiral, axis=0),
            rho_spiral * problem.diameter,
            rho_spiral,
            scale,
            params,
            rng,
        )

    core = (phase == _CORE).nonzero()[0]
    splashed = np.zeros(n, dtype=bool)
    if core.size:
        sigma0 = params.core_fraction * problem.diameter
        sample, splash = core, core[:0]
        if params.splash_prob > 0.0:
            eligible = core[state.stagnation.take(core) >= params.stay_limit]
            if eligible.size:
                splash = eligible[rng.random(eligible.size) < params.splash_prob]
                splashed[splash] = True
                sample = core[~splashed.take(core)]
        if sample.size:
            proposals[sample] = core_update(targets.take(sample, axis=0), scale, sigma0, rng)
        for i in splash:
            proposals[i] = splash_out(state.drains[0], params, problem, rng)

    proposals = clip_bounds(proposals, problem)
    new_fitness = benchmarks.evaluate(problem, proposals, rng)

    positions, fitness, improved = greedy_select(
        state.positions, state.fitness, proposals, new_fitness, params.greedy_update, splashed
    )
    drains, drain_fitness = elitist_drains(
        positions, fitness, state.positions, state.fitness, state.drains, state.drain_fitness, k
    )

    state.stagnation = stagnation_update(state.stagnation, phase, improved, splashed)
    state.positions = positions
    state.fitness = fitness
    state.drains = drains
    state.drain_fitness = drain_fitness
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
    problem, init, sweep, settings, seed, algorithm, checkpoints=DEFAULT_CHECKPOINTS, run_index=0
) -> RunRecord:
    """One seeded run of any optimizer, as a RunRecord.

    `settings` gives `n_agents` and `iterations`. `init(positions, fitness,
    settings)` builds the run's state from the evaluated initial population;
    `sweep(state, t, settings, problem, rng)` advances it by sweep `t` and
    returns (points it evaluated, best position, best value) so far. The
    evaluation count sums the evaluated batches and the trace keeps the best
    value after each sweep.
    """
    rng = RngStream(seed)
    started = time.perf_counter()
    positions, fitness = initial_population(problem, settings.n_agents, rng)
    state = init(positions, fitness, settings)
    evaluations = fitness.size
    trace = np.empty(settings.iterations)
    for t in range(settings.iterations):
        evaluated, best_position, best_value = sweep(state, t, settings, problem, rng)
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


def sweep(state: DvoState, t: int, params: DvoParams, problem, rng: RngStream):
    """dvo's sweep for `run_optimizer`: one `step` at the driver's sweep
    index `t`, reporting the best drain."""
    step(state, t, params, problem, rng)
    return state.fitness.size, state.drains[0], float(state.drain_fitness[0])


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
    return run_optimizer(
        problem, initialize, sweep, params, seed, algorithm, checkpoints, run_index
    )

"""Drain-vortex optimizer and the run driver shared with the baselines.

A population of agents flows toward a small set of elite "drains". Each agent
is assigned a drain by a quality/proximity score, then moves by one of three
phase rules depending on its normalized distance rho to that drain: far-field
drift with noise, a shrinking swirl (spiral) around the drain, or a tight
Gaussian core search. Core agents that stagnate too long are relaunched by a
heavy-tailed splash around the best drain. Drains are refreshed each sweep
from the elitist pool (current population, previous population, old drains).

A `DvoState` carries only what the next sweep reads (see its docstring),
for every run of a batch at once: the population (`(R*n, d)`, run r owning
rows r*n up to (r+1)*n), its fitness and stagnation counters, and each
run's k drains (rows r*k up to (r+1)*k, best first). A run's best so far
is its first drain, and `run_optimizer` counts the sweeps and the
evaluations. The sweep reads each run's box from the `Batch` (`lower`,
`upper` and the derived `span` and `diameter`, the denominator of rho, one
row per run; each enters a formula in the association of a scalar of a run
alone) and the splash's Levy exponent from `DvoParams.levy_exponent`.

`run_optimizer` is the one run loop of dvo and of every baseline: it steps
groups of runs of one dimension together, one `Group` (one optimizer's
runs, as one `Batch`) per algorithm, and owns their seeded streams, the
timers, the uniform initial populations (each drawn first, then
evaluated), the in-place box clip of every block (`clip_bounds`), the
objective calls, the evaluation counts, the per-sweep traces and the
records. A group of one run is a run alone, and every run of a batch gets
the record it gets alone. An optimizer is a pair over explicit state:
`init(positions, fitness, settings)` returns the state, a dataclass of
arrays, and `sweep(state, t, settings, batch)` is a generator that
advances every run by one sweep: it yields the block of points it needs
evaluated, receives their objective values and returns each run's best so
far. Blocks, values and the initial pair have the batch's stacked shape,
`(R, n, ...)` for R runs and `(n, ...)` for a run alone; for the objective
calls the driver turns each block into run-major rows and the values back
into the block's shape. It evaluates the blocks of every group of a
round together: the runs that share a problem object, if it is vectorized
and not noisy, share one `benchmarks.evaluate` call, and every other run
gets its own call on its own stream. dvo's pair is `initialize` and
`sweep`, which yields the proposals of `propose`, runs `step` (the
acceptance half) on their values and reports each run's best drain after
the elitist refresh.

Random draw order within one sweep is fixed and documented here, per run:
each run draws from its own stream, at each site, what it draws alone
(`RunDraws` fills each run's rows of a block from its stream). A run's
order is: switch uniforms, switch destinations (one uniform per switching
agent, in ascending agent index), far-field noise block, spiral tangent
normals as one (spiral agents x d) block, spiral angles as one uniform
block, spiral tangent redraws of degenerate rows (ascending agent index),
splash-eligibility uniforms, core noise block, per-splash levy draws, then
per-agent objective noise (a noisy problem gets one `benchmarks.evaluate`
call per run). With the swirl off the spiral draws only its angle block.

Every phase moves its agents, those of every run of the batch, as one
block. A spiral tangent is each normal row projected off its radial
direction and normalised, every dot product and norm being the BLAS `ddot`
that `tangent_unit_vector` calls; a row whose projection is degenerate
(shorter than 1e-12) is redrawn through `tangent_unit_vector` after both
blocks and keeps its block angle. Only the per-splash levy draws and the
switch destinations do not run on the whole block. The destinations are
worked out per mover in Python floats, with the arithmetic a block of
movers had in numpy (a running sum, a division by the total, a count of the
ratios at or below the uniform), so each value is bitwise the same; with a
few movers per sweep that costs less than the array calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Sequence

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
    """Mutable state of a batch of runs; `step` advances it by one sweep.

    The population and its fitness, each run's drains (best first) and
    their fitness, and the per-agent stagnation counters, every array
    stacked run-major. The sweep index is not kept here: `run_optimizer`
    counts the sweeps and hands each its index.
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
    *runs, n, d = positions.shape
    diff = positions.repeat(drains.shape[-2], axis=-2).reshape(*runs, n, -1, d)
    diff -= drains[..., None, :, :]
    diff *= diff
    dist = np.sqrt(diff.sum(axis=-1))
    dist /= diameter
    # distances cannot exceed the diameter inside the box; clamp defensively
    return np.minimum(dist, 1.0, out=dist)


def assign_drains(positions, drains, probs, diameter, epsilon):
    """(drain index, normalized distance) per agent, flat over the runs.

    `positions` (n, d) and `drains` (k, d) are one run's, or (R, n, d) and
    (R, k, d) stacks of R runs, each run's agents scored against its own
    drains, with `diameter` broadcast against the (R, n, k) distances.
    Score = probability / (rho + epsilon); ties resolve to the lowest
    drain index.
    """
    rho_all = _normalized_drain_distances(positions, drains, diameter).reshape(-1, probs.size)
    idx = (probs / (rho_all + epsilon)).argmax(axis=1)
    return idx, rho_all[np.arange(idx.size), idx]


def stochastic_switch(assignment, probs, switch_prob, rng: RngStream):
    """Reassign each agent with probability switch_prob to a different
    drain, sampled from the remaining weights renormalized.

    Returns the new assignment and the ascending indices of the agents whose
    drain changed. A mover whose remaining weights all underflowed to 0 keeps
    its drain. With a single drain or zero probability this draws nothing
    and returns the assignment unchanged. `rng` gives the draws of the
    agents' rows: an `RngStream` for one run, a `RunDraws` for a stack.

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
    uniforms = rng.rows(movers).random(movers.size).tolist()
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


def pick(stack, local) -> Array:
    """Each set's rows of `stack` at its own indices `local`: a lone set's
    (m, ...) rows at (n,) indices, or, for (R, n) indices, set r's rows of
    an (R, m, ...) stack at `local[r]`, stacked (R, n, ...). Rows are
    gathered with `take`, which costs less than fancy indexing."""
    if local.ndim == 1:
        return stack.take(local, axis=0)
    m = stack.shape[1]
    rows = local + np.arange(0, stack.shape[0] * m, m)[:, None]
    return stack.reshape(-1, *stack.shape[2:]).take(rows, axis=0)


def k_best(positions, fitness, k):
    """(rows, fitness) of the k best fitness values, best first; on a tie the
    earlier row comes first. This is the elite rule of dvo and of every
    baseline (its elites and its first best so far). For a stack of sets,
    (R, m, d) positions and (R, m) fitness, each set keeps its own k best."""
    order = fitness.argsort(axis=-1, kind="stable")[..., :k]
    return pick(positions, order), pick(fitness, order)


def elitist_drains(positions, fitness, prev_positions, prev_fitness, drains, drain_fitness, k):
    """K best of the pool (current, previous, old drains), by `k_best`, per
    run for (R, ...) stacks of runs.

    Duplicates are permitted; the best drain ends up at index 0.
    """
    pool = np.concatenate([positions, prev_positions, drains], axis=-2)
    pool_fit = np.concatenate([fitness, prev_fitness, drain_fitness], axis=-1)
    return k_best(pool, pool_fit, k)


# ---------------------------------------------------------------------------
# phase updates
# ---------------------------------------------------------------------------


def far_field_update(positions, targets, scale, params: DvoParams, span, rng: RngStream):
    """Drift toward the drain plus isotropic noise shaped by the box span.

    positions/targets are (n, d) blocks and `span` the box's span, or one
    span row per agent; one standard normal block is drawn.
    """
    d = positions.shape[1]
    noise = rng.standard_normal(positions.shape)
    drift = params.far_drift * scale * (targets - positions)
    jitter = params.far_noise * (scale / 2.0) * (span / math.sqrt(d)) * noise
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
    `tangent_unit_vector(radial[i], rng.stream(i))`, and keeps its block
    angle.
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
            tangents[i] = tangent_unit_vector(radial[i], rng.stream(i))
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
    """Gaussian cloud around the drain with tapering radius sigma0*scale/2;
    `sigma0` is one radius, or one per agent."""
    d = targets.shape[1]
    sigma_t = sigma0 * scale / 2.0
    # transposed, the noise's columns are the agents, which one radius per agent broadcasts over
    return targets + (sigma_t / math.sqrt(d) * rng.standard_normal(targets.shape).T).T


def splash_out(anchor, params: DvoParams, problem, rng: RngStream):
    """Heavy-tailed relaunch around the best drain."""
    anchor = np.asarray(anchor, dtype=float)
    step_vec = levy_step(anchor.size, params.levy_exponent, rng)
    return anchor + params.splash_scale * problem.diameter / math.sqrt(anchor.size) * step_vec


def clamp(x, lower, upper):
    """`np.clip(x, lower, upper)` as two ufunc calls, which numpy runs
    faster. With array bounds, the only kind the optimizers pass, it gives
    np.clip's bits, on signed zeros, NaN and infinities too; with scalar
    bounds it need not."""
    return np.minimum(np.maximum(x, lower), upper)


def clip_bounds(positions, box):
    """Componentwise clamp, in place, into the box's `lower` and `upper`: a
    problem's for its (n, d) points, or a `Batch`'s for (R, n, d) stacks of
    points. `run_optimizer` calls it on every block an optimizer yields."""
    np.maximum(positions, box.lower, out=positions)
    return np.minimum(positions, box.upper, out=positions)


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
    """State from the evaluated initial population in the batch's stacked
    shape, `(n, d)` for one run or `(R, n, d)` for R runs; each run's K best
    agents are its initial drains. The state keeps every array run-major."""
    d = positions.shape[-1]
    drains, drain_fitness = k_best(positions, fitness, params.n_drains)
    return DvoState(
        positions=positions.reshape(-1, d),
        fitness=fitness.reshape(-1),
        drains=drains.reshape(-1, d),
        drain_fitness=drain_fitness.reshape(-1),
        stagnation=np.zeros(fitness.size, dtype=int),
    )


def propose(state: DvoState, t: int, params: DvoParams, batch: Batch):
    """The proposal half of sweep `t` (0-based) of every run of `batch`:
    schedules, assignment, switching, phase moves with splash. The state is
    the runs' run-major stack: run r owns agents r*n up to (r+1)*n and
    drains r*k up to (r+1)*k. Returns (proposals, phase, splashed): the
    proposals in the batch's stacked shape, unclipped (the driver clips),
    each agent's phase and the mask of the agents that splashed, run-major."""
    n = state.fitness.size // batch.size
    k = params.n_drains
    scale = exploration_scale(t, params.iterations)
    pressure = selection_pressure(t, params.iterations, params.pressure_start, params.pressure_end)
    probs = drain_probabilities(k, pressure)
    draws = batch.draws(n)

    assignment, rho = assign_drains(
        batch.stacked(state.positions),
        batch.stacked(state.drains),
        probs,
        batch.spread(batch.diameter),
        params.epsilon,
    )
    assignment, moved = stochastic_switch(assignment, probs, params.switch_prob, draws)
    # each agent's drain, run-major
    targets = batch.flat(pick(batch.stacked(state.drains), batch.stacked(assignment)))
    if moved.size:
        dist = _row_norms(state.positions.take(moved, axis=0) - targets.take(moved, axis=0))
        rho[moved] = np.minimum(dist / batch.at(batch.diameter, moved, n), 1.0)

    phase = select_phase(rho, params.far_threshold, params.near_threshold)
    proposals = state.positions.copy()

    far = (phase == _FAR).nonzero()[0]
    if far.size:
        proposals[far] = far_field_update(
            state.positions.take(far, axis=0),
            targets.take(far, axis=0),
            scale,
            params,
            batch.at(batch.span, far, n),
            draws.rows(far),
        )

    spiral = (phase == _SPIRAL).nonzero()[0]
    if spiral.size:
        rho_spiral = rho.take(spiral)
        proposals[spiral] = spiral_update(
            state.positions.take(spiral, axis=0),
            targets.take(spiral, axis=0),
            rho_spiral * batch.at(batch.diameter, spiral, n),
            rho_spiral,
            scale,
            params,
            draws.rows(spiral),
        )

    core = (phase == _CORE).nonzero()[0]
    splashed = np.zeros(state.fitness.size, dtype=bool)
    if core.size:
        sample, splash = core, core[:0]
        if params.splash_prob > 0.0:
            eligible = core[state.stagnation.take(core) >= params.stay_limit]
            if eligible.size:
                uniforms = draws.rows(eligible).random(eligible.size)
                splash = eligible[uniforms < params.splash_prob]
                splashed[splash] = True
                sample = core[~splashed.take(core)]
        if sample.size:
            sigma0 = params.core_fraction * batch.at(batch.diameter, sample, n)
            proposals[sample] = core_update(
                targets.take(sample, axis=0), scale, sigma0, draws.rows(sample)
            )
        for i in splash.tolist():
            run = i // n
            proposals[i] = splash_out(
                state.drains[run * k], params, batch.problems[run], batch.streams[run]
            )

    return batch.stacked(proposals), phase, splashed


def step(
    state: DvoState, proposals, new_fitness, phase, splashed, params: DvoParams, batch: Batch
) -> DvoState:
    """The acceptance half of a sweep: greedy selection of the evaluated
    `proposals` (`new_fitness` holds their values), stagnation and the
    elitist drain refresh, per run of `batch`, with the `phase` and
    `splashed` mask of `propose`. Advances `state` in place and returns it
    (the span tracer in perfbench/tracing.py reads the accepted positions
    from the result)."""
    positions, fitness, improved = greedy_select(
        state.positions, state.fitness, proposals, new_fitness, params.greedy_update, splashed
    )
    drains, drain_fitness = elitist_drains(
        *map(
            batch.stacked,
            (positions, fitness, state.positions, state.fitness, state.drains, state.drain_fitness),
        ),
        params.n_drains,
    )

    state.stagnation = stagnation_update(state.stagnation, phase, improved, splashed)
    state.positions = positions
    state.fitness = fitness
    state.drains = batch.flat(drains)
    state.drain_fitness = batch.flat(drain_fitness)
    return state


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------


class Batch:
    """R runs of one dimension that sweep together: run r draws from
    `streams[r]` and is evaluated on `problems[r]`.

    A population of the batch has its stacked shape: (R, n, ...), run r's
    agents at index r, and for a run alone (n, ...), its own arrays. The
    boxes `lower` and `upper` broadcast against it, (R, 1, d), `spread`
    shapes any per-run values so, `each` draws a block in it and the
    module's `pick` gathers each run's rows by index. dvo keeps its state
    as run-major rows (run r owns the r-th block of rows), which `stacked`
    views in the stacked shape and `flat` restores; `span` (R, d) and
    `diameter` (R,) hold one row per run, which `at` gathers per agent. A batch of one run
    is the run alone: its box is its problem's, a per-run value is its one
    row, and its draws are its stream, so it makes the numpy calls of a run
    alone. Its six `size == 1` branches are for speed, not bits: without
    them the records are the same, but a solo dvo sweep (three_bar_truss, 30
    agents) took ~20% longer and six baselines on the engineering problems
    made 5% fewer evaluations per second (numpy 2.4.6, an AVX-512 Xeon)."""

    def __init__(self, problems, streams):
        if len({problem.dim for problem in problems}) != 1:
            raise ValueError("the runs of a batch must share one dimension")
        self.problems = tuple(problems)
        self.streams = tuple(streams)
        self.size = len(self.problems)
        self.span = np.array([problem.span for problem in problems])
        self.diameter = np.array([problem.diameter for problem in problems])
        self.lower = self.spread(np.array([problem.lower for problem in problems]))
        self.upper = self.spread(np.array([problem.upper for problem in problems]))

    def stacked(self, rows) -> Array:
        """A run-major array of rows as an (R, rows per run, ...) view."""
        if self.size == 1:
            return rows
        return rows.reshape(self.size, -1, *rows.shape[1:])

    def flat(self, stack) -> Array:
        """An (R, rows per run, ...) stack as one run-major array of rows."""
        if self.size == 1:
            return stack
        return stack.reshape(-1, *stack.shape[2:])

    def spread(self, values) -> Array:
        """Per-run values (one row per run) shaped to broadcast against a
        three-dimensional stack, (R, n, ...)."""
        if self.size == 1:
            return values[0]
        return values.reshape(self.size, *(1,) * (3 - values.ndim), *values.shape[1:])

    def at(self, values, agents, n: int):
        """Per-run values (one row per run) at the runs of `agents`, one row
        per agent, given `n` agents per run."""
        if self.size == 1:
            return values[0]
        return values.take(agents // n, axis=0)

    def draws(self, n: int):
        """The draws of a population of `n` agents per run."""
        if self.size == 1:
            return self.streams[0]
        return rng_module.RunDraws(self.streams, list(range(0, self.size * n + 1, n)))

    def each(self, draw: str, *args) -> Array:
        """Every run's `stream.<draw>(*args)`, stacked on a new leading axis
        (a run alone's as it is): run r's entry is what its solo sweep draws
        there."""
        if self.size == 1:
            return getattr(self.streams[0], draw)(*args)
        return np.array([getattr(stream, draw)(*args) for stream in self.streams])


class Group(NamedTuple):
    """Runs of one optimizer that `run_optimizer` steps as one `Batch`: the
    name their records carry, the optimizer's (init, sweep) pair, its
    settings (they give `n_agents` and `iterations`) and the runs as
    (problem, seed, run_index) triples of one dimension."""

    algorithm: str
    init: Callable
    sweep: Callable
    settings: object
    runs: Sequence


def initial_population(batch: Batch, n: int):
    """Each run's initial population: n points per run of `batch` drawn
    uniformly in its box, yielded for evaluation in the batch's stacked
    shape; returns (positions, fitness) in that shape."""
    draws = batch.each("random", (n, batch.problems[0].dim))
    positions = batch.lower + draws * batch.spread(batch.span)
    fitness = yield positions
    return positions, fitness


def _lifetime(group: Group, batch: Batch):
    """A group's runs from start to end as one generator: it yields each
    block of points to evaluate, in the batch's stacked shape, and returns
    (best positions one row per run, best values, traces)."""
    settings = group.settings
    state = group.init(*(yield from initial_population(batch, settings.n_agents)), settings)
    trace = np.empty((batch.size, settings.iterations))
    for t in range(settings.iterations):
        best_positions, best_values = yield from group.sweep(state, t, settings, batch)
        trace[:, t] = best_values
    return best_positions.reshape(batch.size, -1), best_values, trace


def _calls(blocks: dict, batches: list) -> list:
    """The objective calls of one round of the groups in `blocks` (group
    index -> its block of points), as (problem, stream, parts) triples, each
    part a [group, first row, end row] range of a block's run-major rows.
    The runs that share a problem object make one call if it is vectorized
    and not noisy; every other run makes its own, with its own stream."""
    calls = {}
    for g, block in blocks.items():
        batch = batches[g]
        n = block.shape[-2]
        for r, (problem, stream) in enumerate(zip(batch.problems, batch.streams)):
            key = problem if problem.vectorized and not problem.noisy else stream
            parts = calls.setdefault(key, (problem, stream, []))[2]
            if parts and parts[-1][0] == g and parts[-1][2] == r * n:
                parts[-1][2] += n
            else:
                parts.append([g, r * n, (r + 1) * n])
    return list(calls.values())


def _evaluate(blocks: dict, calls: list, seconds: list) -> dict:
    """Each group's objective values of its block of points, in the block's
    stacked shape, from one `benchmarks.evaluate` call per entry of `calls`
    (see `_calls`) on the parts' rows, in order; each call's time is shared
    out among the groups by their rows."""
    clock = time.perf_counter
    fitness = {}
    last = clock()
    for problem, stream, parts in calls:
        rows = []
        for g, lo, hi in parts:
            block = blocks[g]
            rows.append(block.reshape(-1, block.shape[-1])[lo:hi])
            if g not in fitness:
                fitness[g] = np.empty(block.shape[:-1])
        # the rows of one part are evaluated where they are, with no copy
        points = rows[0] if len(rows) == 1 else np.concatenate(rows)
        values = benchmarks.evaluate(problem, points, stream)
        offset = 0
        for g, lo, hi in parts:
            fitness[g].reshape(-1)[lo:hi] = values[offset : offset + hi - lo]
            offset += hi - lo
        now = clock()
        share = (now - last) / offset
        last = now
        for g, lo, hi in parts:
            seconds[g] += share * (hi - lo)
    return fitness


def run_optimizer(
    groups, checkpoints=DEFAULT_CHECKPOINTS, feasibility_tol=benchmarks.DEFAULT_FEASIBILITY_TOL
) -> list:
    """Seeded runs of any optimizers stepped together, one RunRecord per run.

    Each `Group` steps as one `Batch`, and the groups step in lockstep,
    each sweeping until its own `iterations`: every run's record is bitwise
    the record it gets alone, wall time aside. An optimizer is a pair:
    `init(positions, fitness, settings)` builds the state from the runs'
    evaluated initial populations, and `sweep(state, t, settings, batch)`
    is a generator that advances every run of the batch by sweep `t`. It
    yields the block of points it needs evaluated, receives their values
    and returns (each run's best position, as one row or a one-agent
    population per run, each run's best value) so far. Points and values
    have the batch's stacked shape (see `Batch`); the driver clips each
    block in place (`clip_bounds`), turns it into run-major rows for the
    objective calls and each group's values back into its block's shape
    (`_evaluate`). Each round the driver takes the blocks of every group
    still running and evaluates them together (see `_calls`), so the runs
    of the groups that share a problem object share its calls. The
    evaluation count sums the rows per run of the evaluated blocks and the
    trace keeps the best value after each sweep. A record's `walltime_ms`
    is its group's time, the group's own steps (its clips among them) plus
    its row share of each objective call, divided by the group's runs. A
    record is feasible at `feasibility_tol`. The records come group by
    group, each in run order.
    """
    clock = time.perf_counter
    batches, lifetimes, seconds = [], [], []
    for group in groups:
        started = clock()
        problems, seeds, _ = zip(*group.runs)
        batch = Batch(problems, [RngStream(seed) for seed in seeds])
        batches.append(batch)
        lifetimes.append(_lifetime(group, batch))
        seconds.append(clock() - started)
    results, evaluations = [None] * len(batches), [0] * len(batches)
    # each running group's values of its last block (None to start it)
    replies = dict.fromkeys(range(len(batches)))
    calls = None
    while replies:
        blocks = {}
        last = clock()
        for g, values in replies.items():
            try:
                block = lifetimes[g].send(values)
            except StopIteration as done:
                results[g] = done.value
            else:
                blocks[g] = clip_bounds(block, batches[g])
                evaluations[g] += block.shape[-2]
            now = clock()
            seconds[g] += now - last
            last = now
        # the calls change only when a group ends
        if calls is None or len(blocks) < len(replies):
            calls = _calls(blocks, batches)
        replies = _evaluate(blocks, calls, seconds)
    records = []
    for group, batch, spent, count, result in zip(groups, batches, seconds, evaluations, results):
        best_positions, best_values, trace = result
        walltime_ms = spent * 1e3 / batch.size
        records.extend(
            build_record(
                algorithm=group.algorithm,
                problem=problem,
                run_index=run_index,
                seed=seed,
                best_position=best_positions[r],
                best_value=best_values[r],
                trace=trace[r],
                evaluations=count,
                walltime_ms=walltime_ms,
                checkpoint_iters=checkpoints,
                feasibility_tol=feasibility_tol,
            )
            for r, (problem, seed, run_index) in enumerate(group.runs)
        )
    return records


def sweep(state: DvoState, t: int, params: DvoParams, batch: Batch):
    """dvo's sweep for `run_optimizer`: `propose` at the driver's sweep
    index `t`, yield the proposals, `step` on their values, and report each
    run's best drain. The proposals cross the yield in the batch's stacked
    shape, and `step` gets them back as the state's run-major rows."""
    proposals, phase, splashed = propose(state, t, params, batch)
    fitness = yield proposals
    step(state, batch.flat(proposals), batch.flat(fitness), phase, splashed, params, batch)
    k = params.n_drains
    return state.drains[::k], state.drain_fitness[::k]


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
    group = Group(algorithm, initialize, sweep, params, [(problem, seed, run_index)])
    return run_optimizer([group], checkpoints)[0]

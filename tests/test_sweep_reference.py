"""Batched dvo sweep against the per-agent loops.

The spiral tangents and angles, the switch destinations and the distances of
switched agents are computed for whole blocks of agents, while the random
stream is consumed exactly as the per-agent loops below consume it. Records
stay bitwise identical only if every value has the same bytes as the
per-agent loop gave and the stream ends at the same position. The functions
from `_reference_spiral_update` down to `_reference_step` below are those
loops; the helpers they call are the engine's own.

`_reference_tangents` is the documented spiral draw order written agent by
agent: d normals for each spiral agent in turn, then one uniform angle for
each, then a redraw through `tangent_unit_vector` of each row whose
projection is degenerate, in ascending row order (the redrawn row keeps its
angle). Each row's projection and normalisation are the arithmetic of
`tangent_unit_vector`. `_reference_spiral_update` draws through it; before
the block order it drew, for each agent in turn, `tangent_unit_vector` and
then the angle.

The other functions are the earlier per-agent loops verbatim, with these
edits in `_reference_step`: it reads `params.n_drains`, `True` and `True`
where it read `params.effective_drains`, `params.switching` and
`params.splash` (their values for every params passed here); the branch of
the removed `forced_splash_replacement` toggle, off for every params passed
here, is gone; and it no longer writes `prev_positions`, `prev_fitness`,
`best_position`, `best_value` and `evaluations`, which `DvoState` no longer
carries and no sweep read. The engine's `Bounds` is gone and `ProblemSpec`
carries the same `lower`, `upper`, `span` and `diameter`, so `_reference_step`
no longer takes `bounds`, reads `problem.diameter` where it read
`bounds.diameter`, and passes `problem` where it passed `bounds` to
`far_field_update`, `splash_out` and `clip_bounds`. `DvoState` no longer
counts its sweeps, so `_reference_step` takes the sweep index `t` and reads it
where it read `state.t`, and no longer increments `state.t`;
`test_step_bitwise` hands each sweep's index to it and to `engine.sweep`.
`DvoState` no longer carries the last sweep's `assignment`, `rho` and
`phase`, which only tests read, so `_reference_step` no longer writes them
and returns the sweep's `phase` and `splashed` instead of `state`, for
`test_step_bitwise` to check which branches its inputs reached.
`DvoParams.core_radius` (an absolute length, `None` meaning 0.1 of the
diameter) became the fraction `core_fraction`, so `_reference_step` reads
`params.core_fraction * problem.diameter` where it read that sentinel.
`far_field_update` takes the box's span (one row per agent in a batch of
runs) where it took the problem, so `_reference_step` passes `problem.span`.
A dvo sweep is the generator `engine.sweep` over an `engine.Batch`, which
yields its proposals for evaluation, so `test_step_bitwise` drives it for
the batch of its one run with `benchmarks.evaluate` (conftest's `drive`).
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import drive

from drainvortex import benchmarks, engine
from drainvortex import rng as rng_module
from drainvortex.engine import (
    ABLATION_VARIANTS,
    Batch,
    DvoParams,
    Phase,
    _draw_tangents,
    assign_drains,
    clip_bounds,
    core_update,
    drain_probabilities,
    elitist_drains,
    exploration_scale,
    far_field_update,
    initial_population,
    initialize,
    select_phase,
    selection_pressure,
    shrink_factor,
    spiral_update,
    splash_out,
    stagnation_update,
    stochastic_switch,
    swirl_speed,
)
from drainvortex.rng import RngStream, tangent_unit_vector

SEEDS = range(60)
DIMS = (2, 10, 30)

# ---------------------------------------------------------------------------
# reference: the per-agent loops, verbatim
# ---------------------------------------------------------------------------


def _reference_spiral_update(
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
    positions = np.atleast_2d(positions)
    targets = np.atleast_2d(targets)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    n, d = positions.shape

    radial = (positions - targets) / (radii[:, None] + params.epsilon)
    use_swirl = params.swirl
    if use_swirl and tangents is None:
        tangents, drawn_angles = _reference_tangents(radial, rng)
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


def _reference_tangents(radial, rng):
    n, d = radial.shape
    if d < 2:
        raise ValueError("tangent direction requires dimension >= 2")
    units = []
    for i in range(n):
        scale = np.linalg.norm(radial[i])
        if scale == 0.0:
            raise ValueError("radial direction must be nonzero")
        units.append(radial[i] / scale)
    normals = [rng.standard_normal(d) for _ in range(n)]
    drawn_angles = np.empty(n)
    for i in range(n):
        drawn_angles[i] = 2.0 * math.pi * rng.random()
    tangents = np.empty((n, d))
    degenerate = []
    for i in range(n):
        g, unit = normals[i], units[i]
        t = g - (g @ unit) * unit
        norm = np.linalg.norm(t)
        if norm >= rng_module._TANGENT_FLOOR:
            tangents[i] = t / norm
        else:
            degenerate.append(i)
    for i in degenerate:
        tangents[i] = tangent_unit_vector(radial[i], rng)
    return tangents, drawn_angles


def _reference_stochastic_switch(assignment, probs, switch_prob, rng: RngStream):
    k = probs.size
    if k < 2 or switch_prob <= 0.0:
        return assignment
    out = np.array(assignment, dtype=int, copy=True)
    u = rng.random(out.size)
    for i in np.where(u < switch_prob)[0]:
        w = probs.copy()
        w[out[i]] = 0.0
        cum = np.cumsum(w)
        cum /= cum[-1]
        cum[-1] = 1.0
        out[i] = int(np.searchsorted(cum, rng.random(), side="right"))
    return out


def _reference_step(state, t, params: DvoParams, problem, rng: RngStream):
    n, d = state.positions.shape
    k = params.n_drains  # was params.effective_drains
    scale = exploration_scale(t, params.iterations)  # was state.t
    pressure = selection_pressure(
        t, params.iterations, params.pressure_start, params.pressure_end  # was state.t
    )
    probs = drain_probabilities(k, pressure)

    assignment, rho = assign_drains(
        state.positions, state.drains, probs, problem.diameter, params.epsilon
    )
    if True:  # was params.switching, True for every params passed here
        switched = _reference_stochastic_switch(assignment, probs, params.switch_prob, rng)
        moved = switched != assignment
        if moved.any():
            rho = rho.copy()
            for i in np.where(moved)[0]:
                dist = float(np.linalg.norm(state.positions[i] - state.drains[switched[i]]))
                rho[i] = min(dist / problem.diameter, 1.0)
            assignment = switched

    phase = select_phase(rho, params.far_threshold, params.near_threshold)
    targets = state.drains[assignment]
    proposals = state.positions.copy()

    far = np.where(phase == Phase.FAR)[0]
    if far.size:
        proposals[far] = far_field_update(
            state.positions[far], targets[far], scale, params, problem.span, rng
        )

    spiral = np.where(phase == Phase.SPIRAL)[0]
    if spiral.size:
        radii = rho[spiral] * problem.diameter
        proposals[spiral] = _reference_spiral_update(
            state.positions[spiral], targets[spiral], radii, rho[spiral], scale, params, rng
        )

    core = np.where(phase == Phase.CORE)[0]
    splashed = np.zeros(n, dtype=bool)
    if core.size:
        sigma0 = params.core_fraction * problem.diameter
        if True and params.splash_prob > 0.0:  # was params.splash, always True here
            eligible = core[state.stagnation[core] >= params.stay_limit]
            if eligible.size:
                u = rng.random(eligible.size)
                splashed[eligible[u < params.splash_prob]] = True
        sample = core[~splashed[core]]
        if sample.size:
            proposals[sample] = core_update(targets[sample], scale, sigma0, rng)
        for i in np.where(splashed)[0]:
            proposals[i] = splash_out(state.drains[0], params, problem, rng)

    proposals = clip_bounds(proposals, problem)
    new_fitness = benchmarks.evaluate(problem, proposals, rng)

    improved = new_fitness < state.fitness
    if params.greedy_update:
        accept = improved | splashed
    else:
        accept = np.ones(n, dtype=bool)
    prev_positions = state.positions
    prev_fitness = state.fitness
    positions = np.where(accept[:, None], proposals, state.positions)
    fitness = np.where(accept, new_fitness, state.fitness)

    drains, drain_fitness = elitist_drains(
        positions, fitness, prev_positions, prev_fitness, state.drains, state.drain_fitness, k
    )

    state.stagnation = stagnation_update(state.stagnation, phase, improved, splashed)
    state.positions = positions
    state.fitness = fitness
    state.drains = drains
    state.drain_fitness = drain_fitness
    return phase, splashed  # was state.assignment/rho/phase = ...; return state


# ---------------------------------------------------------------------------
# inputs and comparisons
# ---------------------------------------------------------------------------

STATE_FIELDS = (
    "positions",
    "fitness",
    "drains",
    "drain_fitness",
    "stagnation",
)


def spiral_inputs(d, seed):
    """Spiral agents as `step` hands them over: a block of positions, their
    drains, and radii and rho from the distance between them."""
    gen = np.random.default_rng([d, seed])
    m = int(gen.integers(1, 31))
    half = 10.0 ** gen.uniform(-3, 2)
    positions = gen.uniform(-half, half, (m, d))
    targets = positions + gen.normal(0.0, half / 10.0, (m, d))
    diameter = 2.0 * half * math.sqrt(d)
    rho = np.minimum(np.linalg.norm(positions - targets, axis=1) / diameter, 1.0)
    return positions, targets, rho * diameter, rho


def radial_of(positions, targets, radii, params=DvoParams()):
    return (positions - targets) / (radii[:, None] + params.epsilon)


def assert_same_stream(a: RngStream, b: RngStream):
    assert a.random(4).tobytes() == b.random(4).tobytes()
    assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()


def assert_same_state(got, want):
    for name in STATE_FIELDS:
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestSpiralDraws:
    @pytest.mark.parametrize("d", DIMS)
    def test_tangents_and_angles_bitwise(self, d):
        for seed in SEEDS:
            radial = radial_of(*spiral_inputs(d, seed)[:3])
            ours, theirs = RngStream(seed), RngStream(seed)
            tangents, angles = _draw_tangents(radial, ours)
            want_tangents, want_angles = _reference_tangents(radial, theirs)
            assert tangents.tobytes() == want_tangents.tobytes()
            assert angles.tobytes() == want_angles.tobytes()
            assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("swirl", [True, False])
    def test_spiral_update_bitwise(self, d, swirl):
        params = DvoParams(swirl=swirl)
        for seed in SEEDS:
            positions, targets, radii, rho = spiral_inputs(d, seed)
            scale = 2.0 * (seed % 7) / 6.0
            ours, theirs = RngStream(seed), RngStream(seed)
            got = spiral_update(positions, targets, radii, rho, scale, params, ours)
            want = _reference_spiral_update(positions, targets, radii, rho, scale, params, theirs)
            assert got.tobytes() == want.tobytes()
            assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("d,floor", [(2, 0.3), (10, 2.0), (30, 4.5)])
    def test_degenerate_rows_replay_the_per_agent_loop(self, monkeypatch, d, floor):
        # a floor this high makes some projections degenerate; only those rows
        # are redrawn, after both blocks, as the per-agent loop redraws them
        monkeypatch.setattr(rng_module, "_TANGENT_FLOOR", floor)
        calls = []

        def counted(radial, rng):
            calls.append(1)
            return tangent_unit_vector(radial, rng)

        monkeypatch.setattr(engine, "tangent_unit_vector", counted)
        partial = 0
        for seed in SEEDS:
            radial = radial_of(*spiral_inputs(d, seed)[:3])
            calls.clear()
            ours, theirs = RngStream(seed), RngStream(seed)
            tangents, angles = _draw_tangents(radial, ours)
            want_tangents, want_angles = _reference_tangents(radial, theirs)
            assert tangents.tobytes() == want_tangents.tobytes()
            assert angles.tobytes() == want_angles.tobytes()
            assert_same_stream(ours, theirs)
            assert len(calls) <= radial.shape[0]
            partial += 0 < len(calls) < radial.shape[0]
        assert partial >= len(SEEDS) // 2

    def test_one_dimension_raises_before_any_draw(self):
        params = DvoParams()
        positions = np.array([[0.5], [-0.25]])
        targets = np.zeros((2, 1))
        rho = np.array([0.5, 0.25])
        ours = RngStream(3)
        with pytest.raises(ValueError, match="dimension >= 2"):
            spiral_update(positions, targets, rho, rho, 1.0, params, ours)
        assert_same_stream(ours, RngStream(3))

    def test_zero_radial_raises_at_the_same_stream_position(self):
        positions, targets, radii, rho = spiral_inputs(10, 5)
        targets[-1] = positions[-1]
        radial = radial_of(positions, targets, radii)
        ours, theirs = RngStream(5), RngStream(5)
        with pytest.raises(ValueError, match="nonzero"):
            _draw_tangents(radial, ours)
        with pytest.raises(ValueError, match="nonzero"):
            _reference_tangents(radial, theirs)
        # both raise before any draw
        assert_same_stream(ours, RngStream(5))
        assert_same_stream(theirs, RngStream(5))


# pressures c*(k-1) give the second drain the weight exp(-c): tiny at c=700
# and subnormal at 740 and 744, with every later weight 0.0, so a mover from
# the best drain renormalizes by a total of that one weight
UNDERFLOW_SCALES = (700, 740, 744)


class TestSwitch:
    @pytest.mark.parametrize("k,switch_prob", itertools.product((2, 3, 6), (0.08, 1.0)))
    def test_destinations_bitwise(self, k, switch_prob):
        from_best = 0
        for seed in SEEDS:
            gen = np.random.default_rng([k, seed])
            pressure = gen.uniform(0.0, 6.0)
            assignment = gen.integers(0, k, 30)
            for p in (pressure, *(c * (k - 1) for c in UNDERFLOW_SCALES)):
                probs = drain_probabilities(k, p)
                ours, theirs = RngStream(seed), RngStream(seed)
                got, moved = stochastic_switch(assignment, probs, switch_prob, ours)
                want = _reference_stochastic_switch(assignment, probs, switch_prob, theirs)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert moved.tobytes() == np.flatnonzero(want != assignment).tobytes()
                assert_same_stream(ours, theirs)
                if p != pressure:
                    from_best += np.count_nonzero(want[assignment == 0] != 0)
        assert from_best > 0


# the full algorithm at every (dimension, drains, switch probability), then
# each other ablation variant and a core cloud narrower than the default at
# one of them; the last item of a case is its overrides of DvoParams
SWEEP_CASES = (
    [
        pytest.param(d, k, switch_prob, {}, id=f"{d}-{k}-{switch_prob}")
        for d, k, switch_prob in itertools.product(DIMS, (2, 6), (0.08, 1.0))
    ]
    + [
        pytest.param(10, 6, 0.08, ABLATION_VARIANTS[variant], id=f"{variant}-10-6-0.08")
        for variant in ABLATION_VARIANTS
        if variant != "full"
    ]
    + [pytest.param(10, 6, 0.08, {"core_fraction": 0.02}, id="core_fraction_0.02-10-6-0.08")]
)


class TestSweep:
    @pytest.mark.parametrize("d,k,switch_prob,overrides", SWEEP_CASES)
    def test_step_bitwise(self, d, k, switch_prob, overrides):
        # a short schedule drives agents from far field through the spiral
        # into the core, where a low stay limit lets splashes fire
        base = DvoParams(
            n_agents=12,
            n_drains=k,
            iterations=12,
            switch_prob=switch_prob,
            stay_limit=1,
            splash_prob=0.5,
        )
        params = replace(base, **overrides)
        seen, splashes = set(), 0
        for seed in range(50):
            problem = benchmarks.get_problem(("F1", "F7", "F9")[seed % 3], d)
            ours, theirs = RngStream(seed), RngStream(seed)
            ours_batch = Batch((problem,), (ours,))
            theirs_batch = Batch((problem,), (theirs,))
            got = initialize(
                *drive(initial_population(ours_batch, params.n_agents), ours_batch), params
            )
            want = initialize(
                *drive(initial_population(theirs_batch, params.n_agents), theirs_batch), params
            )
            for t in range(params.iterations):
                drive(engine.sweep(got, t, params, ours_batch), ours_batch)
                phase, splashed = _reference_step(want, t, params, problem, theirs)
                assert_same_state(got, want)
                seen.update(int(p) for p in phase)
                splashes += int(splashed.sum())
            assert_same_stream(ours, theirs)
        # in 30 dimensions two uniform points lie about 0.41 of the diameter
        # apart, with little spread, so an agent is seldom farther than the
        # far threshold from its drain; some d=30 cases never reach it
        assert {Phase.SPIRAL, Phase.CORE} <= seen
        assert Phase.FAR in seen or d == 30
        assert (splashes > 0) == (params.splash_prob > 0.0)

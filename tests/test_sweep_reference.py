"""Batched dvo sweep against the per-agent loops.

The spiral tangents and angles, the switch destinations and the distances of
switched agents are computed for whole blocks of agents, while the random
stream is consumed exactly as one agent at a time did. Records stay bitwise
identical only if every value has the same bytes as the per-agent loop gave
and the stream ends at the same position. The functions from
`_reference_spiral_update` down to `_reference_step` below are those loops,
kept verbatim as the reference; the helpers they call are the engine's own.
"""

import itertools
import math

import numpy as np
import pytest

from drainvortex import benchmarks, engine
from drainvortex import rng as rng_module
from drainvortex.engine import (
    Bounds,
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
    step,
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
        tangents = np.empty((n, d))
        drawn_angles = np.empty(n)
        for i in range(n):
            tangents[i] = tangent_unit_vector(radial[i], rng)
            drawn_angles[i] = 2.0 * math.pi * rng.random()
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
    tangents = np.empty((n, d))
    drawn_angles = np.empty(n)
    for i in range(n):
        tangents[i] = tangent_unit_vector(radial[i], rng)
        drawn_angles[i] = 2.0 * math.pi * rng.random()
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


def _reference_step(state, params: DvoParams, problem, bounds: Bounds, rng: RngStream):
    n, d = state.positions.shape
    k = params.n_drains  # was params.effective_drains
    scale = exploration_scale(state.t, params.iterations)
    pressure = selection_pressure(
        state.t, params.iterations, params.pressure_start, params.pressure_end
    )
    probs = drain_probabilities(k, pressure)

    assignment, rho = assign_drains(
        state.positions, state.drains, probs, bounds.diameter, params.epsilon
    )
    if True:  # was params.switching, True for every params passed here
        switched = _reference_stochastic_switch(assignment, probs, params.switch_prob, rng)
        moved = switched != assignment
        if moved.any():
            rho = rho.copy()
            for i in np.where(moved)[0]:
                dist = float(np.linalg.norm(state.positions[i] - state.drains[switched[i]]))
                rho[i] = min(dist / bounds.diameter, 1.0)
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
        proposals[spiral] = _reference_spiral_update(
            state.positions[spiral], targets[spiral], radii, rho[spiral], scale, params, rng
        )

    core = np.where(phase == Phase.CORE)[0]
    splashed = np.zeros(n, dtype=bool)
    if core.size:
        sigma0 = (
            params.core_radius if params.core_radius is not None else 0.1 * bounds.diameter
        )
        if True and params.splash_prob > 0.0:  # was params.splash, always True here
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

    improved = new_fitness < state.fitness
    if params.greedy_update:
        accept = improved | splashed
    else:
        accept = np.ones(n, dtype=bool)
    prev_positions = state.positions
    prev_fitness = state.fitness
    positions = np.where(accept[:, None], proposals, state.positions)
    fitness = np.where(accept, new_fitness, state.fitness)

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
    state.evaluations += n
    state.t += 1
    return state


# ---------------------------------------------------------------------------
# inputs and comparisons
# ---------------------------------------------------------------------------

STATE_FIELDS = (
    "positions",
    "fitness",
    "prev_positions",
    "prev_fitness",
    "drains",
    "drain_fitness",
    "stagnation",
    "best_position",
    "assignment",
    "rho",
    "phase",
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
    assert got.best_value == want.best_value
    assert got.evaluations == want.evaluations and got.t == want.t


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
        # a floor this high makes some first projections degenerate, so the
        # per-agent loop redraws them; the batch must rewind and replay it
        monkeypatch.setattr(rng_module, "_TANGENT_FLOOR", floor)
        calls = []

        def counted(radial, rng):
            calls.append(1)
            return tangent_unit_vector(radial, rng)

        monkeypatch.setattr(engine, "tangent_unit_vector", counted)
        replayed = 0
        for seed in SEEDS:
            radial = radial_of(*spiral_inputs(d, seed)[:3])
            calls.clear()
            ours, theirs = RngStream(seed), RngStream(seed)
            tangents, angles = _draw_tangents(radial, ours)
            want_tangents, want_angles = _reference_tangents(radial, theirs)
            assert tangents.tobytes() == want_tangents.tobytes()
            assert angles.tobytes() == want_angles.tobytes()
            assert_same_stream(ours, theirs)
            assert len(calls) in (0, radial.shape[0])
            replayed += bool(calls)
        assert replayed >= len(SEEDS) // 2

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
        assert_same_stream(ours, theirs)


class TestSwitch:
    @pytest.mark.parametrize("k,switch_prob", itertools.product((2, 6), (0.08, 1.0)))
    def test_destinations_bitwise(self, k, switch_prob):
        for seed in SEEDS:
            gen = np.random.default_rng([k, seed])
            probs = drain_probabilities(k, gen.uniform(0.0, 6.0))
            assignment = gen.integers(0, k, 30)
            ours, theirs = RngStream(seed), RngStream(seed)
            got = stochastic_switch(assignment, probs, switch_prob, ours)
            want = _reference_stochastic_switch(assignment, probs, switch_prob, theirs)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert_same_stream(ours, theirs)


class TestSweep:
    @pytest.mark.parametrize(
        "d,k,switch_prob", itertools.product(DIMS, (2, 6), (0.08, 1.0))
    )
    def test_step_bitwise(self, d, k, switch_prob):
        # a short schedule drives agents from far field through the spiral
        # into the core, where a low stay limit lets splashes fire
        params = DvoParams(
            n_agents=12,
            n_drains=k,
            iterations=12,
            switch_prob=switch_prob,
            stay_limit=1,
            splash_prob=0.5,
        )
        seen = set()
        for seed in range(50):
            problem = benchmarks.get_problem(("F1", "F7", "F9")[seed % 3], d)
            bounds = Bounds.of(problem)
            ours, theirs = RngStream(seed), RngStream(seed)
            got = initialize(*initial_population(problem, params.n_agents, ours), params)
            want = initialize(*initial_population(problem, params.n_agents, theirs), params)
            for _ in range(params.iterations):
                step(got, params, problem, bounds, ours)
                _reference_step(want, params, problem, bounds, theirs)
                assert_same_state(got, want)
                seen.update(int(p) for p in got.phase)
            assert_same_stream(ours, theirs)
        assert {Phase.SPIRAL, Phase.CORE} <= seen

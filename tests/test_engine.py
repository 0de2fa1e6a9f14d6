"""Engine unit tests.

Covers the schedules, drain bookkeeping, per-phase moves, acceptance and
stagnation rules, parameter validation, and one fully manual replay of a
sweep where every random draw is mirrored on a twin stream and every
update is recomputed from the documented formulas.
"""

import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import drive
from hypothesis import given, strategies as st

from drainvortex import benchmarks
from drainvortex import rng as rng_module
from drainvortex.engine import (
    ABLATION_VARIANTS,
    Batch,
    DvoParams,
    DvoState,
    Phase,
    assign_drains,
    clip_bounds,
    core_update,
    drain_probabilities,
    elitist_drains,
    exploration_scale,
    far_field_update,
    greedy_select,
    initial_population,
    initialize,
    k_best,
    run,
    select_phase,
    selection_pressure,
    shrink_factor,
    spiral_update,
    splash_out,
    stagnation_update,
    stochastic_switch,
    sweep,
    swirl_speed,
)
from drainvortex.errors import ConfigError
from drainvortex.rng import RngStream, levy_step, tangent_unit_vector


def sphere_problem(dim=2, half_width=10.0):
    return benchmarks.ProblemSpec(
        name="sphere-test",
        dim=dim,
        lower=np.full(dim, -half_width),
        upper=np.full(dim, half_width),
        objective=lambda x: float(np.sum(x * x)),
        f_true=0.0,
    )


class TestSchedules:
    def test_exploration_scale_endpoints(self):
        assert exploration_scale(0, 1000) == 2.0
        assert exploration_scale(999, 1000) == 0.0
        assert exploration_scale(5, 11) == 1.0

    def test_exploration_scale_decreases(self):
        values = [exploration_scale(t, 50) for t in range(50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_pressure_endpoints(self):
        assert selection_pressure(0, 200, 1.0, 6.0) == 1.0
        assert selection_pressure(199, 200, 1.0, 6.0) == 6.0

    @given(st.integers(0, 99))
    def test_pressure_is_linear(self, t):
        got = selection_pressure(t, 100, 2.0, 8.0)
        assert math.isclose(got, 2.0 + 6.0 * t / 99.0, rel_tol=0, abs_tol=1e-12)


class TestDrainProbabilities:
    def test_single_drain_is_exactly_one(self):
        assert np.array_equal(drain_probabilities(1, 3.7), np.ones(1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            drain_probabilities(0, 1.0)

    @given(st.integers(2, 12), st.floats(0.0, 12.0))
    def test_normalized(self, k, pressure):
        probs = drain_probabilities(k, pressure)
        assert probs.shape == (k,)
        assert (probs > 0).all()
        assert math.isclose(probs.sum(), 1.0, rel_tol=0, abs_tol=1e-12)

    @given(st.integers(2, 12), st.floats(0.01, 12.0))
    def test_strictly_decreasing_under_pressure(self, k, pressure):
        probs = drain_probabilities(k, pressure)
        assert (np.diff(probs) < 0).all()

    def test_zero_pressure_is_uniform(self):
        probs = drain_probabilities(5, 0.0)
        assert np.allclose(probs, 0.2, rtol=0, atol=1e-15)

    def test_pressure_concentrates_mass(self):
        low = drain_probabilities(6, 1.0)
        high = drain_probabilities(6, 6.0)
        assert high[0] > low[0]
        assert high[-1] < low[-1]


class TestAssignDrains:
    def test_tie_resolves_to_lowest_index(self):
        drains = np.array([[1.0, 1.0], [1.0, 1.0]])
        positions = np.array([[4.0, -3.0]])
        idx, rho = assign_drains(positions, drains, np.array([0.5, 0.5]), 10.0, 1e-12)
        assert idx[0] == 0

    def test_uniform_probs_pick_nearest(self):
        drains = np.array([[0.0, 0.0], [5.0, 5.0]])
        positions = np.array([[4.6, 4.6], [0.3, -0.1]])
        probs = np.array([0.5, 0.5])
        idx, rho = assign_drains(positions, drains, probs, 20.0, 1e-12)
        assert list(idx) == [1, 0]

    def test_strong_prior_overrides_distance(self):
        drains = np.array([[0.0, 0.0], [2.0, 0.0]])
        positions = np.array([[1.2, 0.0]])
        idx, _ = assign_drains(positions, drains, np.array([0.99, 0.01]), 10.0, 1e-12)
        assert idx[0] == 0

    def test_returns_normalized_distance_of_choice(self):
        drains = np.array([[0.0, 0.0]])
        positions = np.array([[3.0, 4.0]])
        _, rho = assign_drains(positions, drains, np.ones(1), 20.0, 1e-12)
        assert math.isclose(rho[0], 0.25, rel_tol=0, abs_tol=1e-15)

    def test_distance_clamped_at_one(self):
        drains = np.array([[0.0, 0.0]])
        positions = np.array([[30.0, 40.0]])
        _, rho = assign_drains(positions, drains, np.ones(1), 20.0, 1e-12)
        assert rho[0] == 1.0


class TestStochasticSwitch:
    def test_single_drain_consumes_no_randomness(self):
        a = RngStream(11)
        b = RngStream(11)
        out, moved = stochastic_switch(np.zeros(8, dtype=int), np.ones(1), 0.9, a)
        assert np.array_equal(out, np.zeros(8))
        assert moved.size == 0
        assert np.array_equal(a.random(5), b.random(5))

    def test_zero_probability_consumes_no_randomness(self):
        probs = drain_probabilities(4, 2.0)
        a = RngStream(12)
        b = RngStream(12)
        assignment = np.array([0, 1, 2, 3, 0])
        out, moved = stochastic_switch(assignment, probs, 0.0, a)
        assert np.array_equal(out, assignment)
        assert moved.size == 0
        assert np.array_equal(a.random(5), b.random(5))

    def test_certain_switch_always_moves(self):
        probs = drain_probabilities(3, 1.5)
        assignment = np.array([0, 1, 2, 1, 0, 2, 2, 1])
        out, moved = stochastic_switch(assignment, probs, 1.0, RngStream(13))
        assert (out != assignment).all()
        assert np.array_equal(moved, np.arange(assignment.size))
        assert ((out >= 0) & (out < 3)).all()

    def test_manual_replay(self):
        probs = drain_probabilities(3, 2.0)
        assignment = np.array([0, 1, 2, 0, 2, 1])
        out, moved = stochastic_switch(assignment, probs, 0.7, RngStream(14))

        twin = RngStream(14)
        expected = assignment.copy()
        u = twin.random(assignment.size)
        for i in np.where(u < 0.7)[0]:
            w = probs.copy()
            w[expected[i]] = 0.0
            cum = np.cumsum(w)
            cum /= cum[-1]
            cum[-1] = 1.0
            expected[i] = int(np.searchsorted(cum, twin.random(), side="right"))
        assert np.array_equal(out, expected)
        assert np.array_equal(moved, np.flatnonzero(expected != assignment))
        assert (u < 0.7).any()

    def test_mover_with_no_other_weight_keeps_its_drain(self):
        # every other drain's weight underflowed to 0, so agent 0 keeps its
        # drain without a 0/0 and is not reported as moved
        a, b = RngStream(16), RngStream(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, moved = stochastic_switch(np.array([0, 1]), np.array([1.0, 0.0, 0.0]), 1.0, a)
        assert list(out) == [0, 0]
        assert list(moved) == [1]
        # one uniform per agent, then one per mover, as for any other mover
        b.random(2)
        b.random(2)
        assert a.random() == b.random()

    def test_run_with_underflowed_weights_raises_no_warning(self):
        # pressure 5000 underflows every weight but the best drain's, and
        # every agent moves each sweep
        params = DvoParams(n_agents=12, iterations=20, pressure_end=5000.0, switch_prob=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(benchmarks.get_problem("F9", 10), params, seed=3)
        assert np.isfinite(record.best_value)

    def test_deterministic(self):
        probs = drain_probabilities(4, 3.0)
        assignment = np.arange(10) % 4
        first, _ = stochastic_switch(assignment, probs, 0.5, RngStream(15))
        second, _ = stochastic_switch(assignment, probs, 0.5, RngStream(15))
        assert np.array_equal(first, second)


class TestSelectPhase:
    def test_boundaries(self):
        rho = np.array([0.5, 0.5000001, 0.05, 0.0500001, 0.0, 1.0])
        phase = select_phase(rho, 0.5, 0.05)
        assert list(phase) == [
            Phase.SPIRAL,
            Phase.FAR,
            Phase.CORE,
            Phase.SPIRAL,
            Phase.CORE,
            Phase.FAR,
        ]

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_partition(self, values):
        rho = np.array(values)
        phase = select_phase(rho, 0.5, 0.05)
        far = rho > 0.5
        core = rho <= 0.05
        assert np.array_equal(phase == Phase.FAR, far)
        assert np.array_equal(phase == Phase.CORE, core)
        assert np.array_equal(phase == Phase.SPIRAL, ~(far | core))


class TestKBest:
    def test_equal_fitness_keeps_the_earlier_row_first(self):
        # a plateau (as on F6) gives many equal values; the earlier row wins.
        # 40 rows, as numpy's default sort is stable only on short arrays
        fitness = np.tile([2.0, 1.0, 2.0, 1.0, 0.5], 8)
        positions = np.arange(40.0)[:, None]
        rows, values = k_best(positions, fitness, 20)
        assert np.array_equal(values, [0.5] * 8 + [1.0] * 12)
        assert np.array_equal(rows[:, 0], [*range(4, 40, 5), 1, 3, 6, 8, 11, 13, 16, 18, 21, 23, 26, 28])


class TestElitistDrains:
    def test_selects_pool_best_in_order(self):
        positions = np.array([[1.0, 0.0], [2.0, 0.0]])
        fitness = np.array([5.0, 9.0])
        prev = np.array([[3.0, 0.0], [4.0, 0.0]])
        prev_fit = np.array([2.0, 7.0])
        drains = np.array([[9.0, 9.0]])
        drain_fit = np.array([4.0])
        out, out_fit = elitist_drains(positions, fitness, prev, prev_fit, drains, drain_fit, 3)
        assert np.array_equal(out_fit, [2.0, 4.0, 5.0])
        assert np.array_equal(out, [[3.0, 0.0], [9.0, 9.0], [1.0, 0.0]])

    def test_stable_on_ties(self):
        positions = np.array([[1.0], [2.0]])
        fitness = np.array([3.0, 3.0])
        prev = np.array([[5.0], [6.0]])
        prev_fit = np.array([3.0, 1.0])
        drains = np.array([[7.0]])
        drain_fit = np.array([3.0])
        out, out_fit = elitist_drains(positions, fitness, prev, prev_fit, drains, drain_fit, 4)
        # ties keep concatenation order: current, previous, old drains
        assert np.array_equal(out_fit, [1.0, 3.0, 3.0, 3.0])
        assert np.array_equal(out[:, 0], [6.0, 1.0, 2.0, 5.0])

    def test_returns_copies(self):
        positions = np.array([[1.0, 1.0]])
        fitness = np.array([1.0])
        out, out_fit = elitist_drains(
            positions, fitness, positions.copy(), fitness.copy(), positions.copy(), fitness.copy(), 1
        )
        out[0, 0] = 99.0
        out_fit[0] = 99.0
        assert positions[0, 0] == 1.0
        assert fitness[0] == 1.0


class TestFarField:
    def test_pure_drift_without_noise(self):
        params = DvoParams(far_drift=0.5, far_noise=0.0)
        problem = sphere_problem(2, 10.0)
        positions = np.array([[8.0, -6.0]])
        targets = np.array([[0.0, 2.0]])
        out = far_field_update(positions, targets, 1.0, params, problem.span, RngStream(3))
        assert np.allclose(out, [[4.0, -2.0]], rtol=0, atol=1e-15)

    def test_noise_replay(self):
        params = DvoParams()
        problem = sphere_problem(3, 5.0)
        positions = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 4.0]])
        targets = np.zeros((2, 3))
        scale = 1.2
        out = far_field_update(positions, targets, scale, params, problem.span, RngStream(4))

        noise = RngStream(4).standard_normal((2, 3))
        drift = params.far_drift * scale * (targets - positions)
        jitter = params.far_noise * (scale / 2.0) * (problem.span / math.sqrt(3)) * noise
        assert np.array_equal(out, positions + drift + jitter)


class TestSwirlAndShrink:
    def test_swirl_speed_formula(self):
        params = DvoParams(circulation=0.2, core_softening=0.01, swirl_cap=10.0)
        got = swirl_speed(np.array([0.19]), params)
        assert math.isclose(got[0], 1.0, rel_tol=0, abs_tol=1e-12)

    def test_swirl_speed_capped_near_core(self):
        params = DvoParams(circulation=0.2, core_softening=0.01, swirl_cap=10.0)
        assert swirl_speed(np.array([0.0]), params)[0] == 10.0
        assert swirl_speed(np.array([1e-9]), params)[0] == 10.0

    def test_shrink_adaptive_endpoints(self):
        params = DvoParams(shrink_gain=0.5, residual_shrink=0.1)
        radii = np.array([2.0])
        # scale 2 -> full contraction factor, scale 0 -> residual only
        assert math.isclose(shrink_factor(radii, 2.0, params)[0], 1.0, abs_tol=1e-12)
        assert math.isclose(shrink_factor(radii, 0.0, params)[0], 2.0 * 0.95, abs_tol=1e-12)

    def test_shrink_fixed_when_not_adaptive(self):
        params = DvoParams(shrink_gain=0.5, residual_shrink=1.0)
        radii = np.array([2.0, 4.0])
        for scale in (0.0, 1.0, 2.0):
            assert np.allclose(shrink_factor(radii, scale, params), [1.0, 2.0], atol=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(0.001, 50.0))
    def test_shrink_stays_inside_radius(self, gain, residual, scale, radius):
        params = DvoParams(shrink_gain=gain, residual_shrink=residual)
        s = shrink_factor(np.array([radius]), scale, params)[0]
        assert 0.0 <= s <= radius + 1e-12


class TestSpiral:
    def orthonormal_tangent(self, radial):
        unit = radial / np.linalg.norm(radial)
        probe = np.zeros_like(unit)
        probe[int(np.argmin(np.abs(unit)))] = 1.0
        t = probe - (probe @ unit) * unit
        return t / np.linalg.norm(t)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_distance_identity(self, dim, salt):
        rng = np.random.default_rng(salt)
        params = DvoParams()
        target = rng.uniform(-5, 5, dim)
        offset = rng.uniform(-4, 4, dim)
        offset[0] += 4.5  # keep a safe distance from the drain
        position = target + offset
        radius = float(np.linalg.norm(offset))
        rho = min(radius / 40.0, 1.0)
        scale = rng.uniform(0.0, 2.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        tangent = self.orthonormal_tangent(offset)

        out = spiral_update(
            position[None, :],
            target[None, :],
            np.array([radius]),
            np.array([rho]),
            scale,
            params,
            RngStream(0),
            angles=np.array([angle]),
            tangents=tangent[None, :],
        )
        s = shrink_factor(np.array([radius]), scale, params)[0]
        v_theta = swirl_speed(np.array([rho]), params)[0]
        expected = s * math.sqrt(math.cos(angle) ** 2 + (v_theta * math.sin(angle)) ** 2)
        assert math.isclose(np.linalg.norm(out[0] - target), expected, rel_tol=0, abs_tol=1e-9)

    def test_without_swirl_is_radial_contraction(self):
        params = DvoParams(swirl=False, shrink_gain=0.5, residual_shrink=1.0)
        target = np.zeros(2)
        position = np.array([3.0, 4.0])
        out = spiral_update(
            position[None, :],
            target[None, :],
            np.array([5.0]),
            np.array([0.25]),
            1.0,
            params,
            RngStream(0),
            angles=np.array([0.0]),
        )
        # cos(0) = 1 and s = r/2: the point moves halfway in along the radius
        assert np.allclose(out, [[1.5, 2.0]], rtol=0, atol=1e-9)

    def test_swirl_off_with_given_angles_draws_nothing(self):
        params = DvoParams(swirl=False)
        a = RngStream(9)
        b = RngStream(9)
        spiral_update(
            np.array([[2.0, 2.0]]),
            np.zeros((1, 2)),
            np.array([math.sqrt(8.0)]),
            np.array([0.3]),
            1.0,
            params,
            a,
            angles=np.array([1.0]),
        )
        assert np.array_equal(a.random(4), b.random(4))

    def test_swirl_off_draws_one_angle_block(self):
        params = DvoParams(swirl=False)
        a = RngStream(10)
        out = spiral_update(
            np.array([[2.0, 2.0], [1.0, 3.0]]),
            np.zeros((2, 2)),
            np.array([math.sqrt(8.0), math.sqrt(10.0)]),
            np.array([0.3, 0.2]),
            1.0,
            params,
            a,
        )
        twin = RngStream(10)
        angles = 2.0 * math.pi * twin.random(2)
        expected = spiral_update(
            np.array([[2.0, 2.0], [1.0, 3.0]]),
            np.zeros((2, 2)),
            np.array([math.sqrt(8.0), math.sqrt(10.0)]),
            np.array([0.3, 0.2]),
            1.0,
            params,
            RngStream(99),
            angles=angles,
        )
        assert np.array_equal(out, expected)


class TestCoreAndSplash:
    def test_core_replay(self):
        targets = np.array([[1.0, -1.0], [0.5, 0.5]])
        out = core_update(targets, 1.8, 2.0, RngStream(21))
        eta = RngStream(21).standard_normal((2, 2))
        sigma_t = 2.0 * 1.8 / 2.0
        assert np.array_equal(out, targets + sigma_t / math.sqrt(2) * eta)

    def test_core_collapses_at_zero_scale(self):
        targets = np.array([[1.0, -1.0]])
        out = core_update(targets, 0.0, 2.0, RngStream(22))
        assert np.array_equal(out, targets)

    def test_splash_replay(self):
        params = DvoParams(levy_exponent=1.5, splash_scale=0.5)
        problem = sphere_problem(2, 10.0)
        anchor = np.array([1.0, 2.0])
        out = splash_out(anchor, params, problem, RngStream(23))
        ell = levy_step(2, 1.5, RngStream(23))
        assert np.array_equal(out, anchor + 0.5 * problem.diameter / math.sqrt(2) * ell)


class TestAcceptanceRules:
    def test_greedy_keeps_old_unless_strictly_better(self):
        old_pos = np.array([[0.0], [1.0], [2.0]])
        new_pos = np.array([[5.0], [6.0], [7.0]])
        old_fit = np.array([1.0, 4.0, 3.0])
        new_fit = np.array([0.5, 4.0, 9.0])
        pos, fit, improved = greedy_select(old_pos, old_fit, new_pos, new_fit, True, np.zeros(3, dtype=bool))
        assert list(improved) == [True, False, False]
        assert np.array_equal(pos[:, 0], [5.0, 1.0, 2.0])
        assert np.array_equal(fit, [0.5, 4.0, 3.0])

    def test_non_greedy_accepts_everything(self):
        old_pos = np.array([[0.0], [1.0]])
        new_pos = np.array([[5.0], [6.0]])
        old_fit = np.array([1.0, 1.0])
        new_fit = np.array([9.0, 0.5])
        pos, fit, improved = greedy_select(old_pos, old_fit, new_pos, new_fit, False, np.zeros(2, dtype=bool))
        assert list(improved) == [False, True]
        assert np.array_equal(pos, new_pos)
        assert np.array_equal(fit, new_fit)

    def test_splashed_agents_are_always_accepted(self):
        old_pos = np.array([[0.0], [1.0], [2.0]])
        new_pos = np.array([[5.0], [6.0], [7.0]])
        old_fit = np.array([1.0, 4.0, 3.0])
        new_fit = np.array([0.5, 8.0, 9.0])
        splashed = np.array([False, True, False])
        pos, fit, improved = greedy_select(old_pos, old_fit, new_pos, new_fit, True, splashed)
        # the splash landed on a worse point and is still taken
        assert list(improved) == [True, False, False]
        assert np.array_equal(pos[:, 0], [5.0, 6.0, 2.0])
        assert np.array_equal(fit, [0.5, 8.0, 3.0])
        pos, fit, _ = greedy_select(old_pos, old_fit, new_pos, new_fit, False, splashed)
        assert np.array_equal(pos, new_pos)
        assert np.array_equal(fit, new_fit)

    def test_stagnation_rule_table(self):
        phase = np.array([Phase.FAR, Phase.SPIRAL, Phase.CORE, Phase.CORE, Phase.CORE], dtype=int)
        improved = np.array([False, False, False, True, False])
        splashed = np.array([False, False, False, False, True])
        stagnation = np.array([3, 4, 5, 6, 7])
        out = stagnation_update(stagnation, phase, improved, splashed)
        assert list(out) == [0, 0, 6, 0, 0]


class TestParams:
    def test_defaults_validate(self):
        DvoParams().validate()

    def test_validation_collects_all_problems(self):
        params = DvoParams(n_drains=0, iterations=1, switch_prob=2.0, epsilon=0.0)
        with pytest.raises(ConfigError) as err:
            params.validate()
        text = str(err.value)
        assert "n_drains" in text
        assert "iterations" in text
        assert "switch_prob" in text
        assert "epsilon" in text
        assert len(err.value.problems) == 4

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigError):
            DvoParams(near_threshold=0.5, far_threshold=0.1).validate()

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(DvoParams) if f.type == "float"]
    )
    def test_nan_is_one_entry(self, name):
        with pytest.raises(ConfigError) as err:
            DvoParams(**{name: float("nan")}).validate()
        assert err.value.problems == [f"{name} must not be NaN"]

    def test_nan_is_listed_with_the_violated_bounds(self):
        params = DvoParams(far_drift=float("nan"), switch_prob=2.0, levy_exponent=float("nan"))
        with pytest.raises(ConfigError) as err:
            params.validate()
        assert err.value.problems == [
            "far_drift must not be NaN",
            "switch_prob must lie in [0, 1], got 2.0",
            "levy_exponent must not be NaN",
        ]

    def test_infinity_is_left_to_the_bounds(self):
        inf = float("inf")
        DvoParams(far_drift=inf, swirl_cap=inf, splash_scale=inf).validate()
        for name, problem in [
            ("switch_prob", "switch_prob must lie in [0, 1], got inf"),
            ("levy_exponent", "levy_exponent must lie in (0, 2), got inf"),
            ("far_threshold", "need 0 < near_threshold < far_threshold <= 1, got 0.05 and inf"),
        ]:
            with pytest.raises(ConfigError) as err:
                DvoParams(**{name: inf}).validate()
            assert err.value.problems == [problem]

    @pytest.mark.parametrize(
        "pressure_end,iterations,accepted",
        [(sys.float_info.max, 20, False), (1e300, 1000, True)],
        ids=["ramp_overflows", "ramp_fits"],
    )
    def test_pressure_ramp_must_be_finite(self, pressure_end, iterations, accepted):
        # (end - start) * t overflowed to inf and the drain weights were NaN
        params = DvoParams(pressure_end=pressure_end, iterations=iterations)
        if accepted:
            params.validate()
            return
        with pytest.raises(ConfigError) as err:
            params.validate()
        assert err.value.problems == [
            "need a finite abs(pressure_end - pressure_start) * (iterations - 1), "
            f"got 1.0, {pressure_end!r} and {iterations}"
        ]

    def test_ablation_variants(self):
        base = DvoParams()
        variant = {name: replace(base, **overrides) for name, overrides in ABLATION_VARIANTS.items()}
        assert variant["full"] == base
        assert variant["no_greedy"].greedy_update is False
        assert variant["no_switch"].switch_prob == 0.0
        assert variant["single_vortex"].n_drains == 1
        assert variant["no_swirl"].swirl is False
        assert variant["no_adaptive_spiral"].residual_shrink == 1.0
        assert variant["no_splash"].splash_prob == 0.0
        assert len(ABLATION_VARIANTS) == 7


class TestInitialize:
    def test_population_and_drains(self):
        problem = sphere_problem(3, 5.0)
        params = DvoParams(n_agents=12, n_drains=4, iterations=10)
        batch = Batch((problem,), (RngStream(30),))
        state = initialize(*drive(initial_population(batch, 12), batch), params)

        assert state.positions.shape == (12, 3)
        assert (state.positions >= -5.0).all() and (state.positions <= 5.0).all()
        assert state.fitness.shape == (12,)
        assert (state.stagnation == 0).all()

        order = np.argsort(state.fitness, kind="stable")[:4]
        assert np.array_equal(state.drains, state.positions[order])
        assert np.array_equal(state.drain_fitness, state.fitness[order])
        assert state.drain_fitness[0] == state.fitness.min()

    def test_single_vortex_keeps_one_drain(self):
        problem = sphere_problem(2)
        params = DvoParams(n_agents=8, n_drains=1, iterations=10)
        batch = Batch((problem,), (RngStream(31),))
        state = initialize(*drive(initial_population(batch, 8), batch), params)
        assert state.drains.shape == (1, 2)


class TestOracleSweep:
    """Replay one full sweep by hand.

    Five agents hit all branches at once: far field, two spiral agents, a
    splash (stagnated core agent with certain splash probability), and a
    plain core move. Every random draw is mirrored on a twin stream in the
    documented order and the expected state is rebuilt from the update
    formulas alone.
    """

    def build(self):
        problem = sphere_problem(2, 10.0)
        params = DvoParams(
            n_agents=5,
            n_drains=1,
            iterations=11,
            stay_limit=2,
            splash_prob=1.0,
        )
        positions = np.array(
            [
                [9.0, 9.0],  # far field
                [-4.0, -4.0],  # spiral
                [-7.9, -7.95],  # core, stagnated -> splash
                [-8.5, -8.2],  # core
                [-2.0, -6.0],  # spiral
            ]
        )
        fitness = np.array([problem.objective(x) for x in positions])
        drain = np.array([[-8.0, -8.0]])
        state = DvoState(
            positions=positions.copy(),
            fitness=fitness.copy(),
            drains=drain.copy(),
            drain_fitness=np.array([128.0]),
            stagnation=np.array([0, 0, 2, 0, 0]),
        )
        return problem, params, state, positions, fitness, drain

    def test_replay(self, monkeypatch):
        self.replay(monkeypatch, degenerate=False)

    def test_replay_redraws_a_degenerate_row(self, monkeypatch):
        self.replay(monkeypatch, degenerate=True)

    def replay(self, monkeypatch, degenerate):
        problem, params, state, entry_pos, entry_fit, drain = self.build()
        seed = 77

        diameter = problem.diameter
        scale = 2.0 * (1.0 - 1.0 / 10.0)
        assert math.isclose(diameter, 20.0 * math.sqrt(2.0), rel_tol=0, abs_tol=1e-12)

        target = drain[0]
        dist = np.sqrt(np.sum((entry_pos - target) ** 2, axis=1))
        rho = np.minimum(dist / diameter, 1.0)
        assert rho[0] > 0.5
        assert 0.05 < rho[1] <= 0.5 and 0.05 < rho[4] <= 0.5
        assert rho[2] <= 0.05 and rho[3] <= 0.05

        twin = RngStream(seed)
        proposals = entry_pos.copy()

        # far field: one normal block for the single far agent
        eta_far = twin.standard_normal((1, 2))
        drift = params.far_drift * scale * (target[None, :] - entry_pos[[0]])
        jitter = (
            params.far_noise * (scale / 2.0) * (problem.span / math.sqrt(2)) * eta_far
        )
        proposals[0] = (entry_pos[[0]] + drift + jitter)[0]

        # spiral: one normal block for both spiral agents, then one angle block
        spiral = [1, 4]
        normals = twin.standard_normal((2, 2))
        omega = 2.0 * math.pi * twin.random(2)
        radii = rho[spiral] * diameter
        radial = (entry_pos[spiral] - target) / (radii[:, None] + params.epsilon)
        tangents = np.empty((2, 2))
        norms = np.empty(2)
        for row in range(2):
            unit = radial[row] / np.linalg.norm(radial[row])
            g = normals[row]
            t = g - (g @ unit) * unit
            norms[row] = np.linalg.norm(t)
            tangents[row] = t / norms[row]
        if degenerate:
            # a floor between the two projections makes the shorter one
            # degenerate: it is redrawn after both blocks and keeps its angle
            floor = float(norms.mean())
            monkeypatch.setattr(rng_module, "_TANGENT_FLOOR", floor)
            short = int(np.argmin(norms))
            assert norms[short] < floor <= norms[1 - short]
            tangents[short] = tangent_unit_vector(radial[short], twin)
        c = params.residual_shrink + (1.0 - params.residual_shrink) * scale / 2.0
        for row, i in enumerate(spiral):
            assert abs(tangents[row] @ radial[row] / np.linalg.norm(radial[row])) < 1e-10
            s = (1.0 - params.shrink_gain * c) * radii[row]
            v_theta = min(params.circulation / (rho[i] + params.core_softening), params.swirl_cap)
            proposals[i] = (
                target
                + (s * np.cos(omega[row])) * radial[row]
                + (s * (np.sin(omega[row]) * v_theta)) * tangents[row]
            )

        # splash eligibility for the stagnated core agent, certain here
        u_splash = twin.random(1)
        assert u_splash[0] < 1.0

        # plain core agent: one normal block
        eta_core = twin.standard_normal((1, 2))
        sigma0 = 0.1 * diameter
        sigma_t = sigma0 * scale / 2.0
        proposals[3] = (target[None, :] + sigma_t / math.sqrt(2) * eta_core)[0]

        # splash relaunch for the stagnated agent, anchored at the best drain
        ell = levy_step(2, params.levy_exponent, twin)
        proposals[2] = target + params.splash_scale * diameter / math.sqrt(2) * ell

        proposals = np.clip(proposals, problem.lower, problem.upper)
        new_fit = np.array([problem.objective(x) for x in proposals])

        # the sweep itself, on a fresh stream of the same seed; every
        # proposal it evaluates is checked, the rejected ones too
        evaluated = []

        def recorded(x):
            evaluated.append(x.copy())
            return problem.objective(x)

        batch = Batch((replace(problem, objective=recorded),), (RngStream(seed),))
        drive(sweep(state, 1, params, batch), batch)
        assert np.array_equal(np.array(evaluated), proposals)

        improved = new_fit < entry_fit
        splashed = np.array([False, False, True, False, False])
        accept = improved | splashed
        expect_pos = np.where(accept[:, None], proposals, entry_pos)
        expect_fit = np.where(accept, new_fit, entry_fit)

        assert np.array_equal(state.positions, expect_pos)
        assert np.array_equal(state.fitness, expect_fit)
        # splash is always accepted even when it lands on a worse point
        assert np.array_equal(state.positions[2], proposals[2])

        # the drain pool holds the new generation, the entry generation and
        # the old drain
        pool = np.concatenate([expect_pos, entry_pos, drain])
        pool_fit = np.concatenate([expect_fit, entry_fit, [128.0]])
        order = np.argsort(pool_fit, kind="stable")[:1]
        assert np.array_equal(state.drains, pool[order])
        assert np.array_equal(state.drain_fitness, pool_fit[order])

        # stagnation: far and spiral reset, splash resets, core holds +1
        expect_stag = [0, 0, 0, 0 if improved[3] else 1, 0]
        assert list(state.stagnation) == expect_stag


class TestRun:
    def test_record_contract(self):
        problem = benchmarks.get_problem("F9", 5)
        params = DvoParams(n_agents=10, n_drains=3, iterations=40)
        record = run(problem, params, seed=123, checkpoints=(10, 40))
        assert record.algorithm == "dvo"
        assert record.problem == "F9"
        assert record.dim == 5
        assert record.seed == 123
        assert record.trace.shape == (40,)
        assert (np.diff(record.trace) <= 0).all()
        assert record.best_value == record.trace[-1]
        assert record.evaluations == 10 * 41
        assert record.error == record.best_value - 0.0
        assert set(record.checkpoints) == {10, 40}
        assert record.checkpoints[40] == record.trace[39]

    def test_deterministic_per_seed(self):
        problem = benchmarks.get_problem("F10", 4)
        params = DvoParams(n_agents=8, n_drains=2, iterations=30)
        a = run(problem, params, seed=7)
        b = run(problem, params, seed=7)
        c = run(problem, params, seed=8)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_value == b.best_value
        assert not np.array_equal(a.trace, c.trace)

    def test_rejects_invalid_params(self):
        problem = sphere_problem(2)
        with pytest.raises(ConfigError):
            run(problem, DvoParams(iterations=1))

    @given(st.integers(0, 2**32 - 1))
    def test_best_stays_inside_bounds(self, seed):
        problem = benchmarks.get_problem("F9", 3)
        params = DvoParams(n_agents=6, n_drains=2, iterations=8)
        record = run(problem, params, seed=seed)
        assert (record.best_position >= problem.lower).all()
        assert (record.best_position <= problem.upper).all()

    def test_population_stays_inside_bounds_each_sweep(self):
        problem = sphere_problem(2, 3.0)
        params = DvoParams(n_agents=6, n_drains=2, iterations=12, splash_prob=1.0, stay_limit=0)
        batch = Batch((problem,), (RngStream(55),))
        state = initialize(*drive(initial_population(batch, params.n_agents), batch), params)
        for t in range(12):
            drive(sweep(state, t, params, batch), batch)
            assert (state.positions >= problem.lower).all()
            assert (state.positions <= problem.upper).all()

    def test_clip_bounds(self):
        problem = benchmarks.ProblemSpec(
            name="box", dim=2, lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]),
            objective=lambda x: 0.0,
        )
        out = clip_bounds(np.array([[-5.0, 5.0], [0.5, 1.0]]), problem)
        assert np.array_equal(out, [[-1.0, 2.0], [0.5, 1.0]])

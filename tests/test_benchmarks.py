"""Benchmark catalog tests.

The classical functions are checked two ways: the objective evaluated at
the tabulated minimizer must reproduce the catalog's f_true, and random
in-bounds points must never fall below f_true. Engineering problems are
checked at their literature solutions for both objective value and
feasibility. Penalty wrapping and the plugin registry get direct unit
tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drainvortex import benchmarks
from drainvortex.benchmarks import (
    SUITES,
    ProblemSpec,
    catalog_names,
    clear_plugins,
    evaluate,
    feasibility,
    fixed_dimension,
    get_problem,
    penalize,
    register_plugin,
)
from drainvortex.rng import RngStream

# fid -> (argmin, tolerance on |f(argmin) - f_true|)
SCALABLE_MINIMA = {
    "F1": (np.zeros(6), 0.0),
    "F2": (np.zeros(6), 0.0),
    "F3": (np.zeros(6), 0.0),
    "F4": (np.zeros(6), 0.0),
    "F5": (np.ones(6), 0.0),
    "F6": (np.zeros(6), 0.0),
    "F8": (np.full(6, 420.9687462275036), 1e-9),
    "F9": (np.zeros(6), 0.0),
    "F10": (np.zeros(6), 1e-12),
    "F11": (np.zeros(6), 0.0),
    "F12": (np.full(6, -1.0), 1e-12),
    "F13": (np.ones(6), 1e-12),
}

FIXED_MINIMA = {
    "F14": ([-31.97833, -31.97833], 1e-8),
    "F15": ([0.192833, 0.190836, 0.123117, 0.135766], 1e-8),
    "F16": ([0.08984201, -0.7126564], 1e-8),
    "F17": ([-math.pi, 12.275], 1e-8),
    "F18": ([0.0, -1.0], 0.0),
    "F19": ([0.114614, 0.555649, 0.852547], 1e-8),
    "F20": ([0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573], 1e-8),
    # the tabulated integer points sit a hair off the exact shekel minima
    "F21": ([4.0, 4.0, 4.0, 4.0], 5e-4),
    "F22": ([4.0, 4.0, 4.0, 4.0], 5e-4),
    "F23": ([4.0, 4.0, 4.0, 4.0], 5e-4),
}

# name -> (solution, objective value, worst violation allowance)
ENGINEERING_SOLUTIONS = {
    "three_bar_truss": ([0.78867513, 0.40824828], 263.8958410304727, 1e-7),
    "tension_spring": ([0.0516891, 0.3567177, 11.288966], 0.012665250683550773, 1e-5),
    "welded_beam": ([0.205730, 3.470489, 9.036624, 0.205730], 1.7248556738155942, 1e-7),
    "pressure_vessel": ([0.8125, 0.4375, 42.098446, 176.636596], 6059.714406596527, 1e-7),
    "speed_reducer": (
        [3.5, 0.7, 17.0, 7.3, 7.715319, 3.350214, 5.286654],
        2994.470581017289,
        1e-5,
    ),
}


class TestCatalogShape:
    def test_identifier_sets(self):
        assert list(SUITES) == ["classical_scalable", "classical_fixed", "engineering"]
        assert SUITES["classical_scalable"] == tuple(f"F{i}" for i in range(1, 14))
        assert SUITES["classical_fixed"] == tuple(f"F{i}" for i in range(14, 24))
        assert SUITES["engineering"] == (
            "three_bar_truss",
            "tension_spring",
            "welded_beam",
            "pressure_vessel",
            "speed_reducer",
        )
        assert catalog_names() == [name for names in SUITES.values() for name in names]
        assert len(catalog_names()) == 28

    @pytest.mark.parametrize("fid", SUITES["classical_scalable"])
    def test_scalable_dims(self, fid):
        for dim in (2, 10, 30):
            spec = get_problem(fid, dim)
            assert spec.dim == dim
            assert spec.lower.shape == (dim,)
            assert (spec.lower < spec.upper).all()
            assert not spec.constrained

    @pytest.mark.parametrize("fid", SUITES["classical_fixed"])
    def test_fixed_dims(self, fid):
        spec = get_problem(fid)
        assert spec.dim == {"F15": 4, "F19": 3, "F20": 6, "F21": 4, "F22": 4, "F23": 4}.get(
            fid, 2
        )
        assert spec.f_true is not None

    @pytest.mark.parametrize("name", SUITES["engineering"])
    def test_engineering_specs(self, name):
        spec = get_problem(name)
        assert spec.constrained
        assert spec.f_true is None
        assert len(spec.constraints(spec.upper)) >= 3


class TestKnownMinima:
    @pytest.mark.parametrize("fid", sorted(SCALABLE_MINIMA))
    def test_scalable_value_at_minimizer(self, fid):
        x, tol = SCALABLE_MINIMA[fid]
        spec = get_problem(fid, x.size)
        assert abs(spec.objective(x) - spec.f_true) <= tol

    @pytest.mark.parametrize("fid", sorted(FIXED_MINIMA))
    def test_fixed_value_at_minimizer(self, fid):
        x, tol = FIXED_MINIMA[fid]
        spec = get_problem(fid)
        assert abs(spec.objective(np.array(x, dtype=float)) - spec.f_true) <= tol

    def test_schwefel_floor_scales_with_dimension(self):
        for dim in (2, 7, 30):
            spec = get_problem("F8", dim)
            assert math.isclose(spec.f_true, -418.9828872724338 * dim, rel_tol=1e-15)

    @given(
        st.sampled_from(sorted(SCALABLE_MINIMA)),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_no_point_beats_the_optimum(self, fid, unit):
        spec = get_problem(fid, 4)
        x = spec.lower + np.array(unit) * (spec.upper - spec.lower)
        assert spec.objective(x) >= spec.f_true - 1e-9

    @given(st.sampled_from(sorted(FIXED_MINIMA)), st.integers(0, 2**31))
    def test_no_sampled_point_beats_fixed_optimum(self, fid, salt):
        spec = get_problem(fid)
        x = np.random.default_rng(salt).uniform(spec.lower, spec.upper)
        assert spec.objective(x) >= spec.f_true - 1e-9

    def test_noisy_quartic_floor(self):
        spec = get_problem("F7", 5)
        rng = RngStream(0)
        x = np.zeros(5)
        # quartic part vanishes; the value is exactly the additive noise
        values = [spec.objective(x, rng) for _ in range(20)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 1


class TestEngineeringSolutions:
    @pytest.mark.parametrize("name", sorted(ENGINEERING_SOLUTIONS))
    def test_literature_solution(self, name):
        x, value, allowance = ENGINEERING_SOLUTIONS[name]
        spec = get_problem(name)
        x = np.array(x, dtype=float)
        assert math.isclose(spec.objective(x), value, rel_tol=1e-9)
        feasible, worst = feasibility(x, spec, tol=1e-4)
        assert feasible
        assert worst <= allowance

    @pytest.mark.parametrize("name", sorted(ENGINEERING_SOLUTIONS))
    def test_solution_inside_bounds(self, name):
        x, _, _ = ENGINEERING_SOLUTIONS[name]
        spec = get_problem(name)
        assert (np.array(x) >= spec.lower).all()
        assert (np.array(x) <= spec.upper).all()


class TestEvaluate:
    def test_matches_per_row_objective(self):
        spec = get_problem("F9", 3)
        points = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [4.0, 4.0, 4.0]])
        out = evaluate(spec, points, RngStream(0))
        assert np.array_equal(out, [spec.objective(p) for p in points])

    def test_memory_order_does_not_change_values(self):
        spec = get_problem("F9", 30)
        points = np.random.default_rng(3).uniform(spec.lower, spec.upper, (50, 30))
        out = evaluate(spec, np.asfortranarray(points), RngStream(0))
        assert out.tobytes() == np.array([spec.objective(p) for p in points]).tobytes()

    def test_single_point_promoted(self):
        spec = get_problem("F1", 2)
        out = evaluate(spec, np.array([3.0, 4.0]), RngStream(0))
        assert out.shape == (1,)
        assert out[0] == 25.0

    def test_noisy_consumes_one_draw_per_row(self):
        spec = get_problem("F7", 2)
        rng = RngStream(5)
        twin = RngStream(5)
        out = evaluate(spec, np.zeros((4, 2)), rng)
        # the quartic part vanishes at 0: the batch holds n scalar draws, in row order
        assert out.tobytes() == np.array([twin.random() for _ in range(4)]).tobytes()
        assert rng.random() == twin.random()

    def test_noisy_rows_differ(self):
        spec = get_problem("F7", 2)
        out = evaluate(spec, np.zeros((3, 2)), RngStream(6))
        assert len(set(out)) == 3

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_nan_becomes_inf(self, vectorized):
        spec = ProblemSpec(
            name="toy-nan",
            dim=1,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            objective=lambda x: np.where(x[..., 0] > 0.0, np.nan, x[..., 0]),
            vectorized=vectorized,
        )
        out = evaluate(spec, np.array([[-0.5], [0.5], [-0.25]]), RngStream(0))
        assert out.tolist() == [-0.5, math.inf, -0.25]

    def test_vectorized_objective_must_return_one_value_per_row(self):
        spec = ProblemSpec(
            name="toy-scalar",
            dim=2,
            lower=np.zeros(2),
            upper=np.ones(2),
            objective=lambda x: float(np.sum(x)),
            vectorized=True,
        )
        with pytest.raises(ValueError, match="shape"):
            evaluate(spec, np.zeros((3, 2)), RngStream(0))


def _pooled_problems():
    """Every catalog problem a sweep's pooled call may evaluate, as the harness
    runs it (penalized if constrained): the scalable ones at d2, d10 and d30,
    every problem but the noisy F7."""
    for name in catalog_names():
        dims = (2, 10, 30) if name in SUITES["classical_scalable"] else (None,)
        for dim in dims:
            spec = get_problem(name, dim)
            if not spec.noisy:
                label = name if dim is None else f"{name}-d{dim}"
                yield pytest.param(penalize(spec) if spec.constrained else spec, id=label)


class TestRowIndependence:
    """A vectorized catalog objective gives each row the bits it gets alone,
    whatever the batch around it, so runs may share one call."""

    @pytest.mark.parametrize("spec", _pooled_problems())
    def test_each_row_keeps_its_bits_in_any_batch(self, spec):
        rng = np.random.default_rng(17)
        d = spec.dim
        # the box's corners first: its two extremes, then alternating and
        # random mixes of lower and upper bounds
        alternating = np.where(np.arange(d) % 2 == 0, spec.lower, spec.upper)
        mixes = np.where(rng.random((6, d)) < 0.5, spec.lower, spec.upper)
        corners = np.vstack([spec.lower, spec.upper, alternating, mixes])
        inside = rng.uniform(spec.lower, spec.upper, (631 - len(corners), d))
        points = np.vstack([corners, inside])
        alone = np.array([evaluate(spec, row, RngStream(0))[0] for row in points])
        outside = rng.uniform(spec.lower, spec.upper, (40, d))
        for n in (1, 7, 30, 210, 631):
            assert evaluate(spec, points[:n], RngStream(0)).tobytes() == alone[:n].tobytes()
            # the same rows at an offset inside a larger batch
            larger = np.vstack([outside[:13], points[:n], outside[13:]])
            inner = evaluate(spec, larger, RngStream(0))[13 : 13 + n]
            assert inner.tobytes() == alone[:n].tobytes()


class TestPenalty:
    def constrained_toy(self):
        return ProblemSpec(
            name="toy-constrained",
            dim=1,
            lower=np.array([-5.0]),
            upper=np.array([5.0]),
            objective=lambda x: float(x[0] ** 2),
            constraints=lambda x: (float(x[0] - 1.0), float(-x[0] - 2.0)),
        )

    def test_requires_constraints(self):
        with pytest.raises(ValueError):
            penalize(get_problem("F1", 2))

    def test_feasible_point_unchanged(self):
        wrapped = penalize(self.constrained_toy(), 1e6)
        assert wrapped.objective(np.array([0.5])) == 0.25

    def test_violation_priced_linearly(self):
        wrapped = penalize(self.constrained_toy(), 1e6)
        # x = 3 violates g1 by 2
        assert wrapped.objective(np.array([3.0])) == 9.0 + 1e6 * 2.0
        # x = -4 violates g2 by 2
        assert wrapped.objective(np.array([-4.0])) == 16.0 + 1e6 * 2.0

    def test_wrap_metadata(self):
        base = self.constrained_toy()
        wrapped = penalize(base)
        assert wrapped.raw_objective is base.objective
        assert wrapped.constraints == base.constraints
        assert wrapped.name == base.name

    def test_nan_constraint_counts_as_maximal_violation(self):
        spec = ProblemSpec(
            name="toy-singular",
            dim=1,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            objective=lambda x: 0.0,
            constraints=lambda x: (float("nan"),),
        )
        wrapped = penalize(spec, 2.0)
        value = wrapped.objective(np.array([0.0]))
        assert math.isfinite(value)
        assert value == 2.0 * 1e30
        feasible, worst = feasibility(np.array([0.0]), spec)
        assert not feasible
        assert worst == 1e30

    def test_wrap_of_a_wrap_is_refused(self):
        # a second wrap would add the penalty twice and report the first
        # wrap's penalized value as the raw objective
        wrapped = penalize(get_problem("three_bar_truss"))
        with pytest.raises(ValueError, match="already a penalty wrap"):
            penalize(wrapped)
        with pytest.raises(ValueError, match="already a penalty wrap"):
            penalize(penalize(self.constrained_toy(), 2.0), 2.0)

    @pytest.mark.parametrize(
        "constraints,vectorized",
        [
            (lambda x: (), False),  # no values
            (lambda x: float(x[0] - 1.0), False),  # a bare float, not k values
            # one value for a whole batch would be added to every row's penalty
            (lambda x: (np.max(x[..., 0]) - 1.0,), True),
        ],
    )
    def test_constraint_values_of_the_wrong_shape_are_refused(self, constraints, vectorized):
        spec = ProblemSpec(
            name="toy-misshapen",
            dim=1,
            lower=np.array([-5.0]),
            upper=np.array([5.0]),
            objective=lambda x: x[..., 0] ** 2,
            constraints=constraints,
            vectorized=vectorized,
        )
        with pytest.raises(ValueError, match="constraints gave shape"):
            evaluate(penalize(spec), np.array([[3.0], [0.5]]), RngStream(0))
        if not vectorized:
            with pytest.raises(ValueError, match="constraints gave shape"):
                feasibility(np.array([3.0]), spec)

    def test_penalty_spec_validation(self):
        with pytest.raises(ValueError):
            penalize(self.constrained_toy(), 0.0)
        with pytest.raises(ValueError):
            penalize(self.constrained_toy(), math.inf)

    def test_feasibility_tolerance(self):
        spec = self.constrained_toy()
        feasible, worst = feasibility(np.array([1.005]), spec, tol=0.01)
        assert feasible
        assert math.isclose(worst, 0.005, rel_tol=0, abs_tol=1e-12)
        feasible, _ = feasibility(np.array([1.005]), spec, tol=0.001)
        assert not feasible

    def test_feasibility_requires_constraints(self):
        with pytest.raises(ValueError):
            feasibility(np.zeros(2), get_problem("F1", 2))


class TestRegistry:
    def teardown_method(self):
        clear_plugins()

    def plugin(self, name="custom-bowl"):
        return ProblemSpec(
            name=name,
            dim=2,
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
            objective=lambda x: float(np.sum((x - 0.5) ** 2)),
            f_true=0.0,
        )

    def test_plugin_resolves(self):
        register_plugin(self.plugin())
        spec = get_problem("custom-bowl")
        assert spec.dim == 2
        assert "custom-bowl" in catalog_names()

    def test_catalog_names_reserved(self):
        for name in catalog_names():
            with pytest.raises(ValueError, match="collides with a catalog problem"):
                register_plugin(self.plugin(name))

    def test_duplicate_rejected(self):
        register_plugin(self.plugin())
        with pytest.raises(ValueError):
            register_plugin(self.plugin())

    def test_clear_removes(self):
        register_plugin(self.plugin())
        clear_plugins()
        with pytest.raises(KeyError):
            get_problem("custom-bowl")


class TestGetProblem:
    def test_scalable_requires_dim(self):
        with pytest.raises(ValueError):
            get_problem("F1")

    def test_scalable_rejects_tiny_dim(self):
        with pytest.raises(ValueError):
            get_problem("F1", 1)

    def test_fixed_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            get_problem("F16", 5)
        assert get_problem("F16", 2).dim == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_problem("F99")
        with pytest.raises(KeyError):
            get_problem("f1", 2)

    def test_fixed_dimension_is_the_built_dimension(self):
        register_plugin(
            ProblemSpec(name="cube", dim=3, lower=np.zeros(3), upper=np.ones(3), objective=np.sum)
        )
        try:
            for name in catalog_names():
                if name in SUITES["classical_scalable"]:
                    assert fixed_dimension(name) is None
                else:
                    assert fixed_dimension(name) == get_problem(name).dim
                    with pytest.raises(ValueError, match=f"fixed dimension {fixed_dimension(name)}, got 9"):
                        get_problem(name, 9)
            assert fixed_dimension("cube") == 3
        finally:
            clear_plugins()
        with pytest.raises(KeyError):
            fixed_dimension("F99")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(
                name="bad",
                dim=2,
                lower=np.array([0.0]),
                upper=np.array([1.0, 1.0]),
                objective=lambda x: 0.0,
            )
        with pytest.raises(ValueError):
            ProblemSpec(
                name="bad",
                dim=2,
                lower=np.array([1.0, 1.0]),
                upper=np.array([0.0, 0.0]),
                objective=lambda x: 0.0,
            )

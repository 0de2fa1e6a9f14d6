"""Batched catalog evaluation against the per-point formulas.

Every catalog problem is vectorized: `evaluate` hands it a whole batch in
one call. Records stay bitwise identical to per-point evaluation only if
each batched value has the same bytes as the formula applied to its row
alone. The functions from `_sphere` down to `_violation_amounts` below are
the per-point formulas, kept verbatim as the reference; the data tables
they read are the catalog's own.
"""

import itertools
import math

import numpy as np
import pytest

from drainvortex.benchmarks import (
    _FOXHOLE_A,
    _HARTMANN3_A,
    _HARTMANN3_P,
    _HARTMANN6_A,
    _HARTMANN6_P,
    _HARTMANN_ALPHA,
    _KOWALIK_A,
    _KOWALIK_B,
    _SHEKEL_B,
    _SHEKEL_C,
    _VIOLATION_CAP,
    DEFAULT_FEASIBILITY_TOL,
    DEFAULT_PENALTY_COEFF,
    ENGINEERING_NAMES,
    SCALABLE_IDS,
    ProblemSpec,
    _pow,
    catalog_names,
    evaluate,
    feasibility,
    get_problem,
    penalize,
)
from drainvortex.rng import RngStream

# ---------------------------------------------------------------------------
# reference: the per-point formulas, verbatim
# ---------------------------------------------------------------------------


def _sphere(x):
    return float(np.sum(x * x))


def _abs_sum_prod(x):
    a = np.abs(x)
    return float(np.sum(a) + np.prod(a))


def _rotated_hyper_ellipsoid(x):
    return float(np.sum(np.cumsum(x) ** 2))


def _max_abs(x):
    return float(np.max(np.abs(x)))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2))


def _step(x):
    return float(np.sum(np.floor(x + 0.5) ** 2))


def _noisy_quartic(x, rng: RngStream):
    i = np.arange(1, x.size + 1)
    return float(np.sum(i * x**4) + rng.random())


def _schwefel(x):
    return float(-np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def _rastrigin(x):
    return float(np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0))


def _ackley(x):
    d = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / d)
        + 20.0
        + np.e
    )


def _griewank(x):
    i = np.arange(1, x.size + 1)
    return float(np.sum(x * x) / 4000.0 - np.prod(np.cos(x / np.sqrt(i))) + 1.0)


def _bound_penalty(x, a, k, m):
    # u(x, a, k, m): zero inside [-a, a], polynomial wall outside
    out = np.zeros_like(x)
    hi = x > a
    lo = x < -a
    out[hi] = k * (x[hi] - a) ** m
    out[lo] = k * (-x[lo] - a) ** m
    return float(np.sum(out))


def _penalized_sine(x):
    d = x.size
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * np.sin(np.pi * y[0]) ** 2
        + np.sum((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[1:]) ** 2))
        + (y[-1] - 1.0) ** 2
    )
    return float(np.pi / d * core + _bound_penalty(x, 10.0, 100.0, 4))


def _penalized_flats(x):
    core = (
        np.sin(3.0 * np.pi * x[0]) ** 2
        + np.sum((x[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[1:]) ** 2))
        + (x[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * x[-1]) ** 2)
    )
    return float(0.1 * core + _bound_penalty(x, 5.0, 100.0, 4))


def _foxholes(x):
    denom = np.arange(1, 26) + np.sum((x[:, None] - _FOXHOLE_A) ** 6, axis=0)
    return float(1.0 / (1.0 / 500.0 + np.sum(1.0 / denom)))


def _kowalik(x):
    b = _KOWALIK_B
    model = x[0] * (b * b + b * x[1]) / (b * b + b * x[2] + x[3])
    return float(np.sum((_KOWALIK_A - model) ** 2))


def _six_hump_camel(x):
    x1, x2 = x
    return float(
        4.0 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4.0 * x2**2 + 4.0 * x2**4
    )


def _branin(x):
    x1, x2 = x
    return float(
        (x2 - 5.1 / (4.0 * np.pi**2) * x1**2 + 5.0 / np.pi * x1 - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1)
        + 10.0
    )


def _goldstein_price(x):
    x1, x2 = x
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return float(a * b)


def _hartmann3(x):
    inner = np.sum(_HARTMANN3_A * (x - _HARTMANN3_P) ** 2, axis=1)
    return float(-np.sum(_HARTMANN_ALPHA * np.exp(-inner)))


def _hartmann6(x):
    inner = np.sum(_HARTMANN6_A * (x - _HARTMANN6_P) ** 2, axis=1)
    return float(-np.sum(_HARTMANN_ALPHA * np.exp(-inner)))


_SHEKEL_C = np.array(
    [
        [4, 1, 8, 6, 3, 2, 5, 8, 6, 7],
        [4, 1, 8, 6, 7, 9, 3, 1, 2, 3.6],
        [4, 1, 8, 6, 3, 2, 5, 8, 6, 7],
        [4, 1, 8, 6, 7, 9, 3, 1, 2, 3.6],
    ],
    dtype=float,
)
_SHEKEL_B = 0.1 * np.array([1, 2, 2, 4, 4, 6, 3, 7, 5, 5], dtype=float)


def _shekel(m):
    def fn(x):
        d = np.sum((x[:, None] - _SHEKEL_C[:, :m]) ** 2, axis=0) + _SHEKEL_B[:m]
        return float(-np.sum(1.0 / d))

    return fn


def _truss_objective(x):
    return float((2.0 * math.sqrt(2.0) * x[0] + x[1]) * 100.0)


def _truss_constraints():
    P, sigma = 2.0, 2.0
    rt2 = math.sqrt(2.0)

    def g1(x):
        return (rt2 * x[0] + x[1]) / (rt2 * x[0] ** 2 + 2.0 * x[0] * x[1]) * P - sigma

    def g2(x):
        return x[1] / (rt2 * x[0] ** 2 + 2.0 * x[0] * x[1]) * P - sigma

    def g3(x):
        return 1.0 / (rt2 * x[1] + x[0]) * P - sigma

    return (g1, g2, g3)


def _spring_objective(x):
    d, D, n = x
    return float((n + 2.0) * D * d * d)


def _spring_constraints():
    def g1(x):
        d, D, n = x
        return 1.0 - D**3 * n / (71785.0 * d**4)

    def g2(x):
        d, D, n = x
        return (4.0 * D**2 - d * D) / (12566.0 * (D * d**3 - d**4)) + 1.0 / (
            5108.0 * d**2
        ) - 1.0

    def g3(x):
        d, D, n = x
        return 1.0 - 140.45 * d / (D**2 * n)

    def g4(x):
        d, D, n = x
        return (D + d) / 1.5 - 1.0

    return (g1, g2, g3, g4)


def _weld_objective(x):
    x1, x2, x3, x4 = x
    return float(1.10471 * x1**2 * x2 + 0.04811 * x3 * x4 * (14.0 + x2))


def _weld_constraints():
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    tau_max, sigma_max, delta_max = 13600.0, 30000.0, 0.25

    def tau(x):
        x1, x2, x3, _ = x
        t1 = P / (math.sqrt(2.0) * x1 * x2)
        M = P * (L + x2 / 2.0)
        R = math.sqrt(x2**2 / 4.0 + ((x1 + x3) / 2.0) ** 2)
        J = 2.0 * math.sqrt(2.0) * x1 * x2 * (x2**2 / 12.0 + ((x1 + x3) / 2.0) ** 2)
        t2 = M * R / J
        return math.sqrt(t1**2 + 2.0 * t1 * t2 * x2 / (2.0 * R) + t2**2)

    def g1(x):
        return tau(x) - tau_max

    def g2(x):
        return 6.0 * P * L / (x[3] * x[2] ** 2) - sigma_max

    def g3(x):
        return x[0] - x[3]

    def g4(x):
        return 0.10471 * x[0] ** 2 + 0.04811 * x[2] * x[3] * (14.0 + x[1]) - 5.0

    def g5(x):
        return 0.125 - x[0]

    def g6(x):
        return 4.0 * P * L**3 / (E * x[2] ** 3 * x[3]) - delta_max

    def g7(x):
        x3, x4 = x[2], x[3]
        pc = (
            4.013 * E * math.sqrt(x3**2 * x4**6 / 36.0) / L**2
            * (1.0 - x3 / (2.0 * L) * math.sqrt(E / (4.0 * G)))
        )
        return P - pc

    return (g1, g2, g3, g4, g5, g6, g7)


def _vessel_objective(x):
    x1, x2, x3, x4 = x
    return float(
        0.6224 * x1 * x3 * x4
        + 1.7781 * x2 * x3**2
        + 3.1661 * x1**2 * x4
        + 19.84 * x1**2 * x3
    )


def _vessel_constraints():
    def g1(x):
        return -x[0] + 0.0193 * x[2]

    def g2(x):
        return -x[1] + 0.00954 * x[2]

    def g3(x):
        return -math.pi * x[2] ** 2 * x[3] - 4.0 / 3.0 * math.pi * x[2] ** 3 + 1296000.0

    def g4(x):
        return x[3] - 240.0

    return (g1, g2, g3, g4)


def _reducer_objective(x):
    x1, x2, x3, x4, x5, x6, x7 = x
    return float(
        0.7854 * x1 * x2**2 * (3.3333 * x3**2 + 14.9334 * x3 - 43.0934)
        - 1.508 * x1 * (x6**2 + x7**2)
        + 7.4777 * (x6**3 + x7**3)
        + 0.7854 * (x4 * x6**2 + x5 * x7**2)
    )


def _reducer_constraints():
    def g1(x):
        return 27.0 / (x[0] * x[1] ** 2 * x[2]) - 1.0

    def g2(x):
        return 397.5 / (x[0] * x[1] ** 2 * x[2] ** 2) - 1.0

    def g3(x):
        return 1.93 * x[3] ** 3 / (x[1] * x[2] * x[5] ** 4) - 1.0

    def g4(x):
        return 1.93 * x[4] ** 3 / (x[1] * x[2] * x[6] ** 4) - 1.0

    def g5(x):
        return (
            math.sqrt((745.0 * x[3] / (x[1] * x[2])) ** 2 + 16.9e6)
            / (110.0 * x[5] ** 3)
            - 1.0
        )

    def g6(x):
        return (
            math.sqrt((745.0 * x[4] / (x[1] * x[2])) ** 2 + 157.5e6)
            / (85.0 * x[6] ** 3)
            - 1.0
        )

    def g7(x):
        return x[1] * x[2] / 40.0 - 1.0

    def g8(x):
        return 5.0 * x[1] / x[0] - 1.0

    def g9(x):
        return x[0] / (12.0 * x[1]) - 1.0

    def g10(x):
        return (1.5 * x[5] + 1.9) / x[3] - 1.0

    def g11(x):
        return (1.1 * x[6] + 1.9) / x[4] - 1.0

    return (g1, g2, g3, g4, g5, g6, g7, g8, g9, g10, g11)


def _violation_amounts(constraints, x):
    # non-finite constraint values count as maximal violation so boundary
    # singularities cannot poison comparisons
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for g in constraints:
            v = float(g(x))
            if math.isnan(v):
                v = math.inf
            out.append(min(max(v, 0.0), _VIOLATION_CAP))
    return out


def _reference_penalized(objective, constraints, coeff, x):
    total = sum(_violation_amounts(constraints, x))
    return objective(x) + coeff * total


REFERENCE_OBJECTIVES = {
    "F1": _sphere,
    "F2": _abs_sum_prod,
    "F3": _rotated_hyper_ellipsoid,
    "F4": _max_abs,
    "F5": _rosenbrock,
    "F6": _step,
    "F7": _noisy_quartic,
    "F8": _schwefel,
    "F9": _rastrigin,
    "F10": _ackley,
    "F11": _griewank,
    "F12": _penalized_sine,
    "F13": _penalized_flats,
    "F14": _foxholes,
    "F15": _kowalik,
    "F16": _six_hump_camel,
    "F17": _branin,
    "F18": _goldstein_price,
    "F19": _hartmann3,
    "F20": _hartmann6,
    "F21": _shekel(5),
    "F22": _shekel(7),
    "F23": _shekel(10),
    "three_bar_truss": _truss_objective,
    "tension_spring": _spring_objective,
    "welded_beam": _weld_objective,
    "pressure_vessel": _vessel_objective,
    "speed_reducer": _reducer_objective,
}

REFERENCE_CONSTRAINTS = {
    "three_bar_truss": _truss_constraints(),
    "tension_spring": _spring_constraints(),
    "welded_beam": _weld_constraints(),
    "pressure_vessel": _vessel_constraints(),
    "speed_reducer": _reducer_constraints(),
}

# points on which one constraint of the design is exactly zero
ZERO_CONSTRAINT_POINTS = {
    "three_bar_truss": [[1.0, 0.0]],  # g3
    "tension_spring": [[0.5, 1.0, 3.0]],  # g4
    "welded_beam": [[0.2, 4.0, 8.0, 0.2], [0.125, 4.0, 8.0, 0.3]],  # g3, g5
    "pressure_vessel": [[0.0193 * 100.0, 1.0, 100.0, 50.0], [1.0, 1.0, 50.0, 240.0]],  # g1, g4
    "speed_reducer": [
        [5.0 * 0.71, 0.71, 20.0, 8.0, 8.0, 3.5, 5.2],  # g8
        [3.0, 0.75, 20.0, 1.5 * 3.8 + 1.9, 8.0, 3.8, 5.2],  # g10
    ],
}


def catalog_cases():
    # scalable ids at three dimensions, every other catalog name as it is
    return [
        (name, dim)
        for name in catalog_names()
        for dim in ((2, 10, 30) if name in SCALABLE_IDS else (None,))
    ]


def corners(spec):
    lo, hi = spec.lower, spec.upper
    if spec.dim <= 7:
        masks = np.array(list(itertools.product([False, True], repeat=spec.dim)))
    else:
        alternate = np.arange(spec.dim) % 2 == 0
        masks = np.array([np.zeros(spec.dim, bool), np.ones(spec.dim, bool), alternate, ~alternate])
    return np.where(masks, hi, lo)


def square_sensitive(spec, rng, n):
    """Points whose every coordinate v has pow(v, 2) != v * v. Scalar and
    array squares differ on under 0.1% of random inputs and the differing
    last bit is mostly rounded away downstream, so uniform points alone
    rarely show a coordinate squared with the wrong kernel."""
    pool = rng.uniform(spec.lower, spec.upper, (20_000, spec.dim))
    hit = np.array([math.pow(v, 2) for v in pool.ravel().tolist()]).reshape(pool.shape)
    hit = hit != pool * pool
    columns = [rng.choice(pool[hit[:, k], k], n) for k in range(spec.dim)]
    return np.stack(columns, axis=-1)


# Points on which one square of a derived value, taken with array `**` in
# place of `_pow`, changes the evaluated bytes: F12's sin term and end term,
# F13's sin terms, welded_beam's t1 in g1, speed_reducer's g5 and g6. Uniform
# and square-sensitive points almost never show these; the values below were
# found by seeded search. F12 and F13 put the value at the first or last
# coordinate and `fill` everywhere else, so every other term but one is 0.
EDGE_SQUARES = {
    # name: (fill, first coordinates, last coordinates), at every dimension
    "F12": (-1.0, [0.20040613875340796, 2.4485822341422026], [-6.369187561128163, 8.368735086235915]),
    "F13": (1.0, [1.5020852035094068, -2.908018801977522], [-4.1792792793386235, 0.9312162121024361]),
}
DESIGN_SQUARES = {
    "welded_beam": [  # g1
        [0.3147690356032373, 6.8064630280496194, 6.692310607576643, 1.9682077882077735],
        [1.163802141098748, 1.028489203518495, 3.2026354811737465, 1.3308753464089595],
    ],
    "speed_reducer": [
        # g5
        [2.622053421595064, 0.7737544276111633, 26.333864400051894, 7.4400511715777204,
         8.119914006718707, 3.4300354171841305, 5.068829356389266],
        [3.193522551074406, 0.7527326042518497, 21.19954292762752, 8.22017753888704,
         8.082359542589147, 3.3360447441657204, 5.425928211429914],
        # g6
        [2.867835052540918, 0.7315311279015694, 23.953405975547053, 8.231080841654714,
         7.347607925459806, 3.25168004367303, 5.095317184679762],
        [3.040150092508293, 0.7201715492230669, 18.20773624930721, 8.230247417422609,
         8.187995417414418, 3.033577592248587, 5.4217737520011715],
    ],
}


def derived_squares(spec):
    if spec.name not in EDGE_SQUARES:
        return np.array(DESIGN_SQUARES.get(spec.name, []), dtype=float).reshape(-1, spec.dim)
    fill, first, last = EDGE_SQUARES[spec.name]
    points = np.full((len(first) + len(last), spec.dim), fill)
    points[: len(first), 0] = first
    points[len(first) :, -1] = last
    return points


def sample(spec, seed, n=2000):
    rng = np.random.default_rng(seed)
    inside = rng.uniform(spec.lower, spec.upper, (n, spec.dim))
    return np.vstack([inside, square_sensitive(spec, rng, n), corners(spec), derived_squares(spec)])


def per_point(fn, points, *args):
    return np.array([fn(x, *args) for x in points], dtype=float)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestBatchedCatalog:
    def test_reference_covers_the_catalog(self):
        assert set(catalog_names()) == set(REFERENCE_OBJECTIVES)
        assert set(ENGINEERING_NAMES) == set(REFERENCE_CONSTRAINTS)

    def test_catalog_is_vectorized(self):
        for name, dim in catalog_cases():
            assert get_problem(name, dim).vectorized

    @pytest.mark.parametrize("name,dim", catalog_cases())
    def test_batch_equals_per_point_formula(self, name, dim):
        spec = get_problem(name, dim)
        points = sample(spec, seed=len(name) * 31 + (dim or 0))
        reference = REFERENCE_OBJECTIVES[name]
        if spec.noisy:
            got = evaluate(spec, points, RngStream(11))
            want = per_point(reference, points, RngStream(11))
        else:
            got = evaluate(spec, points, RngStream(11))
            want = per_point(reference, points)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,dim", catalog_cases())
    def test_single_point_equals_per_point_formula(self, name, dim):
        spec = get_problem(name, dim)
        points = sample(spec, seed=5, n=20)
        reference = REFERENCE_OBJECTIVES[name]
        if spec.noisy:
            got = per_point(spec.objective, points, RngStream(3))
            want = per_point(reference, points, RngStream(3))
        else:
            got = per_point(spec.objective, points)
            want = per_point(reference, points)
        assert got.tobytes() == want.tobytes()


class TestBatchedPenalty:
    @pytest.mark.parametrize("name", ENGINEERING_NAMES)
    def test_zero_points_have_an_exactly_zero_constraint(self, name):
        for x in ZERO_CONSTRAINT_POINTS[name]:
            x = np.array(x)
            spec = get_problem(name)
            assert (x >= spec.lower).all() and (x <= spec.upper).all()
            values = [float(g(x)) for g in REFERENCE_CONSTRAINTS[name]]
            assert 0.0 in values

    @pytest.mark.parametrize("name", ENGINEERING_NAMES)
    def test_constraint_batch_equals_per_point_formula(self, name):
        # raw values, before the clamp hides every satisfied constraint
        spec = get_problem(name)
        points = np.vstack([sample(spec, seed=29), ZERO_CONSTRAINT_POINTS[name]])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for g, reference in zip(spec.constraints, REFERENCE_CONSTRAINTS[name]):
                got = np.asarray(g(points), dtype=float)
                assert got.tobytes() == per_point(reference, points).tobytes()

    @pytest.mark.parametrize("name", ENGINEERING_NAMES)
    def test_penalized_batch_equals_per_point_penalty(self, name):
        spec = get_problem(name)
        points = np.vstack([sample(spec, seed=17), ZERO_CONSTRAINT_POINTS[name]])
        got = evaluate(penalize(spec), points, RngStream(0))
        want = np.array(
            [
                _reference_penalized(
                    REFERENCE_OBJECTIVES[name],
                    REFERENCE_CONSTRAINTS[name],
                    DEFAULT_PENALTY_COEFF,
                    x,
                )
                for x in points
            ]
        )
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ENGINEERING_NAMES)
    def test_feasibility_equals_per_point_max_violation(self, name):
        spec = get_problem(name)
        points = np.vstack([sample(spec, seed=23, n=100), ZERO_CONSTRAINT_POINTS[name]])
        for x in points:
            feasible, worst = feasibility(x, spec)
            want = max(_violation_amounts(REFERENCE_CONSTRAINTS[name], x))
            assert np.float64(worst).tobytes() == np.float64(want).tobytes()
            assert feasible == (want <= DEFAULT_FEASIBILITY_TOL)

    def test_violations_add_left_to_right(self):
        # eleven constraints of mixed sign and magnitude, as many as
        # speed_reducer has: numpy's unrolled sum over them rounds
        # differently on about a fifth of these points
        constraints = tuple(
            (lambda k: lambda x: np.sin(7.0 * k * x[..., 0] + x[..., 1]) * 10.0 ** (k % 4))(k)
            for k in range(11)
        )
        spec = ProblemSpec(
            name="toy-eleven",
            dim=2,
            lower=np.zeros(2),
            upper=np.ones(2),
            objective=lambda x: x[..., 0] * x[..., 1],
            constraints=constraints,
            vectorized=True,
        )
        points = np.random.default_rng(4).uniform(0.0, 1.0, (2000, 2))
        got = evaluate(penalize(spec, 7.0), points, RngStream(0))
        want = [_reference_penalized(spec.objective, constraints, 7.0, x) for x in points]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("order", [(-1.0, 1.0), (1.0, -1.0)])
    def test_sign_of_zero_in_max_violation(self, order):
        # max() keeps the first of equal values, so -0.0 then 0.0 gives -0.0
        constraints = tuple(
            (lambda s: lambda x: math.copysign(0.0, s) * np.abs(x[..., 0]))(s) for s in order
        )
        spec = ProblemSpec(
            name="toy-signed-zero",
            dim=1,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            objective=lambda x: x[..., 0],
            constraints=constraints,
            vectorized=True,
        )
        x = np.array([0.5])
        _, worst = feasibility(x, spec)
        want = max(_violation_amounts(constraints, x))
        assert math.copysign(1.0, worst) == order[0]
        assert np.float64(worst).tobytes() == np.float64(want).tobytes()
        got = evaluate(penalize(spec, 3.0), np.array([[0.5], [-0.25]]), RngStream(0))
        assert got.tobytes() == np.array([0.5, -0.25]).tobytes()

    def test_non_finite_constraints_cost_the_cap(self):
        spec = get_problem("three_bar_truss")
        # g1 and g2 are 0/0 at the origin, g3 divides by zero
        wrapped = penalize(spec, 1.0)
        got = evaluate(wrapped, np.zeros((2, 2)), RngStream(0))
        assert np.array_equal(got, [3 * _VIOLATION_CAP, 3 * _VIOLATION_CAP])


class TestPow:
    """`_pow` must round as a float64 scalar power does, which the
    per-point formulas used for single coordinates."""

    @pytest.mark.parametrize("e", [2, 3, 4, 6])
    def test_matches_float64_scalar_power(self, e):
        rng = np.random.default_rng(e)
        v = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
        want = np.array([np.float64(a) ** e for a in v])
        assert _pow(v, e).tobytes() == want.tobytes()
        assert _pow(v.reshape(100, 100), e).tobytes() == want.tobytes()

    def test_point_gives_a_scalar_shape(self):
        assert _pow(np.float64(3.0), 2).shape == ()
        assert _pow(np.float64(3.0), 2) == 9.0

    def test_overflow_gives_inf(self):
        x = np.array([1e200, -1e200, 3.0])
        with np.errstate(over="ignore"):
            want = np.array([np.float64(a) ** 3 for a in x])
            got = _pow(x, 3)
        assert got.tobytes() == want.tobytes()
        assert got[0] == math.inf and got[1] == -math.inf and got[2] == 27.0

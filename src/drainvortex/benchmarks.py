"""Benchmark catalog: classical test functions, constrained engineering
designs, penalty wrapping, and a plugin registry.

Objectives come under one of two contracts, declared by
`ProblemSpec.vectorized`:

- per point (the default): the objective takes one point of shape (dim,)
  and returns a float, and `evaluate` calls it once per row;
- vectorized: the objective and the constraints take a single point or a
  batch of shape (n, dim), so a batch gives n values in one call and a
  single point still gives its float. Row i's value depends on row i
  alone: it has the bits the point gives alone, whatever the other rows
  of the batch, so the runs that share a problem may share its calls.
  `evaluate` and the `penalize` wrapper then make one call per batch.
  Every catalog problem is vectorized.

A constrained problem's `constraints` is one callable that returns the k
values of its constraints g(x) <= 0 together: k floats for a point, or k
rows of n values for a vectorized batch. Any other shape raises ValueError.

Noisy objectives additionally take the run's RngStream so noise stays inside
the determinism contract; a vectorized one draws its n noise values as one
block, which is the same stream as n scalar draws.

Non-finite values: `evaluate` maps a NaN objective value to +inf, and is the
only place that does. A NaN or +inf constraint value counts as the maximal
violation.

A catalog formula gives the same bits for a point alone as in a batch.
Where it raises a single coordinate to a power it calls `_pow`
(`np.float_power`), which calls the C library's pow per element, as numpy's
float64 scalars do; numpy's array `**` kernel rounds some of those results
differently. Powers the per-point formulas took of whole arrays keep array
`**`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .rng import RngStream

Array = np.ndarray

# violations are clipped here so boundary singularities (inf/nan from a
# constraint) cannot poison fitness comparisons
_VIOLATION_CAP = 1e30

DEFAULT_PENALTY_COEFF = 1e9
DEFAULT_FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A bound-constrained minimization problem, optionally with
    inequality constraints g(x) <= 0 and a known optimum for error
    reporting. `constraints` is one callable returning the k constraint
    values, k floats for a point or k rows of n values for a batch when
    `vectorized`; a vectorized spec promises that each row's values depend
    on that row alone, bit for bit. The box's `span` (upper - lower) and
    `diameter` (the norm of the span) are derived from the bounds."""

    name: str
    dim: int
    lower: Array
    upper: Array
    objective: Callable
    f_true: Optional[float] = None
    # None when the problem has no constraints
    constraints: Optional[Callable] = None
    noisy: bool = False
    # original objective when this spec is a penalty wrap of a constrained one
    raw_objective: Optional[Callable] = None
    # objective and constraints also take (n, dim) batches, one row per point,
    # each row's values depending on that row alone
    vectorized: bool = False
    span: Array = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError(
                f"{self.name}: bounds must have shape ({self.dim},), "
                f"got {lower.shape} and {upper.shape}"
            )
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError(f"{self.name}: bounds must be finite")
        if not (lower < upper).all():
            raise ValueError(f"{self.name}: need lower < upper componentwise")
        if self.dim < 1:
            raise ValueError(f"{self.name}: dim must be >= 1")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "span", upper - lower)
        object.__setattr__(self, "diameter", float(np.linalg.norm(upper - lower)))

    @property
    def constrained(self) -> bool:
        return self.constraints is not None


def evaluate(problem: ProblemSpec, points: Array, rng: RngStream) -> Array:
    """Objective values of the rows of `points`, with NaN mapped to +inf.

    A vectorized spec gets the whole batch in one call, any other spec one
    call per row. Noisy objectives draw from `rng` once per row, in row
    order, either way.
    """
    # C order: numpy sums the rows of a Fortran-ordered batch in another
    # order than it sums a lone point
    pts = np.atleast_2d(np.ascontiguousarray(points, dtype=float))
    args = (rng,) if problem.noisy else ()
    if problem.vectorized:
        out = np.array(problem.objective(pts, *args), dtype=float)
        if out.shape != (len(pts),):
            raise ValueError(
                f"{problem.name}: a vectorized objective must return shape "
                f"({len(pts)},), got {out.shape}"
            )
    else:
        out = np.empty(len(pts))
        for i, x in enumerate(pts):
            out[i] = problem.objective(x, *args)
    out[np.isnan(out)] = np.inf
    return out


# x ** e per element through the C library's pow, rounded as a float64 scalar
# power is (numpy's array ** kernel rounds some results differently)
_pow = np.float_power


# ---------------------------------------------------------------------------
# scalable classical functions (any dimension)
# ---------------------------------------------------------------------------


def _sphere(x):
    return np.sum(x * x, axis=-1)


def _abs_sum_prod(x):
    a = np.abs(x)
    return np.sum(a, axis=-1) + np.prod(a, axis=-1)


def _rotated_hyper_ellipsoid(x):
    return np.sum(np.cumsum(x, axis=-1) ** 2, axis=-1)


def _max_abs(x):
    return np.max(np.abs(x), axis=-1)


def _rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2, axis=-1)


def _step(x):
    return np.sum(np.floor(x + 0.5) ** 2, axis=-1)


def _noisy_quartic(x, rng: RngStream):
    i = np.arange(1, x.shape[-1] + 1)
    return np.sum(i * x**4, axis=-1) + rng.random(x.shape[:-1])


_SCHWEFEL_PER_DIM = -418.9828872724338


def _schwefel(x):
    return -np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def _rastrigin(x):
    return np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def _ackley(x):
    d = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / d)
        + 20.0
        + np.e
    )


def _griewank(x):
    i = np.arange(1, x.shape[-1] + 1)
    return np.sum(x * x, axis=-1) / 4000.0 - np.prod(np.cos(x / np.sqrt(i)), axis=-1) + 1.0


def _bound_penalty(x, a, k, m):
    # u(x, a, k, m): zero inside [-a, a], polynomial wall outside
    out = np.zeros_like(x)
    hi = x > a
    lo = x < -a
    out[hi] = k * (x[hi] - a) ** m
    out[lo] = k * (-x[lo] - a) ** m
    return np.sum(out, axis=-1)


def _penalized_sine(x):
    d = x.shape[-1]
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * _pow(np.sin(np.pi * y[..., 0]), 2)
        + np.sum(
            (y[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[..., 1:]) ** 2), axis=-1
        )
        + _pow(y[..., -1] - 1.0, 2)
    )
    return np.pi / d * core + _bound_penalty(x, 10.0, 100.0, 4)


def _penalized_flats(x):
    first, last = x[..., 0], x[..., -1]
    core = (
        _pow(np.sin(3.0 * np.pi * first), 2)
        + np.sum(
            (x[..., :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[..., 1:]) ** 2), axis=-1
        )
        + _pow(last - 1.0, 2) * (1.0 + _pow(np.sin(2.0 * np.pi * last), 2))
    )
    return 0.1 * core + _bound_penalty(x, 5.0, 100.0, 4)


# id -> (objective, lower, upper, f_true or None for per-dim, noisy)
_SCALABLE = {
    "F1": (_sphere, -100.0, 100.0, 0.0, False),
    "F2": (_abs_sum_prod, -10.0, 10.0, 0.0, False),
    "F3": (_rotated_hyper_ellipsoid, -100.0, 100.0, 0.0, False),
    "F4": (_max_abs, -100.0, 100.0, 0.0, False),
    "F5": (_rosenbrock, -30.0, 30.0, 0.0, False),
    "F6": (_step, -100.0, 100.0, 0.0, False),
    "F7": (_noisy_quartic, -1.28, 1.28, 0.0, True),
    "F8": (_schwefel, -500.0, 500.0, None, False),
    "F9": (_rastrigin, -5.12, 5.12, 0.0, False),
    "F10": (_ackley, -32.0, 32.0, 0.0, False),
    "F11": (_griewank, -600.0, 600.0, 0.0, False),
    "F12": (_penalized_sine, -50.0, 50.0, 0.0, False),
    "F13": (_penalized_flats, -50.0, 50.0, 0.0, False),
}


# ---------------------------------------------------------------------------
# fixed-dimension classical functions
# ---------------------------------------------------------------------------

_FOXHOLE_A = np.array(
    [
        [-32, -16, 0, 16, 32] * 5,
        [-32] * 5 + [-16] * 5 + [0] * 5 + [16] * 5 + [32] * 5,
    ],
    dtype=float,
)


def _foxholes(x):
    denom = np.arange(1, 26) + np.sum((x[..., :, None] - _FOXHOLE_A) ** 6, axis=-2)
    return 1.0 / (1.0 / 500.0 + np.sum(1.0 / denom, axis=-1))


_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.16, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])


def _kowalik(x):
    b = _KOWALIK_B
    # each coordinate as a column against the 11 data points
    x1, x2, x3, x4 = x.T[..., None]
    model = x1 * (b * b + b * x2) / (b * b + b * x3 + x4)
    return np.sum((_KOWALIK_A - model) ** 2, axis=-1)


def _six_hump_camel(x):
    x1, x2 = x.T
    x1_2, x2_2 = _pow(x1, 2), _pow(x2, 2)
    return (
        4.0 * x1_2 - 2.1 * _pow(x1, 4) + _pow(x1, 6) / 3.0 + x1 * x2 - 4.0 * x2_2
        + 4.0 * _pow(x2, 4)
    )


def _branin(x):
    x1, x2 = x.T
    return (
        _pow(x2 - 5.1 / (4.0 * np.pi**2) * _pow(x1, 2) + 5.0 / np.pi * x1 - 6.0, 2)
        + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1)
        + 10.0
    )


def _goldstein_price(x):
    x1, x2 = x.T
    x1_2, x2_2 = _pow(x1, 2), _pow(x2, 2)
    a = 1.0 + _pow(x1 + x2 + 1.0, 2) * (
        19.0 - 14.0 * x1 + 3.0 * x1_2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2_2
    )
    b = 30.0 + _pow(2.0 * x1 - 3.0 * x2, 2) * (
        18.0 - 32.0 * x1 + 12.0 * x1_2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2_2
    )
    return a * b


_HARTMANN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN3_A = np.array([[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]], dtype=float)
_HARTMANN3_P = 1e-4 * np.array(
    [[3689, 1170, 2673], [4699, 4387, 7470], [1091, 8732, 5547], [381, 5743, 8828]],
    dtype=float,
)
_HARTMANN6_A = np.array(
    [
        [10, 3, 17, 3.5, 1.7, 8],
        [0.05, 10, 17, 0.1, 8, 14],
        [3, 3.5, 1.7, 10, 17, 8],
        [17, 8, 0.05, 10, 0.1, 14],
    ],
    dtype=float,
)
_HARTMANN6_P = 1e-4 * np.array(
    [
        [1312, 1696, 5569, 124, 8283, 5886],
        [2329, 4135, 8307, 3736, 1004, 9991],
        [2348, 1451, 3522, 2883, 3047, 6650],
        [4047, 8828, 8732, 5743, 1091, 381],
    ],
    dtype=float,
)


def _hartmann3(x):
    inner = np.sum(_HARTMANN3_A * (x[..., None, :] - _HARTMANN3_P) ** 2, axis=-1)
    return -np.sum(_HARTMANN_ALPHA * np.exp(-inner), axis=-1)


def _hartmann6(x):
    inner = np.sum(_HARTMANN6_A * (x[..., None, :] - _HARTMANN6_P) ** 2, axis=-1)
    return -np.sum(_HARTMANN_ALPHA * np.exp(-inner), axis=-1)


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
        d = np.sum((x[..., :, None] - _SHEKEL_C[:, :m]) ** 2, axis=-2) + _SHEKEL_B[:m]
        return -np.sum(1.0 / d, axis=-1)

    return fn


# id -> (objective, lower, upper, f_true); the bounds give the dimension
_FIXED = {
    "F14": (_foxholes, [-65.536] * 2, [65.536] * 2, 0.998003837794450),
    "F15": (_kowalik, [-5.0] * 4, [5.0] * 4, 0.0003074859878056),
    "F16": (_six_hump_camel, [-5.0] * 2, [5.0] * 2, -1.0316284534898776),
    "F17": (_branin, [-5.0, 0.0], [10.0, 15.0], 0.39788735772973816),
    "F18": (_goldstein_price, [-2.0] * 2, [2.0] * 2, 3.0),
    "F19": (_hartmann3, [0.0] * 3, [1.0] * 3, -3.8627797873326633),
    "F20": (_hartmann6, [0.0] * 6, [1.0] * 6, -3.322368011415515),
    "F21": (_shekel(5), [0.0] * 4, [10.0] * 4, -10.153199679058229),
    "F22": (_shekel(7), [0.0] * 4, [10.0] * 4, -10.402915336777745),
    "F23": (_shekel(10), [0.0] * 4, [10.0] * 4, -10.536443153483534),
}


# ---------------------------------------------------------------------------
# constrained engineering designs (g(x) <= 0)
# ---------------------------------------------------------------------------


def _truss_objective(x):
    x1, x2 = x.T
    return (2.0 * math.sqrt(2.0) * x1 + x2) * 100.0


def _truss_constraints(x):
    P, sigma = 2.0, 2.0
    rt2 = math.sqrt(2.0)
    x1, x2 = x.T
    area = rt2 * _pow(x1, 2) + 2.0 * x1 * x2
    return (
        (rt2 * x1 + x2) / area * P - sigma,
        x2 / area * P - sigma,
        1.0 / (rt2 * x2 + x1) * P - sigma,
    )


def _spring_objective(x):
    d, D, n = x.T
    return (n + 2.0) * D * d * d


def _spring_constraints(x):
    d, D, n = x.T
    d_4, D_2 = _pow(d, 4), _pow(D, 2)
    return (
        1.0 - _pow(D, 3) * n / (71785.0 * d_4),
        (4.0 * D_2 - d * D) / (12566.0 * (D * _pow(d, 3) - d_4))
        + 1.0 / (5108.0 * _pow(d, 2))
        - 1.0,
        1.0 - 140.45 * d / (D_2 * n),
        (D + d) / 1.5 - 1.0,
    )


def _weld_objective(x):
    x1, x2, x3, x4 = x.T
    return 1.10471 * _pow(x1, 2) * x2 + 0.04811 * x3 * x4 * (14.0 + x2)


def _weld_constraints(x):
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    tau_max, sigma_max, delta_max = 13600.0, 30000.0, 0.25
    x1, x2, x3, x4 = x.T
    x3_2 = _pow(x3, 2)
    # shear stress tau from its primary (t1) and torsional (t2) parts
    t1 = P / (math.sqrt(2.0) * x1 * x2)
    M = P * (L + x2 / 2.0)
    x2_2, half_2 = _pow(x2, 2), _pow((x1 + x3) / 2.0, 2)
    R = np.sqrt(x2_2 / 4.0 + half_2)
    J = 2.0 * math.sqrt(2.0) * x1 * x2 * (x2_2 / 12.0 + half_2)
    t2 = M * R / J
    tau = np.sqrt(_pow(t1, 2) + 2.0 * t1 * t2 * x2 / (2.0 * R) + _pow(t2, 2))
    # buckling load
    pc = (
        4.013 * E * np.sqrt(x3_2 * _pow(x4, 6) / 36.0) / L**2
        * (1.0 - x3 / (2.0 * L) * math.sqrt(E / (4.0 * G)))
    )
    return (
        tau - tau_max,
        6.0 * P * L / (x4 * x3_2) - sigma_max,
        x1 - x4,
        0.10471 * _pow(x1, 2) + 0.04811 * x3 * x4 * (14.0 + x2) - 5.0,
        0.125 - x1,
        4.0 * P * L**3 / (E * _pow(x3, 3) * x4) - delta_max,
        P - pc,
    )


def _vessel_objective(x):
    x1, x2, x3, x4 = x.T
    x1_2 = _pow(x1, 2)
    return (
        0.6224 * x1 * x3 * x4
        + 1.7781 * x2 * _pow(x3, 2)
        + 3.1661 * x1_2 * x4
        + 19.84 * x1_2 * x3
    )


def _vessel_constraints(x):
    x1, x2, x3, x4 = x.T
    return (
        -x1 + 0.0193 * x3,
        -x2 + 0.00954 * x3,
        -math.pi * _pow(x3, 2) * x4 - 4.0 / 3.0 * math.pi * _pow(x3, 3) + 1296000.0,
        x4 - 240.0,
    )


def _reducer_objective(x):
    x1, x2, x3, x4, x5, x6, x7 = x.T
    x6_2, x7_2 = _pow(x6, 2), _pow(x7, 2)
    return (
        0.7854 * x1 * _pow(x2, 2) * (3.3333 * _pow(x3, 2) + 14.9334 * x3 - 43.0934)
        - 1.508 * x1 * (x6_2 + x7_2)
        + 7.4777 * (_pow(x6, 3) + _pow(x7, 3))
        + 0.7854 * (x4 * x6_2 + x5 * x7_2)
    )


def _reducer_constraints(x):
    x1, x2, x3, x4, x5, x6, x7 = x.T
    x1_x2_2, x2_x3 = x1 * _pow(x2, 2), x2 * x3
    return (
        27.0 / (x1_x2_2 * x3) - 1.0,
        397.5 / (x1_x2_2 * _pow(x3, 2)) - 1.0,
        1.93 * _pow(x4, 3) / (x2_x3 * _pow(x6, 4)) - 1.0,
        1.93 * _pow(x5, 3) / (x2_x3 * _pow(x7, 4)) - 1.0,
        np.sqrt(_pow(745.0 * x4 / x2_x3, 2) + 16.9e6) / (110.0 * _pow(x6, 3)) - 1.0,
        np.sqrt(_pow(745.0 * x5 / x2_x3, 2) + 157.5e6) / (85.0 * _pow(x7, 3)) - 1.0,
        x2_x3 / 40.0 - 1.0,
        5.0 * x2 / x1 - 1.0,
        x1 / (12.0 * x2) - 1.0,
        (1.5 * x6 + 1.9) / x4 - 1.0,
        (1.1 * x7 + 1.9) / x5 - 1.0,
    )


# name -> (objective, constraints, lower, upper)
_ENGINEERING = {
    "three_bar_truss": (_truss_objective, _truss_constraints, [0.0, 0.0], [1.0, 1.0]),
    "tension_spring": (
        _spring_objective,
        _spring_constraints,
        [0.05, 0.25, 2.0],
        [2.0, 1.3, 15.0],
    ),
    "welded_beam": (
        _weld_objective,
        _weld_constraints,
        [0.1, 0.1, 0.1, 0.1],
        [2.0, 10.0, 10.0, 2.0],
    ),
    "pressure_vessel": (
        _vessel_objective,
        _vessel_constraints,
        [0.0, 0.0, 10.0, 10.0],
        [99.0, 99.0, 200.0, 240.0],
    ),
    "speed_reducer": (
        _reducer_objective,
        _reducer_constraints,
        [2.6, 0.7, 17.0, 7.3, 7.3, 2.9, 5.0],
        [3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5],
    ),
}

# suite name -> its problem names, in table order
SUITES = {
    "classical_scalable": tuple(_SCALABLE),
    "classical_fixed": tuple(_FIXED),
    "engineering": tuple(_ENGINEERING),
}


# ---------------------------------------------------------------------------
# penalty wrap and feasibility
# ---------------------------------------------------------------------------


def _violation_amounts(constraints, x):
    """Each constraint's violation at `x` (a point, or a batch for a
    vectorized spec), one row per constraint, clamped as min(max(v, 0), cap)
    with NaN counted as inf: non-finite values are maximal violations, so
    boundary singularities cannot poison comparisons. A zero keeps its sign,
    as Python's max(-0.0, 0.0) keeps it (np.maximum would not)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.array(constraints(x), dtype=float)
        if v.size == 0 or v.ndim != np.ndim(x) or v.shape[1:] != np.shape(x)[:-1]:
            raise ValueError(
                f"constraints gave shape {v.shape} for points of shape {np.shape(x)}: "
                "expected k >= 1 values, one row of values per constraint"
            )
        # fmin maps NaN to the cap
        return np.where(v < 0.0, 0.0, np.fmin(v, _VIOLATION_CAP))


def penalize(spec: ProblemSpec, coefficient: float = DEFAULT_PENALTY_COEFF) -> ProblemSpec:
    """Wrap a constrained spec so optimizers see a plain objective: the
    static penalty objective + coefficient * sum of positive violations.

    Feasible points keep their raw objective value exactly; each unit of
    violation adds `coefficient`. Constraints stay attached for feasibility
    reporting. The wrap of a vectorized spec is vectorized too. A spec that
    is already a wrap is refused: its penalty would count twice.
    """
    if not spec.constrained:
        raise ValueError(f"{spec.name}: penalize requires a constrained problem")
    if spec.raw_objective is not None:
        raise ValueError(f"{spec.name}: penalize got a spec that is already a penalty wrap")
    if not (coefficient > 0 and math.isfinite(coefficient)):
        raise ValueError("penalty coefficient must be positive finite")
    raw = spec.objective
    constraints = spec.constraints

    def penalized(x):
        # an accumulate adds the constraints left to right, as the per-point
        # float sum did (np.sum may add 8 or more terms in another order), and
        # the leading 0.0 turns a sum of -0.0 violations into 0.0, as it did
        total = 0.0 + np.add.accumulate(_violation_amounts(constraints, x))[-1]
        return raw(x) + coefficient * total

    return replace(spec, objective=penalized, raw_objective=raw)


def feasibility(x, spec: ProblemSpec, tol: float = DEFAULT_FEASIBILITY_TOL):
    """(feasible, max_violation) for a point under a constrained spec."""
    if not spec.constrained:
        raise ValueError(f"{spec.name}: feasibility requires constraints")
    worst = max(_violation_amounts(spec.constraints, np.asarray(x, dtype=float)).tolist())
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_PLUGINS: dict = {}


def register_plugin(spec: ProblemSpec) -> None:
    """Add a user problem to the registry; catalog names are reserved."""
    name = spec.name
    if any(name in names for names in SUITES.values()):
        raise ValueError(f"{name!r} collides with a catalog problem")
    if name in _PLUGINS:
        raise ValueError(f"plugin {name!r} is already registered")
    _PLUGINS[name] = spec


def clear_plugins() -> None:
    _PLUGINS.clear()


def get_problem(name: str, dim: Optional[int] = None) -> ProblemSpec:
    """The problem of a catalog or plugin name, and the one constructor of
    the catalog problems; scalable ids require `dim`."""
    if name in _SCALABLE:
        if dim is None:
            raise ValueError(f"{name} is scalable: a dimension is required")
        if dim < 2:
            raise ValueError(f"{name}: dim must be >= 2, got {dim}")
        fn, lo, hi, f_true, noisy = _SCALABLE[name]
        return ProblemSpec(
            name=name,
            dim=dim,
            lower=np.full(dim, lo),
            upper=np.full(dim, hi),
            objective=fn,
            f_true=_SCHWEFEL_PER_DIM * dim if name == "F8" else f_true,
            noisy=noisy,
            vectorized=True,
        )
    if name in _FIXED:
        fn, lo, hi, f_true = _FIXED[name]
        spec = ProblemSpec(
            name=name,
            dim=len(lo),
            lower=np.array(lo),
            upper=np.array(hi),
            objective=fn,
            f_true=f_true,
            vectorized=True,
        )
    elif name in _ENGINEERING:
        fn, cons, lo, hi = _ENGINEERING[name]
        spec = ProblemSpec(
            name=name,
            dim=len(lo),
            lower=np.array(lo),
            upper=np.array(hi),
            objective=fn,
            constraints=cons,
            vectorized=True,
        )
    elif name in _PLUGINS:
        spec = _PLUGINS[name]
    else:
        raise KeyError(f"unknown problem {name!r}")
    if dim is not None and dim != spec.dim:
        raise ValueError(f"{name} has fixed dimension {spec.dim}, got {dim}")
    return spec


def catalog_names() -> list:
    """All problem names: each suite's in `SUITES` order, then the plugins."""
    return [name for names in SUITES.values() for name in names] + sorted(_PLUGINS)

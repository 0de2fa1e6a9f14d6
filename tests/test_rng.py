import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drainvortex.rng import (
    LevyParams,
    RngStream,
    levy_step,
    mantegna_sigma,
    mix_seed,
    tangent_unit_vector,
)


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(1, "pso", "F1", 30, 0) == mix_seed(1, "pso", "F1", 30, 0)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {
            mix_seed(1, "pso", "F1", 30, r) for r in range(100)
        }
        assert len(seeds) == 100

    def test_order_sensitive(self):
        assert mix_seed("a", "b") != mix_seed("b", "a")

    def test_64_bit_range(self):
        s = mix_seed(12345, "x")
        assert 0 <= s < 2**64

    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=10**6))
    def test_no_concatenation_collisions(self, a, b):
        # ("ab", "c") and ("a", "bc") style tuples must not collide
        assert mix_seed(str(a) + "x", b) != mix_seed(str(a), "x" + str(b))


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a, b = RngStream(99), RngStream(99)
        assert np.array_equal(a.random(50), b.random(50))
        assert np.array_equal(a.standard_normal(50), b.standard_normal(50))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).random(20), RngStream(2).random(20))

    def test_normal_into_out_matches_sized_draw(self):
        a, b = RngStream(8), RngStream(8)
        block = np.empty((3, 7))
        for row in block:
            a.standard_normal(out=row)
        assert block.tobytes() == b.standard_normal((3, 7)).tobytes()
        assert a.random() == b.random()

    def test_restore_rewinds_to_snapshot(self):
        rng = RngStream(12)
        rng.random(5)
        mark = rng.snapshot()
        first = (rng.standard_normal(9), rng.random(4))
        rng.restore(mark)
        again = (rng.standard_normal(9), rng.random(4))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(first, again))

    def test_uniform_bounds(self):
        u = RngStream(5).uniform(-3.0, 7.0, 1000)
        assert np.all(u >= -3.0) and np.all(u < 7.0)


class TestTangent:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_orthogonal_unit(self, dim, seed):
        rng = RngStream(seed)
        radial = rng.standard_normal(dim)
        while np.linalg.norm(radial) == 0.0:
            radial = rng.standard_normal(dim)
        t = tangent_unit_vector(radial, rng)
        assert abs(np.linalg.norm(t) - 1.0) < 1e-12
        assert abs(float(t @ radial)) / np.linalg.norm(radial) < 1e-10

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            tangent_unit_vector(np.array([1.0]), RngStream(0))

    def test_zero_radial_rejected(self):
        with pytest.raises(ValueError):
            tangent_unit_vector(np.zeros(3), RngStream(0))


class TestMantegna:
    def test_unit_exponent_is_exactly_one(self):
        assert mantegna_sigma(1.0) == 1.0

    @pytest.mark.parametrize("beta", [0.0, 2.0, -0.5, 2.5])
    def test_domain(self, beta):
        with pytest.raises(ValueError):
            mantegna_sigma(beta)

    def test_monotone_decreasing_on_grid(self):
        values = [mantegna_sigma(b) for b in (0.3, 0.6, 1.0, 1.4, 1.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_levy_params_derive_sigma(self):
        p = LevyParams(beta=1.5)
        assert p.sigma_u == mantegna_sigma(1.5)


class TestLevyStep:
    def test_shape_and_finite(self):
        step = levy_step(64, LevyParams(), RngStream(11))
        assert step.shape == (64,)
        assert np.all(np.isfinite(step))

    def test_deterministic(self):
        p = LevyParams(beta=1.2)
        assert np.array_equal(levy_step(32, p, RngStream(3)), levy_step(32, p, RngStream(3)))

    def test_heavier_than_gaussian(self):
        # a heavy-tailed sample produces far more 5-sigma outliers
        step = levy_step(200_000, LevyParams(beta=1.5), RngStream(7))
        gauss = RngStream(8).standard_normal(200_000)
        assert np.mean(np.abs(step) > 5.0) > 10.0 * max(np.mean(np.abs(gauss) > 5.0), 1e-7)

    def test_matches_direct_ratio_construction(self):
        # same stream, manual u / |v|^(1/beta)
        p = LevyParams(beta=1.7)
        rng = RngStream(123)
        u = rng.standard_normal(16) * p.sigma_u
        v = rng.standard_normal(16)
        expected = u / np.abs(v) ** (1.0 / 1.7)
        assert np.allclose(levy_step(16, p, RngStream(123)), expected, rtol=0, atol=0)


def test_gamma_ratio_closed_form():
    # independent evaluation of the scale formula at one interior point
    beta = 1.5
    num = math.gamma(2.5) * math.sin(0.75 * math.pi)
    den = math.gamma(1.25) * 1.5 * 2.0 ** 0.25
    assert math.isclose(mantegna_sigma(beta), (num / den) ** (2.0 / 3.0), rel_tol=1e-15)

"""Seeded random streams and step-distribution primitives.

All stochastic behaviour in the package flows through `RngStream` so that a
run is a pure function of its 64-bit seed. Streams for related runs are
derived by hash-mixing, never by reusing or offsetting raw seeds.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

Array = np.ndarray

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# smallest |v| allowed in the levy ratio; below this the component is redrawn
_LEVY_DENOM_FLOOR = 1e-300

# tangent projections shorter than this are considered degenerate and redrawn
_TANGENT_FLOOR = 1e-12
_TANGENT_TRIES = 16


def mix_seed(*parts) -> int:
    """Collapse ints/strings into one stable 64-bit seed.

    blake2b over the reprs, so the result does not depend on process state
    (PYTHONHASHSEED) and distinct part tuples give independent seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


class RngStream(np.random.Generator):
    """Deterministic random stream: a numpy Generator over PCG64, seeded with
    the low 64 bits of `seed`.

    Identical seeds produce identical sequences on the same build; distinct
    seeds give statistically independent streams.
    """

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(int(seed) & _SEED_MASK))


def tangent_unit_vector(radial: Array, rng: RngStream) -> Array:
    """Unit vector orthogonal to `radial`, uniform over the tangent sphere.

    Draws a standard normal vector, removes its component along `radial`, and
    normalizes. Degenerate projections (norm below 1e-12) are redrawn, up to
    16 attempts. Requires dim >= 2: a 1-D space has no tangent direction.
    """
    radial = np.asarray(radial, dtype=float)
    if radial.size < 2:
        raise ValueError("tangent direction requires dimension >= 2")
    scale = np.linalg.norm(radial)
    if scale == 0.0:
        raise ValueError("radial direction must be nonzero")
    unit = radial / scale
    for _ in range(_TANGENT_TRIES):
        g = rng.standard_normal(radial.size)
        t = g - (g @ unit) * unit
        n = np.linalg.norm(t)
        if n >= _TANGENT_FLOOR:
            return t / n
    raise RuntimeError("failed to draw a non-degenerate tangent direction")


def mantegna_sigma(beta: float) -> float:
    """Numerator scale for Mantegna's heavy-tailed step sampler.

    sigma_u = [Gamma(1+b) sin(pi b/2) / (Gamma((1+b)/2) b 2^((b-1)/2))]^(1/b)
    for stability exponent b in (0, 2).
    """
    if not 0.0 < beta < 2.0:
        raise ValueError(f"stability exponent must lie in (0, 2), got {beta}")
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def levy_step(dim: int, beta: float, rng: RngStream) -> Array:
    """Heavy-tailed step vector: u / |v|^(1/beta) per component (Mantegna).

    u ~ N(0, sigma_u^2) with sigma_u = mantegna_sigma(beta) and v ~ N(0, 1),
    independent per component. A |v| component below 1e-300 is redrawn so
    the ratio stays finite.
    """
    u = rng.standard_normal(dim) * mantegna_sigma(beta)
    v = rng.standard_normal(dim)
    tiny = np.abs(v) < _LEVY_DENOM_FLOOR
    while tiny.any():
        v[tiny] = rng.standard_normal(int(tiny.sum()))
        tiny = np.abs(v) < _LEVY_DENOM_FLOOR
    return u / np.abs(v) ** (1.0 / beta)

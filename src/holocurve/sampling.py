"""Deterministic low-discrepancy sampling helpers.

All samplers are driven by the additive-recurrence (R2) sequence built on the
plastic constant, so every consumer of a (count, seed) pair sees exactly the
same points on every run and platform.
"""
from __future__ import annotations

import numpy as np

# Plastic constant: unique real root of g^3 = g + 1.
_PLASTIC = 1.32471795724474602596


def r2_sequence(n: int, dim: int = 2, seed: int = 0) -> np.ndarray:
    """First n points of the seeded R2 sequence in [0,1)^dim, shape (n, dim)."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    alpha = (1.0 / _PLASTIC) ** np.arange(1, dim + 1)
    # The seed rotates the lattice by multiples of an irrational vector
    # unrelated to alpha (sqrt(2), sqrt(3), ... mod 1).  Advancing the
    # recurrence itself would make neighbouring seeds share all but a few
    # points; a rotation keeps the sets disjoint and equally uniform.
    # 0.5 keeps the unseeded sequence away from the corner.  The rotation
    # is reduced mod 1 first: a start near seed * sqrt(p) (1.6e12 at seed
    # 2^40) would leave each coordinate only a few thousand values.
    primes = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], dtype=float)
    if dim > primes.size:
        raise ValueError("at most 10 dimensions supported")
    shift = np.sqrt(primes[:dim])
    start = 0.5 + np.mod(seed * shift, 1.0)
    u = np.arange(1, n + 1)[:, None] * alpha
    u += start
    return np.mod(u, 1.0, out=u)


def disk_samples(n: int, r_min: float = 0.0, r_max: float = 1.0,
                 seed: int = 0) -> np.ndarray:
    """Complex points equidistributed (area measure) in the annulus
    r_min <= |z| < r_max; raises ValueError unless 0 <= r_min < r_max <= 1."""
    if not 0.0 <= r_min < r_max <= 1.0:
        raise ValueError(f"sample annulus needs 0 <= r_min < r_max <= 1, "
                         f"got r_min = {r_min:g}, r_max = {r_max:g}")
    r, theta = r2_sequence(n, 2, seed).T
    # Area-uniform radius: r = sqrt(lerp in r^2), in place.
    r *= r_max ** 2 - r_min ** 2
    r += r_min ** 2
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    z = 1j * theta
    np.exp(z, out=z)
    return np.multiply(z, r, out=z)


def strip_samples(n: int, half_height: float, seed: int = 0) -> np.ndarray:
    """Complex points covering the horizontal strip |Im w| < half_height.

    The real part is 2 tan(pi (u - 1/2)) of an equidistributed u in [0, 1),
    so the sample has heavy tails (reaching |Re w| in the thousands at
    n ~ 1e4); estimates whose extremes live at large |Re w| (as the
    asymptotic constants here do) need those tails.
    """
    u = r2_sequence(n, 2, seed)
    x = 2.0 * np.tan(np.pi * (u[:, 0] - 0.5))
    y = half_height * (2.0 * u[:, 1] - 1.0) * (1.0 - 1e-9)
    return x + 1j * y

"""Built-in extremal example curves and designed test fixtures.

Example 1: phi(z) = (c e^{pi z}, e^{-pi z}) with c large.  Meets the
constant-weight criterion bound pi^2/2 with *identical* equality at every
point of the disk once c^2 e^{-4 pi} >= 5 + 2 sqrt(6); its closed forms
(metric, Schwarzian, Wronskian) are simple enough to serve as exact oracles.

Example 2: phi(z) = (f, 1/f), f = (c Phi + i)/(c Phi - i), Phi = artanh z,
0 < c < 4/pi.  Meets the inverse-square-weight criterion with equality
exactly on the real diameter.  Multiplying its criterion margin by
|1-z^2|^2/2 turns it into the reduced form |1-zeta| + |zeta| <=
|1-z^2|^2/(1-|z|^2)^2 with

    zeta = 12 c^2 conj((1 + c^2 Phi^2)^2) / (|c Phi - i|^4 + |c Phi + i|^4)^2,

an identity the tests assert exactly.  The small-c estimate constants for
this zeta are fitted over the image strip |Im Phi| < pi/4 by
`strip_constants_check`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .jets import (ComposedComponent, ExponentialComponent, HoloCurve,
                   MoebiusComponent, PolynomialComponent,
                   ReciprocalComponent, StripMapComponent, artanh)
from .sampling import strip_samples

__all__ = [
    "EXAMPLE1_C", "EXAMPLE2_C",
    "example1_min_c", "example1_curve", "example1_e2sigma",
    "example1_schwarzian", "example1_wronskian_sq",
    "example2_curve", "example2_zeta", "example2_reduced_slack",
    "z_squared_curve",
    "StripConstants", "strip_constants_check",
]


# Default c of each example: the CLI's curve.c when unset.
EXAMPLE1_C = 1700.0
EXAMPLE2_C = 0.05


# ---------------------------------------------------------------------------
# Example 1
# ---------------------------------------------------------------------------

def example1_min_c() -> float:
    """Smallest admissible c: c^2 e^{-4 pi} = 5 + 2 sqrt(6) (~1684.97)."""
    return float(np.exp(2.0 * np.pi) * np.sqrt(5.0 + 2.0 * np.sqrt(6.0)))


def example1_curve(c: float = EXAMPLE1_C) -> HoloCurve:
    """phi(z) = (c e^{pi z}, e^{-pi z}); needs example1_min_c() <= c < inf."""
    if not example1_min_c() <= c < np.inf:
        raise ConfigError(
            f"c = {c:g} must be finite and at least the admissible threshold "
            f"{example1_min_c():.6f}; below it the criterion would fail "
            f"near x = -1")
    return HoloCurve((ExponentialComponent(c, np.pi),
                      ExponentialComponent(1.0, -np.pi)),
                     label=f"example1(c={c:g})")


def example1_e2sigma(z, c: float) -> np.ndarray:
    """e^{2 sigma} = pi^2 (c^2 e^{2 pi x} + e^{-2 pi x}), x = Re z."""
    x = np.real(z)
    return np.pi ** 2 * (c * c * np.exp(2 * np.pi * x)
                         + np.exp(-2 * np.pi * x))


def example1_schwarzian(z, c: float) -> np.ndarray:
    """S phi = pi^2 (1 - (3/2) t^2), t = (A - B)/(A + B), A = c^2 e^{2 pi x},
    B = e^{-2 pi x}.  Real and independent of Im z."""
    x = np.real(z)
    a = c * c * np.exp(2 * np.pi * x)
    b = np.exp(-2 * np.pi * x)
    t = (a - b) / (a + b)
    return np.pi ** 2 * (1.0 - 1.5 * t * t)


def example1_wronskian_sq(c: float) -> float:
    """W^2 = 4 c^2 pi^6, constant over the disk (no cancellation)."""
    return 4.0 * c * c * np.pi ** 6


# ---------------------------------------------------------------------------
# Example 2
# ---------------------------------------------------------------------------

def example2_curve(c: float = EXAMPLE2_C) -> HoloCurve:
    """phi = (f, 1/f), f = (c artanh z + i)/(c artanh z - i), 0 < c < 4/pi.

    The bound keeps the pole preimage artanh(i/c) outside the closed strip
    |Im w| <= pi/4, so f is finite and nonvanishing on the disk.
    """
    if not 0.0 < c < 4.0 / np.pi:
        raise ConfigError(f"c = {c:g} outside the admissible range "
                          f"(0, {4.0 / np.pi:.6f})")
    f = ComposedComponent(MoebiusComponent(c, 1j, c, -1j),
                          StripMapComponent())
    return HoloCurve((f, ReciprocalComponent(f)), label=f"example2(c={c:g})")


def _zeta_parts(c: float, Phi: np.ndarray):
    """Cancellation-free pieces of zeta = scale * V^2: (Re zeta, Im zeta,
    scale, Im V).

    |zeta| - Re zeta is the product 2 * scale * Im(V)^2 rather than a
    difference, so it stays exact however close Phi sits to the real axis.
    """
    a, b = np.real(Phi), np.imag(Phi)
    re_v = 1.0 + c * c * (a * a - b * b)     # Re(1 + c^2 Phi^2)
    im_v = 2.0 * c * c * a * b
    u_re, u_im = c * a, c * b
    d = ((u_re ** 2 + (u_im - 1.0) ** 2) ** 2
         + (u_re ** 2 + (u_im + 1.0) ** 2) ** 2)
    scale = 12.0 * c * c / (d * d)
    re_z = scale * (re_v * re_v - im_v * im_v)
    im_z = -scale * 2.0 * re_v * im_v
    return re_z, im_z, scale, im_v


def example2_zeta(c: float, z) -> np.ndarray:
    """zeta(z) of the reduced criterion.

    Phi = artanh z comes from `jets.artanh`, bit for bit the strip map's
    value in example2_curve: one real log and one arctan2 a point, measured
    within 0.72 * 2^-52 max(1, |Phi|) of 40-digit mpmath.
    """
    z = np.asarray(z, dtype=complex)
    Phi = artanh(z)
    re_z, im_z, _, _ = _zeta_parts(c, Phi)
    return re_z + 1j * im_z


def example2_reduced_slack(c: float, z) -> np.ndarray:
    """RHS - LHS of |1 - zeta| + |zeta| <= |1-z^2|^2 / (1-|z|^2)^2.

    Equals (|1-z^2|^2 / 2) times the generic criterion margin of example 2
    against the inverse-square weight -- exactly, not asymptotically.
    """
    z = np.asarray(z, dtype=complex)
    zeta = example2_zeta(c, z=z)
    rhs = np.abs(1.0 - z * z) ** 2 / ((1.0 - np.abs(z)) * (1.0 + np.abs(z))) ** 2
    return rhs - np.abs(1.0 - zeta) - np.abs(zeta)


# ---------------------------------------------------------------------------
# Designed injectivity fixture
# ---------------------------------------------------------------------------

def z_squared_curve() -> HoloCurve:
    """phi(z) = z^2: the canonical non-injective curve; every antipodal pair
    collides exactly.  Scan it with symmetrize=True -- a generic cloud has
    no antipodal pairs and would certify nothing."""
    return HoloCurve((PolynomialComponent([0.0, 0.0, 1.0]),),
                     label="z-squared")


# ---------------------------------------------------------------------------
# Small-c estimate constants on the strip
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripConstants:
    """Fitted sup-constants of the small-c zeta estimates over the strip.

    A: sup (|zeta| - Re zeta) / (c^4 Im(Phi)^2)      (-> 81/32 as c -> 0)
    B: sup |Im zeta| / (c^3 |Im Phi|)                (-> ~3.106 as c -> 0)
    C: sup (|1-zeta| + |zeta| - 1) / (c^4 Im(Phi)^2) (-> A + O(c^2))
    """

    c: float
    A: float
    B: float
    C: float
    n_used: int


def strip_constants_check(c: float, n_samples: int = 20000,
                          seed: int = 0) -> StripConstants:
    """Fit the estimate constants by sampling Phi over the image strip.

    The extremes live where c * Re Phi = O(1), i.e. at |Re Phi| ~ 1/c, so
    the strip sample's heavy-tailed real part is essential: disk-shaped
    samples of Phi values cannot reach that regime for small c.  All three
    numerators are evaluated in product form (no small differences), so the
    ratios stay clean arbitrarily close to the real axis.
    """
    if not 0.0 < c <= 0.2:
        raise ConfigError(f"c = {c:g}: the small-c estimates are fitted for "
                          "0 < c <= 0.2")
    w = strip_samples(n_samples, half_height=np.pi / 4.0, seed=seed)
    b = np.imag(w)
    mask = np.abs(b) >= 1e-9
    w = w[mask]
    b = b[mask]
    re_z, im_z, scale, im_v = _zeta_parts(c, w)
    gap = 2.0 * scale * im_v * im_v
    one_minus = np.sqrt((1.0 - re_z) ** 2 + im_z ** 2)
    # |1-zeta| - (1-Re zeta), stable form (Re zeta < 1 for c <= 0.2):
    extra = im_z ** 2 / (one_minus + (1.0 - re_z))
    denom_a = c ** 4 * b * b
    a_const = float(np.max(gap / denom_a))
    b_const = float(np.max(np.abs(im_z) / (c ** 3 * np.abs(b))))
    c_const = float(np.max((gap + extra) / denom_a))
    return StripConstants(c=c, A=a_const, B=b_const, C=c_const,
                          n_used=int(len(w)))

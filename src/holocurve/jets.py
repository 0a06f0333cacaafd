"""Order-3 holomorphic jets and the built-in curve models.

A holomorphic curve here is a tuple of scalar holomorphic components on the
unit disk; everything downstream (Schwarzian data, curvature, criterion
scans) consumes only the value and first three derivatives of each component.
This module provides

* ``Jet3`` -- (f, f', f'', f''') with chain-rule and reciprocal algebra,
* component models (polynomial, exponential, Moebius, strip map, and the
  composition and reciprocal wrappers) emitting exact jets; within one
  ``HoloCurve.eval`` a sub-component that several wrappers share is
  evaluated once,
* ``HoloCurve``, whose ``eval`` (alias ``eval_curve``) returns one
  ``CurveJet``: a ``Jet3`` stacking all component jets, times its factors,
* ``DiskMobius`` disk automorphisms, whose jets are ``MoebiusComponent``
  jets, and ``precompose_disk_mobius``,
* ``_fd_stencil``, the seven-point finite differences of the S1 oracles.

Jet evaluation is vectorized: ``z`` may be a scalar or ndarray and the fields
of the returned jets have the same shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, VanishingTangentError

__all__ = [
    "Jet3", "CurveJet", "HoloCurve", "DiskMobius",
    "PolynomialComponent", "ExponentialComponent", "MoebiusComponent",
    "StripMapComponent", "ComposedComponent", "ReciprocalComponent",
    "eval_curve", "precompose_disk_mobius", "scale_curve",
    "identity_curve", "polynomial_curve",
    "strip_curve", "tan_truncation_curve", "radial_pair_curve",
    "tan_series", "artanh",
]

# Points evaluated at a time where a caller blocks its evaluation: bounds the
# jet temporaries, and changes no bit, since evaluation is elementwise.
_CHUNK = 4096


# ---------------------------------------------------------------------------
# Jet algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet3:
    """Value and first three complex derivatives of a holomorphic function.

    Fields are scalars or ndarrays of a common shape; the algebra is
    elementwise.
    """

    val: complex | np.ndarray
    d1: complex | np.ndarray
    d2: complex | np.ndarray
    d3: complex | np.ndarray

    def reciprocal(self) -> "Jet3":
        """Jet of 1/f.  Caller is responsible for f != 0."""
        g, g1, g2, g3 = self.val, self.d1, self.d2, self.d3
        inv = 1.0 / g
        inv2 = inv * inv
        return Jet3(
            inv,
            -g1 * inv2,
            (2.0 * g1 * g1 * inv - g2) * inv2,
            (-6.0 * g1 ** 3 * inv2 + 6.0 * g1 * g2 * inv - g3) * inv2,
        )

    def compose(self, inner: "Jet3") -> "Jet3":
        """Chain rule (Faa di Bruno to order three).

        ``self`` must hold the jets of the outer map evaluated at
        ``inner.val``; the result is the jet of outer(inner(.)).
        """
        g1, g2, g3 = inner.d1, inner.d2, inner.d3
        return Jet3(
            self.val,
            self.d1 * g1,
            self.d2 * g1 * g1 + self.d1 * g2,
            self.d3 * g1 ** 3 + 3.0 * self.d2 * g1 * g2 + self.d1 * g3,
        )


# ---------------------------------------------------------------------------
# Component models (each emits exact order-3 jets)
# ---------------------------------------------------------------------------

class PolynomialComponent:
    """f(z) = sum coeffs[k] z^k, coefficients ascending."""

    def __init__(self, coeffs: Sequence[complex]):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise ConfigError("coeffs must be a nonempty finite 1-d sequence")
        self.coeffs = c
        P = np.polynomial.polynomial
        self._dc = [c, P.polyder(c), P.polyder(c, 2), P.polyder(c, 3)]

    def jet(self, z) -> Jet3:
        P = np.polynomial.polynomial
        return Jet3(*(P.polyval(z, d) for d in self._dc))


class ExponentialComponent:
    """f(z) = amplitude * exp(rate * z)."""

    def __init__(self, amplitude: complex, rate: complex):
        if amplitude == 0:
            raise ConfigError("amplitude must be nonzero")
        self.amplitude = complex(amplitude)
        self.rate = complex(rate)

    def jet(self, z) -> Jet3:
        b = self.rate
        f = self.amplitude * np.exp(b * z)
        return Jet3(f, b * f, b * b * f, b ** 3 * f)


class MoebiusComponent:
    """f(z) = (a z + b) / (c z + d), with a d - b c != 0."""

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        self.a, self.b, self.c, self.d = (complex(a), complex(b),
                                          complex(c), complex(d))
        self.det = self.a * self.d - self.b * self.c
        if self.det == 0:
            raise ConfigError("degenerate Moebius map (zero determinant)")

    def jet(self, z) -> Jet3:
        w = self.c * z + self.d
        if np.any(np.abs(w) < 1e-12):
            raise DomainError("Moebius component evaluated at its pole")
        inv = 1.0 / w
        det = self.det
        return Jet3(
            (self.a * z + self.b) * inv,
            det * inv ** 2,
            -2.0 * self.c * det * inv ** 3,
            6.0 * self.c ** 2 * det * inv ** 4,
        )


def artanh(z):
    """artanh z = (1/2) log((1+z)/(1-z)) for |z| < 1, by real arithmetic:
    with x, y = Re z, Im z, the real part is
    (1/4) log(((1+x)^2 + y^2) / ((1-x)^2 + y^2)) and the imaginary part
    (1/2) arctan2(2y, (1-x)(1+x) - y^2) (Kahan, "Branch cuts for complex
    elementary functions", 1987).

    One real log and one arctan2 a point in place of two complex logs, and
    as accurate: against 40-digit mpmath, on the disk up to 1e-12 from the
    circle and at radii down to 1e-300, the error measured at most
    0.72 * 2^-52 max(1, |artanh z|) (the two complex logs: 0.93).
    """
    x, y = np.real(z), np.imag(z)
    y2 = y * y
    w = np.empty(np.shape(z), complex)      # keeps the sign of a zero part
    w.real = 0.25 * np.log(((1.0 + x) ** 2 + y2) / ((1.0 - x) ** 2 + y2))
    w.imag = 0.5 * np.arctan2(2.0 * y, (1.0 - x) * (1.0 + x) - y2)
    return w[()]


class StripMapComponent:
    """f(z) = artanh z = (1/2) log((1+z)/(1-z)); maps D onto |Im w| < pi/4.

    The value comes from `artanh`, so example 2's zeta sees the same bits.
    """

    def jet(self, z) -> Jet3:
        one_minus = 1.0 - z * z
        inv = 1.0 / one_minus
        return Jet3(
            artanh(z),
            inv,
            2.0 * z * inv * inv,
            (2.0 + 6.0 * z * z) * inv ** 3,
        )


class _NestedComponent:
    """A component built on other components at the same points.

    `memo` maps id(component) to its jet at z; HoloCurve.eval passes one
    memo to all its components, so a sub-component several of them share
    (example 2's f inside 1/f) is evaluated once per call.
    """

    def jet(self, z, memo: dict | None = None) -> Jet3:
        return self._jet(z, {} if memo is None else memo)


def _shared_jet(m, z, memo: dict) -> Jet3:
    """Jet of component m at z, computed at most once per memo."""
    jet = memo.get(id(m))
    if jet is None:
        jet = m.jet(z, memo) if isinstance(m, _NestedComponent) else m.jet(z)
        memo[id(m)] = jet
    return jet


class ComposedComponent(_NestedComponent):
    """outer(inner(z)) via the order-3 chain rule."""

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner

    def _jet(self, z, memo) -> Jet3:
        gj = _shared_jet(self.inner, z, memo)
        # outer runs at inner's values, not at z: it gets no shared memo.
        return self.outer.jet(gj.val).compose(gj)


class ReciprocalComponent(_NestedComponent):
    """1/f for a nonvanishing component f."""

    def __init__(self, base):
        self.base = base

    def _jet(self, z, memo) -> Jet3:
        fj = _shared_jet(self.base, z, memo)
        if np.any(np.abs(fj.val) < 1e-150):
            raise DomainError("reciprocal component hit a zero of its base")
        return fj.reciprocal()


# ---------------------------------------------------------------------------
# Disk automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskMobius:
    """T(z) = e^{i theta} (z - i rho) / (1 + i rho z), rho in (-1, 1).

    These automorphisms of the disk move points radially outward on the real
    axis: |T(x)| >= |x| for real x, which is what makes them compatible with
    radially non-increasing weight functions.
    """

    rho: float
    theta: float = 0.0

    def __post_init__(self):
        if not (-1.0 < float(self.rho) < 1.0 and np.isfinite(self.theta)):
            raise ConfigError("rho must lie in (-1, 1) and theta be finite")

    def jet(self, z) -> Jet3:
        """The jet of T, as a MoebiusComponent."""
        phase = np.exp(1j * self.theta)
        return MoebiusComponent(phase, -1j * self.rho * phase, 1j * self.rho,
                                1.0).jet(z)

    def __call__(self, z):
        return self.jet(z).val


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveJet(Jet3):
    """The order-3 jet of a whole curve at common evaluation points.

    val, d1, d2 and d3 stack the components' jets times the curve's factors,
    row k holding component k, so each has shape (n,) + shape(z);
    q = sum |f_k'|^2 (= e^{2 sigma}) has the shape of z.
    """

    z: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class HoloCurve:
    """A holomorphic curve D -> C^n: exact component models times `factors`."""

    components: tuple
    label: str = "curve"
    factors: tuple = ()

    def __post_init__(self):
        if not self.components:
            raise ConfigError("a curve needs at least one component")

    @property
    def n(self) -> int:
        return len(self.components)

    def eval(self, z) -> CurveJet:
        z = np.asarray(z, dtype=complex)
        if not np.all(np.abs(z) < 1.0):             # a NaN point fails too
            raise DomainError("evaluation point outside the open unit disk")
        # A point is a one-point array: it has the bits it has in any array.
        memo = {}
        jets = [_shared_jet(m, z.reshape(-1), memo) for m in self.components]
        del memo                # sub-jets go before the stack is built
        stack = np.array([[getattr(j, f) for j in jets] for f in (
            "val", "d1", "d2", "d3")]).reshape((4, self.n) + z.shape)
        del jets
        for factor in self.factors:
            stack *= factor
        q = np.sum(np.abs(stack[1]) ** 2, axis=0)
        if np.any(q < 1e-280):
            raise VanishingTangentError(
                f"tangent vector of '{self.label}' vanished at a requested point")
        return CurveJet(*stack, z, q)


def eval_curve(curve: HoloCurve, z) -> CurveJet:
    """Evaluate the order-3 jet of every component of `curve` at `z`."""
    return curve.eval(z)


def precompose_disk_mobius(curve: HoloCurve, mobius: DiskMobius) -> HoloCurve:
    """The curve z -> phi(T(z)): chain-rule jets, then phi's factors."""
    comps = tuple(ComposedComponent(m, mobius) for m in curve.components)
    label = f"{curve.label}∘mobius(rho={mobius.rho:g},theta={mobius.theta:g})"
    return HoloCurve(comps, label, curve.factors)


def scale_curve(curve: HoloCurve, factor: complex) -> HoloCurve:
    """factor * phi: phi's components, `factor` after its factors.  Its jets
    have the bits of each component's jet times `factor`, field by field."""
    if factor == 0 or not np.isfinite(factor):
        raise ConfigError("scale factor must be finite and nonzero")
    return HoloCurve(curve.components, f"{abs(factor):.6g}*{curve.label}",
                     curve.factors + (complex(factor),))


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def identity_curve() -> HoloCurve:
    return HoloCurve((PolynomialComponent([0.0, 1.0]),), label="identity")


def polynomial_curve(coeff_lists: Sequence[Sequence[complex]],
                     label: str | None = None) -> HoloCurve:
    comps = tuple(PolynomialComponent(c) for c in coeff_lists)
    return HoloCurve(comps, label=label or f"polynomial(n={len(comps)})")


def strip_curve() -> HoloCurve:
    """n = 1 curve given by the strip map artanh."""
    return HoloCurve((StripMapComponent(),), label="strip-map")


def radial_pair_curve(k: float = 0.7) -> HoloCurve:
    """phi(z) = (z, k z^2); simple nonplanar test curve with K < 0 off 0."""
    if not np.isfinite(k):
        raise ConfigError("k must be finite")
    return HoloCurve(
        (PolynomialComponent([0.0, 1.0]), PolynomialComponent([0.0, 0.0, k])),
        label=f"radial-pair(k={k:g})")


def tan_series(degree: int) -> np.ndarray:
    """Maclaurin coefficients of tan up to `degree` (ascending).

    Built by iterating the integral form of T' = 1 + T^2; each pass doubles
    the number of correct coefficients, so ~log2(degree) passes suffice.
    """
    t = np.zeros(degree + 1)
    for _ in range(int(np.ceil(np.log2(max(degree, 2)))) + 2):
        sq = np.convolve(t, t)[:degree + 1]
        nxt = np.zeros(degree + 1)
        nxt[1] = 1.0 + sq[0]
        for k in range(1, degree):
            nxt[k + 1] = sq[k] / (k + 1)
        t = nxt
    return t


def tan_truncation_curve(stretch: float = 1.2, degree: int = 41) -> HoloCurve:
    """Polynomial truncation of f(z) = tan(a z), a = stretch * pi / 2.

    For stretch > 1 this has S f(0) = 2 a^2 > pi^2 / 2, so it violates the
    classical bound at the origin while remaining polynomial (pole-free).
    Keep scans inside |z| <~ 0.6/stretch where the truncation is faithful.
    """
    if not np.isfinite(stretch):
        raise ConfigError("stretch must be finite")
    if degree < 1:
        raise ConfigError(f"degree = {degree} must be at least 1")
    a = stretch * np.pi / 2.0
    t = tan_series(degree)
    coeffs = t * a ** np.arange(degree + 1)
    return HoloCurve((PolynomialComponent(coeffs),),
                     label=f"tan-truncation(stretch={stretch:g})")


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def _fd_stencil(samples, order: int, h: float):
    """The 4th-order central difference of `order` (1, 2 or 3) from the
    seven samples f(z + k h), k = -3, ..., 3."""
    fm3, fm2, fm1, f0, fp1, fp2, fp3 = samples
    if order == 1:
        return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    if order == 2:
        return (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return (-fp3 + 8.0 * fp2 - 13.0 * fp1 + 13.0 * fm1 - 8.0 * fm2 + fm3) \
        / (8.0 * h ** 3)

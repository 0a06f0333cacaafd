"""Real-variable Schwarzian S1 of curves in R^m and its invariances.

For a regular C^3 curve x(t) in R^m with derivatives x1, x2, x3, Ahlfors'
injectivity Schwarzian is

    S1 x = <x1,x3>/|x1|^2 - 3 <x1,x2>^2/|x1|^4 + (3/2) |x2|^2/|x1|^2.

Restricting a holomorphic curve phi to an arclength path gamma in the disk
turns S1(phi o gamma) into conformal data of phi plus the path curvature;
this module provides the direct formula, that curvature decomposition, the
speed/curvature form, and a finite-difference Moebius-invariance check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, VanishingTangentError
from .jets import HoloCurve, Jet3, _fd_stencil, fd_derivative
from .schwarzian import conformal_data

__all__ = [
    "RealCurveSample", "PlaneCurve",
    "compose_real", "s1_direct", "s1_of_composed_curve",
    "s1_via_curvature", "s1_from_speed_curvature", "make_speed_curvature",
    "s1_mobius_invariance_check",
]


# ---------------------------------------------------------------------------
# Samples and the direct formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealCurveSample:
    """Position and first three derivatives of a curve in R^m at one time."""

    t: float
    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray


def s1_direct(sample: RealCurveSample) -> float:
    x1, x2, x3 = sample.x1, sample.x2, sample.x3
    v2 = float(np.dot(x1, x1))
    if v2 == 0.0:
        raise VanishingTangentError("S1 undefined where the tangent vanishes")
    a12 = float(np.dot(x1, x2))
    return (float(np.dot(x1, x3)) / v2
            - 3.0 * a12 * a12 / (v2 * v2)
            + 1.5 * float(np.dot(x2, x2)) / v2)


# ---------------------------------------------------------------------------
# Arclength paths in the disk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneCurve:
    """Unit-speed path in the unit disk: a diameter or a circle.

    kind "diameter": gamma(t) = t e^{i theta}, |t| < 1, curvature 0.
    kind "circle":   gamma(t) = center + radius e^{i t / radius},
                     curvature 1/radius; must stay inside the disk.
    """

    kind: str
    theta: float = 0.0
    center: complex = 0.0
    radius: float = 0.0

    @staticmethod
    def diameter(theta: float = 0.0) -> "PlaneCurve":
        return PlaneCurve(kind="diameter", theta=float(theta))

    @staticmethod
    def circle(radius: float, center: complex = 0.0) -> "PlaneCurve":
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        if abs(center) + radius >= 1.0:
            raise DomainError("circle leaves the unit disk")
        return PlaneCurve(kind="circle", center=complex(center),
                          radius=float(radius))

    def jet(self, t: float) -> Jet3:
        if self.kind == "diameter":
            e = np.exp(1j * self.theta)
            return Jet3(t * e, e, 0.0 * e, 0.0 * e)
        if self.kind == "circle":
            w = self.radius * np.exp(1j * t / self.radius)
            return Jet3(self.center + w, 1j * w / self.radius,
                        -w / self.radius ** 2, -1j * w / self.radius ** 3)
        raise ValueError(f"unknown path kind {self.kind!r}")

    def curvature(self, t: float) -> float:
        return 0.0 if self.kind == "diameter" else 1.0 / self.radius

    def t_range(self) -> tuple[float, float]:
        """A parameter interval safely inside the domain."""
        if self.kind == "diameter":
            return (-0.95, 0.95)
        return (0.0, 2.0 * np.pi * self.radius)


def _interleave(vals: np.ndarray) -> np.ndarray:
    """(n,) complex -> (2n,) real: [Re v1, Im v1, Re v2, Im v2, ...]."""
    out = np.empty(2 * vals.size)
    out[0::2] = np.real(vals)
    out[1::2] = np.imag(vals)
    return out


def compose_real(curve: HoloCurve, path: PlaneCurve, t: float) -> RealCurveSample:
    """Jets of the real curve t -> phi(gamma(t)) in R^{2n}."""
    gj = path.jet(t)
    jet = curve.eval(gj.val).compose(gj)
    return RealCurveSample(t=float(t), x0=_interleave(jet.val),
                           x1=_interleave(jet.d1), x2=_interleave(jet.d2),
                           x3=_interleave(jet.d3))


def s1_of_composed_curve(curve: HoloCurve, path: PlaneCurve, t: float) -> float:
    """S1 of phi o gamma by the direct real formula on exact jets."""
    return s1_direct(compose_real(curve, path, t))


def s1_via_curvature(curve: HoloCurve, path: PlaneCurve, t: float,
                     signed_curvature: bool = False) -> float:
    """S1(phi o gamma) from conformal data of phi plus the path curvature:

        Re[S phi(gamma) gamma'^2] + (3/4) e^{2 sigma} |K| + (1/2) kappa^2.

    ``signed_curvature=True`` evaluates the same expression with the signed
    Gaussian curvature K (which is <= 0) in place of |K|.  That reading is
    *wrong* -- it disagrees with the direct formula by (3/2) e^{2 sigma} |K|
    -- and is kept only so the identity checker can demonstrate the
    discrepancy instead of hiding it.
    """
    gj = path.jet(t)
    data = conformal_data(curve.eval(gj.val))
    curv_factor = data.curvature if signed_curvature else np.abs(data.curvature)
    kappa = path.curvature(t)
    return float(np.real(data.schwarzian * gj.d1 ** 2)
                 + 0.75 * data.q * curv_factor
                 + 0.5 * kappa * kappa)


# ---------------------------------------------------------------------------
# Speed/curvature form
# ---------------------------------------------------------------------------

def make_speed_curvature(curve: HoloCurve, path: PlaneCurve):
    """Callables t -> speed and t -> curvature of the composed real curve."""

    def speed(t: float) -> float:
        s = compose_real(curve, path, t)
        return float(np.linalg.norm(s.x1))

    def curvature(t: float) -> float:
        s = compose_real(curve, path, t)
        v2 = float(np.dot(s.x1, s.x1))
        perp = s.x2 - (np.dot(s.x1, s.x2) / v2) * s.x1
        return float(np.linalg.norm(perp)) / v2

    return speed, curvature


def s1_from_speed_curvature(speed: Callable[[float], float],
                       curvature: Callable[[float], float],
                       t: float) -> float:
    """S1 from speed v and curvature kappa of the curve itself:

        S1 = (log v)'' - (1/2) ((log v)')^2 + (1/2) v^2 kappa^2,

    with the log-speed derivatives from 4th-order differences at h = 1e-3.
    Exactly equivalent to the direct formula for any regular C^3 curve.
    """
    logv = lambda s: np.log(speed(s))
    l1 = fd_derivative(logv, t, 1, h=1e-3)
    l2 = fd_derivative(logv, t, 2, h=1e-3)
    v = speed(t)
    k = curvature(t)
    return float(l2 - 0.5 * l1 * l1 + 0.5 * (v * k) ** 2)


# ---------------------------------------------------------------------------
# Invariance under Moebius transformations of R^m
# ---------------------------------------------------------------------------

def s1_mobius_invariance_check(curve: HoloCurve, path: PlaneCurve,
                               mobius: Callable[[np.ndarray], np.ndarray],
                               t_values: Sequence[float]) -> float:
    """Worst |S1(M o phi o gamma) - S1(phi o gamma)| over t_values, for a
    Moebius map M of R^{2n} given as a function of one point.

    The transformed side only sees *positions* of M(phi(gamma(t))): its
    derivatives come from 4th-order finite differences at steps 1e-3 and
    2e-3 with one Richardson round, so the check is independent of the jet
    engine.  Returns the largest absolute deviation (should be ~ FD noise:
    S1 is invariant under Moebius transformations of the target).
    """
    def pos(t: float) -> np.ndarray:
        return mobius(compose_real(curve, path, t).x0)

    devs = []
    for t in t_values:
        vals = []
        for step in (1e-3, 2e-3):
            f = [pos(t + k * step) for k in range(-3, 4)]
            x1, x2, x3 = (_fd_stencil(f, order, step) for order in (1, 2, 3))
            vals.append(s1_direct(RealCurveSample(t, f[3], x1, x2, x3)))
        s1_fd = (16.0 * vals[0] - vals[1]) / 15.0
        devs.append(abs(s1_fd - s1_of_composed_curve(curve, path, t)))
    return float(np.max(devs, initial=0.0))

"""Real-variable Schwarzian S1 of curves in R^m and its invariances.

For a regular C^3 curve x(t) in R^m with derivatives x1, x2, x3, Ahlfors'
injectivity Schwarzian is

    S1 x = <x1,x3>/|x1|^2 - 3 <x1,x2>^2/|x1|^4 + (3/2) |x2|^2/|x1|^2.

Restricting a holomorphic curve phi to an arclength path gamma in the disk
turns S1(phi o gamma) into conformal data of phi plus the path curvature;
this module provides the direct formula, that curvature decomposition, the
speed/curvature form, and a finite-difference Moebius-invariance check.
Each takes t as a scalar or an array, evaluates all its points in one jet
call and returns the shape of t.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, VanishingTangentError
from .jets import HoloCurve, Jet3, _fd_stencil
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
    """Position and first three derivatives of a curve in R^m at the times
    t: each field has shape (m,) + shape(t), the coordinates on axis 0."""

    t: float | np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray


def s1_direct(sample: RealCurveSample):
    x1, x2, x3 = sample.x1, sample.x2, sample.x3
    v2 = np.sum(x1 * x1, axis=0)
    if np.any(v2 == 0.0):
        raise VanishingTangentError("S1 undefined where the tangent vanishes")
    a12 = np.sum(x1 * x2, axis=0)
    return (np.sum(x1 * x3, axis=0) / v2
            - 3.0 * a12 * a12 / (v2 * v2)
            + 1.5 * np.sum(x2 * x2, axis=0) / v2)


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

    def jet(self, t) -> Jet3:
        """The path's jet at t, a scalar or an array.  A scalar t is a
        one-point array, so it gets the bits it gets in any array of t."""
        if self.kind == "diameter":
            e = np.exp(1j * self.theta)
            return Jet3(t * e, e, 0.0 * e, 0.0 * e)
        if self.kind == "circle":
            w = self.radius * np.exp(1j * np.reshape(t, -1) / self.radius)
            return Jet3(*(f.reshape(np.shape(t))[()] for f in (
                self.center + w, 1j * w / self.radius,
                -w / self.radius ** 2, -1j * w / self.radius ** 3)))
        raise ValueError(f"unknown path kind {self.kind!r}")

    def curvature(self, t: float) -> float:
        return 0.0 if self.kind == "diameter" else 1.0 / self.radius

    def t_range(self) -> tuple[float, float]:
        """A parameter interval safely inside the domain."""
        if self.kind == "diameter":
            return (-0.95, 0.95)
        return (0.0, 2.0 * np.pi * self.radius)


def compose_real(curve: HoloCurve, path: PlaneCurve, t) -> RealCurveSample:
    """Jets of the real curve t -> phi(gamma(t)) in R^{2n}, interleaved as
    Re f_1, Im f_1, Re f_2, ... on axis 0.  A scalar t is a one-point array
    and the path jet a row (1, m), so t has the bits it has in any array of
    t: numpy rounds a complex product that broadcasts (1,) against (1, 1)
    without the fused multiply-add of its array loops."""
    gj = path.jet(np.reshape(t, (1, -1)))
    jet = curve.eval(gj.val[0]).compose(gj)
    return RealCurveSample(t, *(np.stack([v.real, v.imag], 1).reshape(
        (-1,) + np.shape(t)) for v in (jet.val, jet.d1, jet.d2, jet.d3)))


def s1_of_composed_curve(curve: HoloCurve, path: PlaneCurve, t):
    """S1 of phi o gamma by the direct real formula on exact jets."""
    return s1_direct(compose_real(curve, path, t))


def s1_via_curvature(curve: HoloCurve, path: PlaneCurve, t,
                     signed_curvature: bool = False):
    """S1(phi o gamma) from conformal data of phi plus the path curvature:

        Re[S phi(gamma) gamma'^2] + (3/4) e^{2 sigma} |K| + (1/2) kappa^2.

    ``signed_curvature=True`` evaluates the same expression with the signed
    Gaussian curvature K (which is <= 0) in place of |K|.  That reading is
    *wrong* -- it disagrees with the direct formula by (3/2) e^{2 sigma} |K|
    -- and is kept only so the identity checker can demonstrate the
    discrepancy instead of hiding it.
    """
    gj = path.jet(np.reshape(t, -1))
    data = conformal_data(curve.eval(gj.val))
    curv_factor = data.curvature if signed_curvature else np.abs(data.curvature)
    kappa = path.curvature(t)
    return (np.real(data.schwarzian * gj.d1 ** 2)
            + 0.75 * data.q * curv_factor
            + 0.5 * kappa * kappa).reshape(np.shape(t))[()]


# ---------------------------------------------------------------------------
# Speed/curvature form
# ---------------------------------------------------------------------------

def make_speed_curvature(curve: HoloCurve, path: PlaneCurve):
    """Callables t -> speed and t -> curvature of the composed real curve."""

    def speed(t):
        x1 = compose_real(curve, path, t).x1
        return np.sqrt(np.sum(x1 * x1, axis=0))

    def curvature(t):
        s = compose_real(curve, path, t)
        v2 = np.sum(s.x1 * s.x1, axis=0)
        perp = s.x2 - np.sum(s.x1 * s.x2, axis=0) / v2 * s.x1
        return np.sqrt(np.sum(perp * perp, axis=0)) / v2

    return speed, curvature


def s1_from_speed_curvature(speed: Callable, curvature: Callable, t):
    """S1 from speed v and curvature kappa of the curve itself:

        S1 = (log v)'' - (1/2) ((log v)')^2 + (1/2) v^2 kappa^2,

    with the log-speed derivatives from 4th-order differences at h = 1e-3,
    both taken from one sampling of the speed on the seven-point stencil.
    Exactly equivalent to the direct formula for any regular C^3 curve.
    `speed` and `curvature` take arrays of t.
    """
    t = np.asarray(t, dtype=float)
    v = speed(np.add.outer(1e-3 * np.arange(-3, 4), t))
    l1, l2 = (_fd_stencil(np.log(v), order, 1e-3) for order in (1, 2))
    return l2 - 0.5 * l1 * l1 + 0.5 * (v[3] * curvature(t)) ** 2


# ---------------------------------------------------------------------------
# Invariance under Moebius transformations of R^m
# ---------------------------------------------------------------------------

def s1_mobius_invariance_check(curve: HoloCurve, path: PlaneCurve,
                               mobius: Callable[[np.ndarray], np.ndarray],
                               t_values: Sequence[float]):
    """Worst |S1(M o phi o gamma) - S1(phi o gamma)| over t_values, for a
    Moebius map M of R^{2n} that maps an array of points given as its rows,
    shape (..., 2n), to their images in the same shape.

    The transformed side only sees *positions* of M(phi(gamma(t))): its
    derivatives come from 4th-order finite differences at steps 1e-3 and
    2e-3 with one Richardson round, so the check is independent of the jet
    engine.  Returns the largest absolute deviation (should be ~ FD noise:
    S1 is invariant under Moebius transformations of the target).
    """
    t = np.asarray(t_values, dtype=float)
    steps = (1e-3, 2e-3)
    k = np.multiply.outer(np.arange(-3, 4), steps)          # (7, 2)
    x0 = compose_real(curve, path, t + k[..., None]).x0     # (2n, 7, 2, T)
    f = np.moveaxis(mobius(np.moveaxis(x0, 0, -1)), -1, 1)  # (7, 2n, 2, T)
    vals = [s1_direct(RealCurveSample(t, f[3, :, i], *(
        _fd_stencil(f[:, :, i], order, step) for order in (1, 2, 3))))
        for i, step in enumerate(steps)]
    s1_fd = (16.0 * vals[0] - vals[1]) / 15.0
    return np.max(np.abs(s1_fd - s1_of_composed_curve(curve, path, t)),
                  initial=0.0)

"""Independent references and closed forms that the tests compare the
package against.  No subcommand runs them, so they live with the tests:
finite-difference derivatives and |II|^2, the classical Schwarzian, the
closed-form margins of the two examples, Hille's curve, and the Moebius and
radial-comparison lemmas.
"""
from typing import Callable

import numpy as np

from holocurve.ahlfors import _fd_stencil
from holocurve.fixtures import (example1_e2sigma, example1_schwarzian,
                                example1_wronskian_sq, example2_zeta)
from holocurve.jets import (ComposedComponent, DiskMobius,
                            ExponentialComponent, HoloCurve, Jet3,
                            StripMapComponent, eval_curve)
from holocurve.nehari import ExtremalProfile, NehariFunction, _one_minus_sq
from holocurve.schwarzian import conformal_data

# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

_FD_STEPS = {1: 1e-4, 2: 1e-4, 3: 5e-3}


def fd_derivative(f: Callable, z, order: int, h: float | None = None):
    """4th-order central difference of a holomorphic callable along the real
    direction.

    Orders 1-2 default to h = 1e-4; order 3 uses h = 5e-3 because the
    roundoff floor eps/h^3 of a third-difference at h = 1e-4 (~1e-4 relative)
    would drown the truncation term.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    if h is None:
        h = _FD_STEPS[order]
    return _fd_stencil([f(z + k * h) for k in range(-3, 4)], order, h)


def fd_jet(component, z) -> Jet3:
    """Finite-difference Jet3 of a component model (oracle path)."""
    f = (lambda w: component.jet(w).val) if hasattr(component, "jet") else component
    return Jet3(f(z), fd_derivative(f, z, 1), fd_derivative(f, z, 2),
                fd_derivative(f, z, 3))


def second_form_sq_fd(curve: HoloCurve, z: complex) -> float:
    """|II|^2 with the metric-gradient term taken by finite differences.

    sigma is sampled as (1/2) log Q on a cross stencil around z (the step
    1e-4 of fd_derivative), so this route does not consult P at all.  The
    stencil and z are evaluated in one call.  The stencil reaches 3e-4 from
    z, so z must lie 3e-4 inside the circle.
    """
    h = _FD_STEPS[1]
    x0, y0 = float(np.real(z)), float(np.imag(z))
    k = h * np.arange(-3, 4)
    jet = curve.eval(np.concatenate([x0 + k + 1j * y0, x0 + 1j * (y0 + k),
                                     [z]]))
    sigma = 0.5 * np.log(np.sum(np.abs(jet.d1) ** 2, axis=0))
    sx, sy = (_fd_stencil(sigma[i:i + 7], 1, h) for i in (0, 7))
    q = float(jet.q[-1])
    phixx_sq = float(np.sum(np.abs(jet.d2[:, -1]) ** 2))
    grad_sq = float(sx) ** 2 + float(sy) ** 2
    return (phixx_sq - q * grad_sq) / q ** 2


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def classical_schwarzian(jet: Jet3) -> np.ndarray:
    """S f = f'''/f' - (3/2)(f''/f')^2 for a single component jet."""
    ratio = jet.d2 / jet.d1
    return jet.d3 / jet.d1 - 1.5 * ratio * ratio


def example1_margin(z, c: float) -> np.ndarray:
    """Closed-form criterion margin against the constant weight pi^2/4.

    Identically zero for admissible c: with A = c^2 e^{2 pi x},
    B = e^{-2 pi x}, the identity t^2 + 4AB/(A+B)^2 = 1 makes
    |S| + (3/2) e^{-4 sigma} W^2 equal pi^2/2 exactly.
    """
    lhs = np.abs(example1_schwarzian(z, c)) \
        + 1.5 * example1_wronskian_sq(c) / example1_e2sigma(z, c) ** 2
    return np.pi ** 2 / 2.0 - lhs


def example2_equality_defect(c: float, x) -> np.ndarray:
    """|1 - zeta| + |zeta| - 1 on the real diameter (zero in exact
    arithmetic: zeta is real in (0, 3c^2] there)."""
    x = np.asarray(x, dtype=float)
    zeta = example2_zeta(c, z=x.astype(complex))
    return np.abs(1.0 - zeta) + np.abs(zeta) - 1.0


def hille_curve(eps: float = 1.0) -> HoloCurve:
    """f(z) = ((1+z)/(1-z))^{i eps} = exp(2 i eps artanh z) (Hille, Bull. AMS
    55 (1949) 552-553): S f = 2 (1 + eps^2)/(1 - z^2)^2, so at eps = 1 it
    meets the criterion of the inverse-square weight at factor 2 with
    equality on the real diameter, yet f winds the diameter around the unit
    circle infinitely often.  That weight is not disconjugate."""
    return HoloCurve((ComposedComponent(ExponentialComponent(1.0, 2j * eps),
                                        StripMapComponent()),),
                     label=f"hille(eps={eps:g})")


# ---------------------------------------------------------------------------
# Lemmas
# ---------------------------------------------------------------------------

def mobius_weight_check(p: NehariFunction, mobius: DiskMobius) -> dict:
    """min over real x of  p(x) - |T'(x)|^2 p(|T(x)|)  for a disk Moebius T.

    Nonnegative for every admissible weight (the two sides collapse to
    m(|x|) vs m(|T(x)|) over the same (1-x^2)^2 denominator, with m the
    non-increasing kernel and |T(x)| >= |x|); identically zero exactly when
    the kernel is constant, i.e. for the inverse-square weight.
    """
    xs = np.tanh(np.linspace(-14.0, 14.0, 2001))
    base = p(np.abs(xs))
    # 1 - |T(x)|^2 = (1-x^2)(1-rho^2)/(1+rho^2 x^2) exactly; direct
    # subtraction loses ~12 digits once |x| > 1 - 1e-6, so evaluate the
    # kernel difference instead of the weight difference.
    rho2 = mobius.rho ** 2
    denom = 1.0 + rho2 * xs ** 2
    img = np.sqrt((xs ** 2 + rho2) / denom)
    one_minus_sq = _one_minus_sq(xs)
    one_minus_img = one_minus_sq * (1.0 - rho2) / denom
    t_img = 0.5 * np.log((1.0 + img) ** 2 / one_minus_img)
    slack = ((p.kernel(np.arctanh(np.abs(xs))) - p.kernel(t_img))
             / one_minus_sq ** 2)
    rel = slack / base
    i = int(np.argmin(rel))
    return {"min_slack": float(np.min(slack)),
            "min_rel_slack": float(rel[i]), "argmin_x": float(xs[i]),
            "max_abs_rel_slack": float(np.max(np.abs(rel)))}


def radial_comparison_margin(curve: HoloCurve, profile: ExtremalProfile,
                             z) -> np.ndarray:
    """Pointwise slack of the metric-domination inequality

        (A + p) - |zeta^2 S phi + A - p| - (3/4) e^{2 sigma} |K|  >=  0,

    zeta = z/|z|; at z = 0 the direction-worst limit (A = p there) is used.
    Nonnegative wherever the criterion holds with a nondecreasing weight.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    data = conformal_data(eval_curve(curve, z))
    r = np.abs(z)
    a = profile.A(r)
    pv = profile.p(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        zeta_sq = np.where(r > 0, z * z / np.where(r > 0, r * r, 1.0), 1.0)
    cross = np.where(r > 0,
                     np.abs(zeta_sq * data.schwarzian + (a - pv)),
                     np.abs(data.schwarzian))
    # (3/4) e^{2 sigma} |K| = (3/4) Laplacian(sigma) = 3 sigma_zzbar
    out = (a + pv) - cross - 3.0 * data.sigma_zzbar
    return out[0] if scalar else out

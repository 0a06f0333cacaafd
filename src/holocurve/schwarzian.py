"""Conformal data of a holomorphic curve: metric factor, generalized
Schwarzian, Wronskian, Gaussian curvature of the image surface.

With phi = (f_1, ..., f_n) and

    Q = sum |f_k'|^2          (= e^{2 sigma}, conformal factor of the image)
    P = sum conj(f_k') f_k''
    R = sum conj(f_k') f_k'''

the generalized Schwarzian is S phi = R/Q - (3/2)(P/Q)^2, the pairwise
Wronskian square is W^2 = sum_{i<j} |f_i' f_j'' - f_j' f_i''|^2, and the
image curvature is K = -2 W^2 / Q^3 <= 0.  All routines are elementwise over
whatever shape of evaluation points the ``CurveJet`` carries.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .jets import _FD_STEPS, CurveJet, HoloCurve, Jet3, _fd_stencil

__all__ = [
    "ConformalData", "conformal_data", "classical_schwarzian",
    "criterion_lhs", "second_form_sq_lagrange", "second_form_sq_fd",
]


@dataclass(frozen=True)
class ConformalData:
    """Derived conformal quantities at the evaluation points of one jet."""

    z: complex | np.ndarray
    q: np.ndarray            # e^{2 sigma} = sum |f_k'|^2
    p_sum: np.ndarray        # sum conj(f') f''
    r_sum: np.ndarray        # sum conj(f') f'''
    wronskian_sq: np.ndarray
    schwarzian: np.ndarray   # generalized Schwarzian derivative

    @property
    def sigma(self) -> np.ndarray:
        return 0.5 * np.log(self.q)

    @property
    def sigma_z(self) -> np.ndarray:
        """d sigma / dz = P / (2Q); encodes the full real gradient."""
        return self.p_sum / (2.0 * self.q)

    @property
    def sigma_zz(self) -> np.ndarray:
        ratio = self.p_sum / self.q
        return 0.5 * (self.r_sum / self.q - ratio * ratio)

    @property
    def sigma_zzbar(self) -> np.ndarray:
        return 0.5 * self.wronskian_sq / self.q ** 2

    @property
    def grad_sigma_sq(self) -> np.ndarray:
        """|grad sigma|^2 = |P/Q|^2 (gradient with respect to x, y)."""
        return np.abs(self.p_sum / self.q) ** 2

    @property
    def curvature(self) -> np.ndarray:
        return -2.0 * self.wronskian_sq / self.q ** 3

    @property
    def second_form_sq(self) -> np.ndarray:
        """|II(V,V)|^2 for unit V; equals |K|/2 for these surfaces."""
        return self.wronskian_sq / self.q ** 3

    @property
    def laplacian_sigma(self) -> np.ndarray:
        return 2.0 * self.wronskian_sq / self.q ** 2


def conformal_data(jet: CurveJet) -> ConformalData:
    d1, d2, q = jet.d1, jet.d2, jet.q
    p_sum = np.sum(np.conj(d1) * d2, axis=0)
    r_sum = np.sum(np.conj(d1) * jet.d3, axis=0)
    # Pairwise form of the Lagrange identity: immune to the cancellation that
    # sum|f''|^2 * Q - |P|^2 suffers when one component dominates.
    w2 = np.zeros(np.shape(q))
    for i, j in combinations(range(len(d1)), 2):
        w2 = w2 + np.abs(d1[i] * d2[j] - d1[j] * d2[i]) ** 2
    ratio = p_sum / q
    schwarzian = r_sum / q - 1.5 * ratio * ratio
    return ConformalData(z=jet.z, q=q, p_sum=p_sum, r_sum=r_sum,
                         wronskian_sq=w2, schwarzian=schwarzian)


def classical_schwarzian(jet: Jet3) -> np.ndarray:
    """S f = f'''/f' - (3/2)(f''/f')^2 for a single component jet."""
    ratio = jet.d2 / jet.d1
    return jet.d3 / jet.d1 - 1.5 * ratio * ratio


def criterion_lhs(data: ConformalData) -> np.ndarray:
    """|S phi| + (3/2) e^{-4 sigma} W^2  =  |S phi| + (3/4) e^{2 sigma} |K|."""
    return _criterion_terms(data)[2]


def _criterion_terms(data: ConformalData) -> tuple:
    """|S phi|, (3/2) e^{-4 sigma} W^2 and their sum, criterion_lhs."""
    abs_s = np.abs(data.schwarzian)
    curv = 1.5 * data.wronskian_sq / data.q ** 2
    return abs_s, curv, abs_s + curv


# ---------------------------------------------------------------------------
# Independent routes to |II|^2 (used as cross-checks)
# ---------------------------------------------------------------------------

def second_form_sq_lagrange(jet: CurveJet) -> np.ndarray:
    """|II|^2 via e^{4 sigma} |II|^2 = |phi_xx|^2 - e^{2 sigma} |grad sigma|^2.

    Algebraically identical to the Wronskian route, but computed through the
    cancellation-prone difference; useful as a consistency probe on curves
    whose component scales are balanced.
    """
    d1, d2 = jet.d1, jet.d2
    q = np.sum(np.abs(d1) ** 2, axis=0)
    p_sum = np.sum(np.conj(d1) * d2, axis=0)
    phixx_sq = np.sum(np.abs(d2) ** 2, axis=0)
    return (phixx_sq - np.abs(p_sum) ** 2 / q) / q ** 2


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

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

from .jets import CurveJet, pointwise

__all__ = ["ConformalData", "conformal_data", "second_form_sq_lagrange"]


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
    def sigma_z(self) -> np.ndarray:
        """d sigma / dz = P / (2Q); encodes the full real gradient."""
        return pointwise(lambda p, q: p / (2.0 * q), self.p_sum, self.q)

    @property
    def sigma_zz(self) -> np.ndarray:
        def f(p, q, r):
            ratio = p / q
            return 0.5 * (r / q - ratio * ratio)
        return pointwise(f, self.p_sum, self.q, self.r_sum)

    @property
    def sigma_zzbar(self) -> np.ndarray:
        return pointwise(lambda w2, q: 0.5 * w2 / q ** 2,
                         self.wronskian_sq, self.q)

    @property
    def curvature(self) -> np.ndarray:
        return pointwise(lambda w2, q: -2.0 * w2 / q ** 3,
                         self.wronskian_sq, self.q)

    @property
    def second_form_sq(self) -> np.ndarray:
        """|II(V,V)|^2 for unit V; equals |K|/2 for these surfaces."""
        return pointwise(lambda w2, q: w2 / q ** 3, self.wronskian_sq,
                         self.q)


def conformal_data(jet: CurveJet) -> ConformalData:
    """The conformal data at the jet's points, computed with the point axes
    flattened by jets.pointwise and returned in the shape of the points."""
    def f(q, d1, d2, d3):
        p_sum = np.sum(np.conj(d1) * d2, axis=0)
        r_sum = np.sum(np.conj(d1) * d3, axis=0)
        # Pairwise form of the Lagrange identity: immune to the cancellation
        # that sum|f''|^2 * Q - |P|^2 suffers when one component dominates.
        w2 = np.zeros(q.shape)
        for i, j in combinations(range(len(d1)), 2):
            w2 = w2 + np.abs(d1[i] * d2[j] - d1[j] * d2[i]) ** 2
        ratio = p_sum / q
        return q, p_sum, r_sum, w2, r_sum / q - 1.5 * ratio * ratio
    return ConformalData(jet.z, *pointwise(f, jet.q, jet.d1, jet.d2, jet.d3))


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

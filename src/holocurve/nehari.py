"""Nehari weight functions, disconjugacy certification, extremal profiles.

A weight here is an even positive function p on (-1, 1) whose compactified
kernel P(t) = (1-x^2)^2 p(x), x = tanh t, is non-increasing in |t| and for
which u'' + p u = 0 is disconjugate (no solution has two zeros).  Built-in
kinds:

    constant        p = pi^2/4            (kernel (pi^2/4) sech^4 t)
    inverse_square  p = (1-x^2)^{-2}      (kernel 1)
    half_strip      p = 2 (1-x^2)^{-1}    (kernel 2 sech^2 t)

each times an optional positive factor, plus cubic-spline tabulated weights.

Disconjugacy is certified through the compactified equation
v'' + (P(t) - 1) v = 0 on |t| <= _T_MAX (v = u cosh t shares its zeros with
u), integrated in Pruefer phase form so no exponentially large magnitudes
ever appear; with _T_MAX = 120 the untested endpoint gap is ~4e-105, far
below anything float64 sampling of x could reach.

The extremal profile solves u0'' + p u0 = 0 (u0(0)=1, u0'(0)=0) and
U'' = p U together with Phi = int u0^{-2} and Psi = int U^{-2}, and derives
the radial comparison data A(r) and the weight metric curvature.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._table import write_csv
from .errors import ConfigError, NumericalError
from .jets import DiskMobius, fd_derivative

__all__ = [
    "NehariFunction", "NehariValidation", "validate_nehari",
    "disconjugacy_count", "extremality_margin",
    "ExtremalProfile", "extremal_profile",
    "mobius_weight_check", "completeness_probe", "write_profile_csv",
    "richardson_lambda",
]

# kind -> (c, m): p = factor c (1-x^2)^(m-2), kernel factor c sech^(2m) t.
_CLOSED = {"constant": (np.pi ** 2 / 4.0, 2), "inverse_square": (1.0, 0),
           "half_strip": (2.0, 1)}

# Half-width of the t window on which disconjugacy is certified.
_T_MAX = 120.0

# Zero counts stop here: a weight scaled by 1e150 has ~1e75 zeros.
_MAX_ZEROS = 64


def solve_ivp(*args, **kwargs):
    """holocurve._ode.solve_ivp, the order-8 Runge-Kutta solver, imported
    at first use."""
    from ._ode import solve_ivp
    return solve_ivp(*args, **kwargs)


def _one_minus_sq(x):
    """(1-x)(1+x): keeps full precision for x within ~1e-12 of +-1."""
    return (1.0 - x) * (1.0 + x)


@dataclass(frozen=True)
class NehariFunction:
    """An even positive weight on (-1, 1); see module docstring for kinds."""

    kind: str
    factor: float = 1.0
    table_x: np.ndarray | None = None
    table_p: np.ndarray | None = None
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _CLOSED and self.kind != "tabulated":
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not 0.0 < self.factor < np.inf:
            raise ValueError("weight factor must be positive and finite")
        if self.kind == "tabulated":
            from scipy.interpolate import CubicSpline
            x = np.asarray(self.table_x, dtype=float)
            p = np.asarray(self.table_p, dtype=float)
            if x.ndim != 1 or x.shape != p.shape or x.size < 4:
                raise ValueError("tabulated weight needs matching 1-d tables "
                                 "with at least 4 nodes")
            if x[0] != 0.0 or np.any(np.diff(x) <= 0) or x[-1] >= 1.0:
                raise ValueError("table abscissae must increase from 0 "
                                 "strictly inside [0, 1)")
            object.__setattr__(self, "table_x", x)
            object.__setattr__(self, "table_p", p)
            object.__setattr__(self, "_spline", CubicSpline(x, p))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(factor: float = 1.0) -> "NehariFunction":
        return NehariFunction("constant", factor)

    @staticmethod
    def inverse_square(factor: float = 1.0) -> "NehariFunction":
        return NehariFunction("inverse_square", factor)

    @staticmethod
    def half_strip(factor: float = 1.0) -> "NehariFunction":
        return NehariFunction("half_strip", factor)

    @staticmethod
    def tabulated(xs: Sequence[float], ps: Sequence[float],
                  factor: float = 1.0) -> "NehariFunction":
        return NehariFunction("tabulated", factor, np.asarray(xs, float),
                              np.asarray(ps, float))

    def scaled(self, k: float) -> "NehariFunction":
        return NehariFunction(self.kind, self.factor * k, self.table_x,
                              self.table_p)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        ax = np.abs(x)
        if self.kind == "tabulated":   # clamped at the table edge
            return self.factor * self._spline(np.minimum(ax, self.table_x[-1]))
        c, m = _CLOSED[self.kind]
        return self.factor * c / _one_minus_sq(ax) ** (2 - m)

    def kernel(self, t):
        """P(t) = (1-x^2)^2 p(x) at x = tanh t (closed forms where known)."""
        if self.kind == "tabulated":
            return (1.0 / np.cosh(t) ** 4) * self(np.tanh(t))
        c, m = _CLOSED[self.kind]
        return self.factor * c / np.cosh(t) ** (2 * m)

    @property
    def boundary_lambda(self) -> float:
        """lim_{|x| -> 1} (1-x^2)^2 p(x); 0 for a table, which the spline
        clamps at its last node below 1."""
        if self.kind == "tabulated":
            return 0.0
        c, m = _CLOSED[self.kind]
        return self.factor * c if m == 0 else 0.0

    @property
    def holder_exponent(self) -> float:
        """sqrt(1 - lambda), lambda clamped to [0, 1]."""
        lam = min(max(self.boundary_lambda, 0.0), 1.0)
        return float(np.sqrt(1.0 - lam))

    @property
    def mu(self) -> float:
        """Boundary growth exponent 1 + sqrt(1 - lambda)."""
        return 1.0 + self.holder_exponent

    @property
    def label(self) -> str:
        return f"{self.kind}(factor={self.factor:g})"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NehariValidation:
    positive: bool
    kernel_nonincreasing: bool
    disconjugate: bool
    zero_count: int
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.positive and self.kernel_nonincreasing
                and self.disconjugate)


def validate_nehari(p: NehariFunction) -> NehariValidation:
    """Check the defining properties of a Nehari weight on a sample grid.

    Positivity is sampled on (-1, 1); the monotonicity of the compactified
    kernel is sampled in the t variable (uniform there = heavily refined
    near |x| = 1, which is where violations hide).
    """
    msgs = []
    xs = np.tanh(np.linspace(-16.0, 16.0, 2001))
    vals = p(xs)
    positive = bool(np.all(vals > 0.0))
    if not positive:
        msgs.append("weight is not strictly positive on the sample grid")

    ts = np.linspace(0.0, 40.0, 2001)
    kv = p.kernel(ts)
    tol = 1e-10 * max(float(kv[0]), 1e-300)
    kernel_noninc = bool(np.all(np.diff(kv) <= tol))
    if not kernel_noninc:
        msgs.append("(1-x^2)^2 p(x) increases somewhere in |x|")

    count = disconjugacy_count(p) if positive else -1
    disconj = count == 0
    if positive and not disconj:
        msgs.append(f"u'' + p u = 0 oscillates ({count}"
                    f"{'+' * (count == _MAX_ZEROS)} interior zero(s))")
    return NehariValidation(positive, kernel_noninc, disconj, count,
                            tuple(msgs))


# ---------------------------------------------------------------------------
# Disconjugacy and the extremality margin
# ---------------------------------------------------------------------------

def disconjugacy_count(p: NehariFunction) -> int:
    """Number of zeros in (-_T_MAX, _T_MAX] of the solution of
    v'' + (P(t) - 1) v = 0 started as v(-_T_MAX) = 0, v'(-_T_MAX) = 1.

    Zero count == 0 certifies disconjugacy of u'' + p u = 0 on
    |x| <= tanh(_T_MAX).  The count is obtained from the Pruefer phase
    theta' = cos^2 theta + (P - 1) sin^2 theta, theta(-_T_MAX) = 0: zeros of
    v correspond to theta crossing positive multiples of pi (each crossed
    transversally, theta' = 1 there), so the count is floor(theta(_T_MAX)/pi).
    The solve stops at theta = _MAX_ZEROS pi, so counts saturate there.  It
    is skipped when Sturm comparison gives that many already: where P is
    non-increasing in |t|, P >= P(T) on [-T, T], so v has at least
    floor(2 T sqrt(P(T) - 1) / pi) zeros there.
    """
    ts = np.linspace(0.0, _T_MAX, 241)
    kv = p.kernel(ts)
    sturm = 2.0 * ts * np.sqrt(np.maximum(kv - 1.0, 0.0)) / np.pi
    saturated = np.all(np.diff(kv) <= 0.0) and np.max(sturm) >= _MAX_ZEROS
    return _MAX_ZEROS if saturated else _phase_zeros(p, _MAX_ZEROS)


def _phase_zeros(p: NehariFunction, max_zeros: int) -> int:
    """The phase solve of disconjugacy_count; it ends where theta first
    reaches max_zeros pi, and the count then reads max_zeros."""
    def rhs(t, y):
        g = float(p.kernel(t)) - 1.0
        s, c = np.sin(y[0]), np.cos(y[0])
        return [c * c + g * s * s]

    sol = solve_ivp(rhs, (-_T_MAX, _T_MAX), [0.0], rtol=1e-10, atol=1e-12,
                    event=lambda t, y: y[0] - max_zeros * np.pi, direction=1)
    if not sol.success:  # e.g. a weight so large no step resolves it
        raise NumericalError(f"phase integration failed: {sol.message}")
    return int(np.floor(sol.y[0, -1] / np.pi + 1e-9))


def extremality_margin(p: NehariFunction) -> float:
    """sup{k >= 1 : u'' + k p u = 0 is disconjugate}, by bisection to 1e-4.

    Requires p itself to be disconjugate.  The bracket [1, 4] doubles into
    [4, 8], [8, 16], ... while its upper end is still disconjugate; a margin
    above 2^20 raises NumericalError.  A margin of ~1 means p is extremal:
    any upward scaling destroys disconjugacy.  Each phase solve stops at the
    first zero: one zero already decides a bisection step.
    """
    def count(k: float) -> int:
        return _phase_zeros(p.scaled(k), 1)

    if count(1.0) != 0:
        raise ValueError("weight is not disconjugate; margin undefined")
    lo, hi = 1.0, 4.0
    while count(hi) == 0:
        if hi >= 2.0 ** 20:
            raise NumericalError(f"extremality margin exceeds {hi:.0f}")
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if count(mid) == 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Extremal profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalProfile:
    """Radial ODE data of a weight: u0, Phi, U, Psi and derived quantities.

    u0 solves u'' + p u = 0 with u0(0) = 1, u0'(0) = 0; Phi' = u0^{-2}
    (so Phi is the distortion of the associated radial metric); U solves
    U'' = p U with the same initial data and Psi' = U^{-2}.  All evaluations
    are restricted to 0 <= x <= 1 - eps.
    """

    p: NehariFunction
    eps: float
    xs: np.ndarray
    _sol: object = field(repr=False, compare=False, default=None)
    _p2_at_0: float = 0.0

    # -- raw states ---------------------------------------------------------

    def _y(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0 - self.eps + 1e-15):
            raise ValueError(
                f"profile evaluated outside [0, {1.0 - self.eps!r}]")
        return self._sol(x)

    def u0(self, x):
        return self._y(x)[0]

    def u0_prime(self, x):
        return self._y(x)[1]

    def Phi(self, x):
        return self._y(x)[2]

    def PhiP(self, x):
        return 1.0 / self.u0(x) ** 2

    def U(self, x):
        return self._y(x)[3]

    def Psi(self, x):
        return self._y(x)[5]

    # -- derived ------------------------------------------------------------

    def A(self, r):
        """A(r) = (1/4)(Phi''/Phi')^2 + (1/(2r)) Phi''/Phi'.

        Near r = 0 the closed formula is 0/0-ish; a series in r^2 (exact
        through O(r^2)) takes over below r = 1e-4.
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        small = r < 1e-4
        if np.any(~small):
            rr = r[~small]
            ratio = -2.0 * self.u0_prime(rr) / self.u0(rr)  # Phi''/Phi'
            out[~small] = 0.25 * ratio ** 2 + ratio / (2.0 * rr)
        if np.any(small):
            p0 = float(self.p(0.0))
            c2 = p0 ** 2 + (self._p2_at_0 + p0 ** 2) / 3.0
            out[small] = p0 + c2 * r[small] ** 2
        return out[0] if scalar else out

    def metric_curvature(self, r):
        """Gaussian curvature of the radial metric Phi'(|z|)^2 |dz|^2."""
        return -2.0 * (self.A(r) + self.p(r)) / self.PhiP(r) ** 2

    def phi_inverse(self, s):
        """r with Phi(r) = s (vectorized), for 0 <= s <= Phi(xs[-1]).

        Phi is increasing and convex (Phi''/Phi' = -2 u0'/u0 >= 0), so
        Newton's iterates from the right end of the table interval that
        brackets s decrease monotonically onto the root; each point stops
        once its residual stops shrinking.
        """
        s = np.asarray(s, dtype=float)
        j = np.minimum(np.searchsorted(self.Phi(self.xs), s), len(self.xs) - 1)
        r = self.xs[j]
        last = np.full(np.shape(s), np.inf)
        for _ in range(100):
            y = self._y(r)
            res = y[2] - s
            moving = np.abs(res) < last
            if not np.any(moving):
                break
            r = np.where(moving, np.clip(r - res * y[0] ** 2, 0.0,
                                         self.xs[-1]), r)
            last = np.where(moving, np.abs(res), 0.0)
        return r


def extremal_profile(p: NehariFunction, eps: float = 1e-6,
                     n_samples: int = 1025) -> ExtremalProfile:
    """Integrate the profile ODEs of a weight out to x = 1 - eps.
    Raises ConfigError unless 0 < eps < 1 and n_samples >= 2."""
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"profile eps = {eps:g} must lie in (0, 1)")
    if n_samples < 2:
        raise ConfigError(f"profile samples = {n_samples} must be >= 2")

    def rhs(x, y):
        pv = float(p(x))
        u, up, _, U, Up, _ = y
        return [up, -pv * u, 1.0 / (u * u), Up, pv * U, 1.0 / (U * U)]

    x_end = 1.0 - eps
    sol = solve_ivp(rhs, (0.0, x_end), [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                    rtol=1e-12, atol=1e-14, dense_output=True,
                    event=lambda x, y: y[0], direction=-1)
    if sol.status == 1:
        raise NumericalError(
            f"u0 vanished at x = {sol.t_events[0][0]:.6g} < {x_end:.6g}: "
            "the weight is too strong for a profile on [0, 1-eps)")
    if not sol.success:
        raise NumericalError(f"profile integration failed: {sol.message}")

    # p''(0), for the small-r series of A.
    p2 = fd_derivative(lambda x: float(p(x)), 0.0, 2, h=1e-3)
    xs = np.linspace(0.0, x_end, n_samples)
    return ExtremalProfile(p=p, eps=eps, xs=xs, _sol=sol.sol, _p2_at_0=p2)


def completeness_probe(p: NehariFunction) -> dict:
    """Phi(1 - delta) for delta = 1e-4, 1e-6, 1e-8, plus a divergence verdict.

    Extremal weights have Phi(1) = +inf; the built-in extremal kinds all
    exceed the threshold 5 already at delta = 1e-6, while any non-extremal
    rescaling saturates far below it.
    """
    prof = extremal_profile(p, eps=1e-8, n_samples=17)
    values = {d: float(prof.Phi(1.0 - d)) for d in (1e-4, 1e-6, 1e-8)}
    return {"phi_values": values, "diverging": values[1e-6] > 5.0,
            "threshold": 5.0}


# ---------------------------------------------------------------------------
# Moebius compatibility of weights
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


# ---------------------------------------------------------------------------
# Boundary exponent and CSV export
# ---------------------------------------------------------------------------

def richardson_lambda(p: NehariFunction) -> float:
    """Estimate lambda = lim (1-x^2)^2 p(x) by three rounds of Richardson
    extrapolation along x_j = 1 - 2^{-j}, j = 10 ... 20 (the kernel tail is
    ~ lambda + a 2^{-j} + ...).
    """
    js = np.arange(10, 21)
    x = 1.0 - 2.0 ** (-js.astype(float))
    m = _one_minus_sq(x) ** 2 * p(x)
    for level in range(1, 4):
        fac = 2.0 ** level
        m = (fac * m[1:] - m[:-1]) / (fac - 1.0)
    return float(np.clip(m[-1], 0.0, 1.0))


def write_profile_csv(profile: ExtremalProfile, path_or_buf) -> None:
    """Profile table: columns x,u0,Phi,PhiP,U,Psi,A,p at the sample grid."""
    xs = profile.xs
    write_csv(path_or_buf, ("x", "u0", "Phi", "PhiP", "U", "Psi", "A", "p"),
              (xs, profile.u0(xs), profile.Phi(xs), profile.PhiP(xs),
               profile.U(xs), profile.Psi(xs), profile.A(xs), profile.p(xs)))

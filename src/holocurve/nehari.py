"""Nehari weight functions, disconjugacy certification, extremal profiles.

A weight here is an even positive function p on (-1, 1) whose compactified
kernel P(t) = (1-x^2)^2 p(x), x = tanh t, is non-increasing in |t| and for
which u'' + p u = 0 is disconjugate (no solution has two zeros).  Built-in
kinds:

    constant        p = pi^2/4            (kernel (pi^2/4) sech^4 t)
    inverse_square  p = (1-x^2)^{-2}      (kernel 1)
    half_strip      p = 2 (1-x^2)^{-1}    (kernel 2 sech^2 t)

each times an optional positive factor, plus tabulated weights: monotone
cubic Hermite pieces, slope 0 at x = 0, clamped beyond the last node.

A closed kind is disconjugate iff factor <= 1.  A table is certified through
v'' + (P(t) - 1) v = 0 on |t| <= _T_MAX (v = u cosh t shares its zeros with
u), integrated in Pruefer phase form so no exponentially large magnitudes
ever appear; with _T_MAX = 120 the untested endpoint gap is ~4e-105, far
below anything float64 sampling of x could reach.

The extremal profile solves u0'' + p u0 = 0 (u0(0)=1, u0'(0)=0) and
U'' = p U together with Phi = int u0^{-2} and Psi = int U^{-2}, and derives
the radial comparison data A(r).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._table import write_csv
from .errors import ConfigError, NumericalError

__all__ = [
    "NehariFunction", "NehariValidation", "validate_nehari",
    "disconjugacy_count", "extremality_margin",
    "ExtremalProfile", "extremal_profile",
    "completeness_probe", "write_profile_csv",
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
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if not 0.0 < self.factor < np.inf:
            raise ConfigError("weight factor must be positive and finite")
        if self.kind == "tabulated":
            from ._hermite import MonotoneCubic
            x = np.asarray(self.table_x, dtype=float)
            p = np.asarray(self.table_p, dtype=float)
            if x.ndim != 1 or x.shape != p.shape or x.size < 4:
                raise ConfigError("tabulated weight needs matching 1-d "
                                  "tables with at least 4 nodes")
            if not (x[0] == 0.0 and np.all(np.diff(x) > 0) and x[-1] < 1.0):
                raise ConfigError("table abscissae must increase from 0 "
                                  "strictly inside [0, 1)")
            if not np.all(np.isfinite(p)):
                raise ConfigError("table values must be finite")
            object.__setattr__(self, "table_x", x)
            object.__setattr__(self, "table_p", p)
            object.__setattr__(self, "_spline", MonotoneCubic(x, p))

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
        if self.kind == "tabulated":
            return self.factor * self._spline(ax)
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
        """lim_{|x| -> 1} (1-x^2)^2 p(x); 0 for a table, whose interpolant
        is clamped at its last node below 1."""
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
    """Check the defining properties of a Nehari weight, each exactly: a
    closed kind is positive with a nonincreasing kernel by its formula and
    disconjugate iff factor <= 1; a table is positive iff its values are
    (its pieces stay between them), its kernel is decided piece by piece by
    MonotoneCubic.kernel_nonincreasing, and it is disconjugate iff its zero
    count is 0.  NumericalError if that count differs at rtol 1e-10 and
    1e-12."""
    msgs = []
    table = p.kind == "tabulated"
    positive = not table or bool(np.all(p.table_p > 0.0))
    if not positive:
        msgs.append("weight is not strictly positive")
    kernel_noninc = not table or p._spline.kernel_nonincreasing()
    if not kernel_noninc:
        msgs.append("(1-x^2)^2 p(x) increases somewhere in |x|")

    if not table:
        # The window can miss the first zero of a factor just above 1.
        count = 0 if _exact_margin(p) >= 1.0 else max(disconjugacy_count(p), 1)
    elif positive:   # a count that moves with the tolerance is undecided
        count, fine = (disconjugacy_count(p, rtol) for rtol in (1e-10, 1e-12))
        if count != fine:
            raise NumericalError(f"zero count of {p.label} is undecided: "
                                 f"{count} at rtol 1e-10, {fine} at 1e-12")
    else:
        count = -1
    disconj = count == 0
    if positive and not disconj:
        msgs.append(f"u'' + p u = 0 oscillates ({count}"
                    f"{'+' * (count == _MAX_ZEROS)} interior zero(s))")
    return NehariValidation(positive, kernel_noninc, disconj, count,
                            tuple(msgs))


# ---------------------------------------------------------------------------
# Disconjugacy and the extremality margin
# ---------------------------------------------------------------------------

def disconjugacy_count(p: NehariFunction, rtol: float = 1e-10) -> int:
    """Number of zeros in (-_T_MAX, _T_MAX] of the solution of
    v'' + (P(t) - 1) v = 0 started as v(-_T_MAX) = 0, v'(-_T_MAX) = 1.

    Zero count == 0 certifies disconjugacy of u'' + p u = 0 on
    |x| <= tanh(_T_MAX).  The count is obtained from the Pruefer phase
    theta' = cos^2 theta + (P - 1) sin^2 theta, theta(-_T_MAX) = 0: zeros of
    v correspond to theta crossing positive multiples of pi (each crossed
    transversally, theta' = 1 there), so the count is floor(theta(_T_MAX)/pi).
    The solve stops at the first step end past theta = _MAX_ZEROS pi, and
    the count is clamped there, so counts saturate at _MAX_ZEROS.  It
    is skipped when Sturm comparison gives that many already: where P is
    non-increasing in |t|, P >= P(T) on [-T, T], so v has at least
    floor(2 T sqrt(P(T) - 1) / pi) zeros there.
    """
    ts = np.linspace(0.0, _T_MAX, 241)
    kv = p.kernel(ts)
    sturm = 2.0 * ts * np.sqrt(np.maximum(kv - 1.0, 0.0)) / np.pi
    saturated = np.all(np.diff(kv) <= 0.0) and np.max(sturm) >= _MAX_ZEROS
    return _MAX_ZEROS if saturated else _phase_zeros(p, _MAX_ZEROS, rtol)


def _phase_zeros(p: NehariFunction, max_zeros: int,
                 rtol: float = 1e-10) -> int:
    """The phase solve of disconjugacy_count; it ends at the first step end
    past theta = max_zeros pi, and the count is clamped there."""
    def rhs(t, y):
        g = float(p.kernel(t)) - 1.0
        s, c = np.sin(y[0]), np.cos(y[0])
        return [c * c + g * s * s]

    sol = solve_ivp(rhs, (-_T_MAX, _T_MAX), [0.0], rtol=rtol, atol=1e-12,
                    stop=lambda t, y: max_zeros * np.pi - y[0])
    return min(int(np.floor(sol.y[0, -1] / np.pi + 1e-9)), max_zeros)


def _exact_margin(p: NehariFunction) -> float | None:
    """1/factor for a closed kind, whose u0 at factor 1 vanishes at +-1 (so
    Sturm comparison rules out any larger factor); None for a table."""
    return None if p.kind == "tabulated" else 1.0 / p.factor


def extremality_margin(p: NehariFunction) -> float:
    """sup{k >= 1 : u'' + k p u = 0 is disconjugate}: 1/factor for a closed
    kind, for a table the largest k its bisection to 1e-4 found
    disconjugate.  Requires p to be disconjugate.

    A table's bracket [1, 4] doubles into [4, 8], [8, 16], ... while its
    upper end is still disconjugate.  A margin above 2^20, or a 1/factor that
    overflows, raises NumericalError; a margin of ~1 means p is extremal.
    """
    def count(k: float) -> int:
        return _phase_zeros(p.scaled(k), 1)

    margin = _exact_margin(p)
    if margin is not None and margin >= 1.0:
        if margin == np.inf:
            raise NumericalError(f"margin 1/{p.factor:g} overflows")
        return margin
    if margin is not None or count(1.0) != 0:
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
    return lo


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

        Near r = 0 the closed formula is 0/0-ish; below r = 1e-4 the series
        A = p(0) + (8 p(0)^2 + p''(0)) r^2 / 6 + O(r^4) takes over.
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
            c2 = (8.0 * p0 ** 2 + self._p2_at_0) / 6.0
            out[small] = p0 + c2 * r[small] ** 2
        return out[0] if scalar else out

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

    Raises ConfigError unless 0 < eps < 1 and n_samples >= 2.  A weight too
    strong for a profile on [0, 1 - eps), one whose u0 vanishes there, makes
    the step collapse at that zero (Phi' = u0^-2 has a pole), and raises
    the solver's step-size NumericalError naming it.
    """
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
                    rtol=1e-12, atol=1e-14, dense_output=True)

    # p''(0), exact, for the small-r series of A.
    if p.kind == "tabulated":
        p2 = 2.0 * p.factor * float(p._spline.c[2, 0])
    else:
        c, m = _CLOSED[p.kind]
        p2 = 2.0 * p.factor * c * (2 - m)
    xs = np.linspace(0.0, x_end, n_samples)
    return ExtremalProfile(p=p, eps=eps, xs=xs, _sol=sol.sol, _p2_at_0=p2)


def _closed_phi(p: NehariFunction, d: float) -> float:
    """Phi(1 - d) in closed form for `constant`, `inverse_square` and, at
    factor 1, `half_strip`: tan(a x)/a, tanh(b t)/b and x/(2(1-x^2)) + t/2
    with t = artanh x, each written so that no term cancels as x -> 1."""
    x = 1.0 - d
    delta = 1.0 - x                         # exact (Sterbenz)
    t = 0.5 * np.log((1.0 + x) / delta)
    k = p.factor
    if p.kind == "constant":                # u0 = cos(a x) = sin g
        s = np.sqrt(k)
        g = np.pi / 2 * ((1.0 - k) / (1.0 + s) + s * delta)
        a = s * np.pi / 2
        return float(np.sin(a * x) / (a * np.sin(g)))
    if p.kind == "inverse_square":          # u0 = cosh(b t) / cosh t
        b = np.sqrt(1.0 - k)
        return float(np.tanh(b * t) / b) if b else float(t)
    return float(x / (2.0 * delta * (1.0 + x)) + t / 2.0)   # u0 = 1 - x^2


def _u0_at_1(p: NehariFunction, rtol: float) -> float:
    """u0(1) of a table, whose clamped interpolant keeps p bounded."""
    sol = solve_ivp(lambda x, y: [y[1], -float(p(x)) * y[0]], (0.0, 1.0),
                    [1.0, 0.0], rtol=rtol, atol=1e-14)
    return float(sol.y[0, -1])


def completeness_probe(p: NehariFunction) -> dict:
    """Phi(1 - d) for d = 1e-4, 1e-6, 1e-8, and whether Phi(1) = +inf.

    Phi(1) = +inf iff u0 vanishes at +-1, which by Sturm comparison is iff
    the extremality margin is 1.  So a closed kind diverges iff factor == 1.
    Its values come from closed forms, except for `half_strip` below factor
    1, which, like a table, takes them from a profile solve to 1 - 1e-8
    (accurate to about 1e-8 relative there).  A table diverges iff
    u0(1) = 0: it does not when u0(1), solved at rtol 1e-10 and 1e-12,
    exceeds the two values' difference at both; otherwise NumericalError
    names both.  Raises ValueError for a closed kind above factor 1.
    """
    deltas = (1e-4, 1e-6, 1e-8)
    if p.kind != "tabulated" and p.factor > 1.0:
        raise ValueError("weight is not disconjugate; Phi undefined")
    if p.kind == "tabulated" or p.kind == "half_strip" and p.factor < 1.0:
        prof = extremal_profile(p, eps=1e-8, n_samples=17)
        values = {d: float(prof.Phi(1.0 - d)) for d in deltas}
    else:
        values = {d: _closed_phi(p, d) for d in deltas}
    if p.kind != "tabulated":
        return {"phi_values": values, "diverging": p.factor == 1.0}
    coarse, fine = (_u0_at_1(p, rtol) for rtol in (1e-10, 1e-12))
    if not min(coarse, fine) > abs(coarse - fine):
        raise NumericalError(f"divergence of Phi(1) for {p.label} is "
                             f"undecided: u0(1) = {coarse!r} at rtol 1e-10, "
                             f"{fine!r} at 1e-12")
    return {"phi_values": values, "diverging": False}


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_profile_csv(profile: ExtremalProfile, path) -> None:
    """Profile table at `path`: x,u0,Phi,PhiP,U,Psi,A,p at the sample grid."""
    xs = profile.xs
    write_csv(path, ("x", "u0", "Phi", "PhiP", "U", "Psi", "A", "p"),
              (xs, profile.u0(xs), profile.Phi(xs), profile.PhiP(xs),
               profile.U(xs), profile.Psi(xs), profile.A(xs), profile.p(xs)))

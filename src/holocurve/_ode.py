"""Explicit Runge-Kutta integration, order 8, for the small ODE systems of
the nehari module: the extremal profile and the Pruefer phase.

The method is the Dormand-Prince 8(5,3) pair (tableau in _dop853) with the
step rules of Hairer's DOP853: the combined 5th/3rd-order error norm, the
step factor 0.9 err^(-1/8) clipped to [0.2, 10] and not grown right after a
rejection, Hairer's initial-step heuristic, and h = (t + h) - t on every
step.  A NaN or inf error estimate rejects the step; a step below 10 ulp of
t ends the solve unsuccessfully.  Integration runs forward only.
"""
from dataclasses import dataclass

import numpy as np

from ._dop853 import A, B, C, D, E3, E5

_EPS = np.finfo(float).eps


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


def _stages(fun, K, t, y, h, rows):
    """Fill the stage derivatives K[s], s in rows, of the step (t, y, h)."""
    for s in rows:
        K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)


class DenseSolution:
    """The order-7 interpolant of consecutive steps, each given as (t at its
    start, h, y at its start, its 7 interpolant terms).  Called with a time
    it returns y of shape (n,), with an array of m times shape (n, m); a
    step end belongs to the step it ends."""

    def __init__(self, steps):
        self.t_old, self.h, self.y_old, self.F = map(np.array, zip(*steps))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.t_old[1:], t)
        s, F = ((t - self.t_old[i]) / self.h[i])[..., None], self.F[i]
        y = F[..., 6, :] * s
        for k in range(5, -1, -1):
            y = (y + F[..., k, :]) * (s if k % 2 == 0 else 1.0 - s)
        return (y + self.y_old[i]).T


@dataclass(frozen=True)
class OdeResult:
    t: np.ndarray          # accepted step ends, preceded by the start
    y: np.ndarray          # (n, len(t))
    nfev: int
    status: int            # 0: reached the end, 1: event, -1: failed
    success: bool          # status >= 0
    message: str
    t_events: list         # [array of the event time], empty if none
    sol: DenseSolution | None


def _crossing(g, a, b, ga, gb):
    """A zero of g between a and b, where g(a) and g(b) differ in sign, by
    the Illinois form of false position, to about 4 ulp."""
    side = 0
    while ga and gb and b - a > 4 * _EPS * max(abs(a), abs(b)):
        m = (a * gb - b * ga) / (gb - ga)
        m = m if a < m < b else 0.5 * (a + b)
        if not a < m < b:
            break
        gm = g(m)
        if (gm > 0) == (gb > 0):
            b, gb, ga, side = m, gm, ga * (0.5 if side == 1 else 1.0), 1
        else:
            a, ga, gb, side = m, gm, gb * (0.5 if side == -1 else 1.0), -1
    return a if abs(ga) <= abs(gb) else b


def solve_ivp(fun, t_span, y0, *, rtol, atol, event=None, direction=1,
              dense_output=False) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] forward to t_span[1].

    With `event`, the solve stops (status 1) where event(t, y) first
    crosses 0 upward (direction +1) or downward (-1), located on the step's
    interpolant; the result then ends there.  The 3 extra stages of the
    interpolant are computed on that step only, unless `dense_output` asks
    for `sol` over the whole solve.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float)
    K = np.empty((16, y.size))
    K[12] = f0 = np.asarray(fun(t, y), dtype=float)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _rms((np.asarray(fun(t + h0, y + h0 * f0), dtype=float) - f0)
              / scale) / h0
    h_abs = min(100 * h0, t_end - t, max(1e-6, h0 * 1e-3)
                if d1 <= 1e-15 and d2 <= 1e-15
                else (0.01 / max(d1, d2)) ** 0.125)
    nfev, ts, ys, steps, status, t_events = 2, [t], [y], [], 0, []
    g = None if event is None else event(t, y)
    while t < t_end and status == 0:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        K[0] = K[12]
        while h_abs >= min_step:  # False for a NaN step too
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            _stages(fun, K, t, y, h, range(1, 12))
            y_new = y + h * np.dot(K[:12].T, B)
            K[12] = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5, e3 = (np.linalg.norm(np.dot(K[:13].T, e) / scale) ** 2
                      for e in (E5, E3))
            err = (0.0 if e5 == 0 and e3 == 0
                   else h * e5 / np.sqrt((e5 + 0.01 * e3) * y.size))
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)  # 0.2 when err is NaN
            rejected = True
        else:
            status = -1
            break
        g_new = None if event is None else event(t_new, y_new)
        crossed = (event is not None
                   and g * direction <= 0 <= g_new * direction)
        if dense_output or crossed:
            _stages(fun, K, t, y, h, (13, 14, 15))
            nfev += 3
            dy = y_new - y
            F = np.vstack([dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]),
                           h * np.dot(D, K)])
            steps.append((t, h, y, F))
        if crossed:
            step = DenseSolution(steps[-1:])
            t_new = _crossing(lambda s: event(s, step(s)), t, t_new, g,
                              g_new)
            y_new, status, t_events = step(t_new), 1, [np.array([t_new])]
        t, y, g = t_new, y_new, g_new
        ts.append(t)
        ys.append(y)
    message = {0: "reached the end of the interval", 1: "terminal event"}.get(
        status, f"step size below 10 ulp at t = {t:.17g}")
    return OdeResult(np.array(ts), np.vstack(ys).T, nfev, status,
                     status >= 0, message, t_events,
                     DenseSolution(steps) if dense_output else None)

"""Explicit Runge-Kutta integration, order 8, for the small ODE systems of
the nehari module: the extremal profile and the Pruefer phase.

The method is the Dormand-Prince 8(5,3) pair (tableau in _dop853) with the
step rules of Hairer's DOP853: the combined 5th/3rd-order error norm, the
step factor 0.9 err^(-1/8) clipped to [0.2, 10] and not grown right after a
rejection, Hairer's initial-step heuristic, and h = (t + h) - t on every
step.  A NaN or inf error estimate rejects the step; a step below 10 ulp of
t raises NumericalError.  Integration runs forward only.
"""
from dataclasses import dataclass

import numpy as np

from ._dop853 import A, B, C, D, E3, E5
from .errors import NumericalError


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
    stopped: bool          # stop(t[-1], y[:, -1]) <= 0 ended the solve
    sol: DenseSolution | None


def solve_ivp(fun, t_span, y0, *, rtol, atol, stop=None,
              dense_output=False) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] forward to t_span[1].

    With `stop`, the solve ends at the first accepted step end where
    stop(t, y) <= 0, with `stopped` set; that step is not shortened onto the
    root.  `dense_output` asks for `sol` over the whole solve, at 3 more
    stages a step.  A step below 10 ulp of t raises NumericalError.
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
    nfev, ts, ys, steps, stopped = 2, [t], [y], [], False
    while t < t_end and not stopped:
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
            raise NumericalError(f"step size below 10 ulp at t = {float(t)!r} "
                                 f"on [{float(t_span[0])!r}, {t_end!r}]")
        if dense_output:
            _stages(fun, K, t, y, h, (13, 14, 15))
            nfev += 3
            dy = y_new - y
            steps.append((t, h, y, np.vstack([
                dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]),
                h * np.dot(D, K)])))
        stopped = stop is not None and bool(stop(t_new, y_new) <= 0)
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)
    return OdeResult(np.array(ts), np.vstack(ys).T, nfev, stopped,
                     DenseSolution(steps) if dense_output else None)

"""Monotone cubic Hermite interpolation of a tabulated Nehari weight.

nehari imports this module only when a table is built, so a run without a
table neither loads nor compiles it."""
import numpy as np


class MonotoneCubic:
    """The monotone cubic Hermite interpolant of a table (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17 (1980) 238-246): sum_k c[k, i] (t - x_i)^k on
    [x_i, x_{i+1}], and p[-1] beyond x[-1].

    Slopes: 0 at x = 0 (p is even); the Fritsch-Butland weighted harmonic
    mean of the two secants inside, 0 where they differ in sign or one is 0;
    the shape-preserving one-sided three-point rule at the last node.
    """

    def __init__(self, x, p):
        h = np.diff(x)
        m = np.diff(p) / h
        d = np.zeros_like(p)
        i = np.flatnonzero(np.sign(m[:-1]) * np.sign(m[1:]) > 0.0)
        w1, w2 = 2.0 * h[i + 1] + h[i], h[i + 1] + 2.0 * h[i]
        d[i + 1] = 1.0 / ((w1 / m[i] + w2 / m[i + 1]) / (w1 + w2))
        h0, h1, m0, m1 = h[-1], h[-2], m[-1], m[-2]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(end) != np.sign(m0):
            end = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(end) > 3.0 * abs(m0):
            end = 3.0 * m0
        d[-1] = end
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c = np.zeros((4, p.size))
        c[0], c[1:, :-1] = p, (d[:-1], (m - d[:-1]) / h - t, t / h)
        self.x, self.c = x, c

    def __call__(self, ax):
        """The value at ax >= 0."""
        i = np.searchsorted(self.x[1:], ax, side="right")
        c, t = self.c[:, i], ax - self.x[i]
        return ((c[3] * t + c[2]) * t + c[1]) * t + c[0]

    def kernel_nonincreasing(self) -> bool:
        """Whether K = (1-x^2)^2 p is nonincreasing on [0, 1): K' = (1-x^2) g
        with g = (1-x^2) p' - 4 x p, a quartic on each piece, so g <= 0 is
        checked at the piece ends and the real parts of the roots of g', up
        to 1e-12 times its largest coefficient.  Past the last node p is
        constant and K decreases."""
        poly = np.polynomial.Polynomial
        for a, h, c in zip(self.x, np.diff(self.x), self.c.T):
            # In s = x - a: 1 - x^2 = (1 - a^2) - 2 a s - s^2, 4 x = 4 a + 4 s.
            p = poly(c)
            g = poly([1.0 - a * a, -2.0 * a, -1.0]) * p.deriv() \
                - poly([4.0 * a, 4.0]) * p
            s = np.clip(np.append(g.deriv().roots().real, (0.0, h)), 0.0, h)
            if np.any(g(s) > 1e-12 * np.max(np.abs(g.coef))):
                return False
        return True

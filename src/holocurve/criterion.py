"""Injectivity criterion scans, covering bounds, and boundary diagnostics.

The central test: a holomorphic curve phi with |phi'(0)| matching its use is
injective on the disk when

    |S phi(z)| + (3/2) e^{-4 sigma} W^2  <=  2 p(|z|)

for an admissible weight p.  `scan` evaluates margin = bound - lhs over a
polar grid and classifies the verdict; `covering_bound` turns the profile of
the weight into the guaranteed intrinsic covering radius, and
`intrinsic_min_distance` brackets the intrinsic distance to a circle by
quadrature along rays; the boundary diagnostics quantify convexity of the
weight ratio w = sqrt(Phi'(|z|)/|phi'(z)|) along rays.
"""
from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from ._table import CsvFile
from .errors import ConfigError, NumericalError
from .jets import HoloCurve, blocks, eval_curve, pointwise, scale_curve
from .nehari import ExtremalProfile, NehariFunction
from .sampling import disk_samples
from .schwarzian import ConformalData, conformal_data

__all__ = [
    "GridSpec", "CriterionReport", "scan", "write_scan_csv",
    "normalize", "second_derivative_norm", "covering_bound",
    "check_covering", "intrinsic_min_distance",
    "weight_ratio", "BoundaryDiagnostics",
    "check_boundary_rays", "boundary_diagnostics",
]


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Polar evaluation grid: the origin plus n_r rings of n_theta angles."""

    n_r: int = 200
    n_theta: int = 64
    r_max: float = 0.999
    refine: int = 0

    def __post_init__(self):
        if self.n_r < 1 or self.n_theta < 4 or self.refine < 0:
            raise ConfigError("grid needs n_r >= 1, n_theta >= 4 and "
                              "refine >= 0")
        if not 0.0 < self.r_max < 1.0:
            raise ConfigError("r_max must lie in (0, 1)")

    @property
    def n_points(self) -> int:
        return 1 + self.n_r * self.n_theta

    def blocks(self):
        """(start, z) over the grid's points in the blocks of jets.blocks:
        the origin, then ring by ring outward, each ring from angle 0.  The
        radii and angles are built once per walk, and each point is
        r[ring] * e^{i th}, so a block is the same slice of the whole grid
        bit for bit."""
        r = self.r_max * np.arange(1, self.n_r + 1) / self.n_r
        e = np.exp(1j * (2.0 * np.pi * np.arange(self.n_theta) / self.n_theta))
        for i, stop in blocks(self.n_points):
            ring, angle = np.divmod(np.arange(max(i, 1), stop) - 1,
                                    self.n_theta)
            z = r[ring] * e[angle]
            yield i, (np.concatenate(([0j], z)) if i == 0 else z)


@dataclass(frozen=True)
class CriterionReport:
    """A scan's verdict and its summary over n_points: min_margin at its
    first point argmin_z, equality_count and max_abs_margin.  table is the
    path scan(..., table=) wrote the scan table to, or None."""

    curve_label: str
    verdict: str                     # "holds" | "holds-with-equality" | "fails"
    min_margin: float
    argmin_z: complex
    tol_eq: float
    equality_count: int
    n_points: int
    max_abs_margin: float
    table: str | os.PathLike | None = None


_SCAN_HEADER = ("re_z", "im_z", "abs_schwarzian", "curv_term", "bound",
                "margin")


def _criterion_terms(data: ConformalData) -> tuple:
    """|S phi|, (3/2) e^{-4 sigma} W^2 and their sum, the criterion's left
    side |S phi| + (3/4) e^{2 sigma} |K|."""
    abs_s = np.abs(data.schwarzian)
    curv = 1.5 * data.wronskian_sq / data.q ** 2
    return abs_s, curv, abs_s + curv


def _margin_parts(curve: HoloCurve, weight: NehariFunction, z: np.ndarray,
                  first: int = 0):
    """abs_schwarzian, curv_term, bound and margin over z, one block of the
    grid.

    Raises NumericalError at the first point whose margin is not finite,
    naming it by its index in z plus `first`.
    """
    abs_s, curv, lhs = _criterion_terms(conformal_data(eval_curve(curve, z)))
    bound = 2.0 * weight(np.abs(z))
    margin = bound - lhs
    bad = ~np.isfinite(margin)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(f"criterion margin is {margin[i]} at point "
                             f"{first + i} (z = {complex(z[i])})")
    return abs_s, curv, bound, margin


class _Fold:
    """The running minimum margin and its first point, the count of margins
    within tol_eq of zero and the largest |margin|, over blocks in order."""

    def __init__(self, tol_eq: float):
        self.tol_eq = tol_eq
        self.n_points = self.equality_count = 0
        self.min_margin, self.argmin_z = np.inf, None
        self.max_abs_margin = 0.0

    def add(self, z: np.ndarray, margin: np.ndarray) -> None:
        j = int(np.argmin(margin))
        if margin[j] < self.min_margin:      # strict: np.argmin's first
            self.min_margin, self.argmin_z = margin[j], z[j]
        abs_m = np.abs(margin)
        self.equality_count += int(np.count_nonzero(abs_m <= self.tol_eq))
        self.max_abs_margin = max(self.max_abs_margin, float(np.max(abs_m)))
        self.n_points += len(z)


def scan(curve: HoloCurve, weight: NehariFunction,
         grid: GridSpec | None = None,
         tol_eq: float | None = None,
         table: str | os.PathLike | None = None) -> CriterionReport:
    """Evaluate the criterion margin over the grid and classify.

    verdict is "fails" iff the minimum margin drops below -tol_eq,
    "holds-with-equality" iff the minimum sits within tol_eq of zero, and
    "holds" otherwise.  tol_eq defaults to 1e-6 * max(1, 2 p(0)).

    The grid is evaluated in one pass over blocks of at most 4,096 points
    (GridSpec.blocks), each folded into the summary at once: the minimum
    and its first point, equality_count and max_abs_margin.  The blocks
    change no bit of any value, and the scan holds one block at a time.
    With `table`, a path, each block's rows re_z, im_z, abs_schwarzian,
    curv_term, bound and margin are written there as the block is done,
    after a header line; refinement picks follow the grid points.  The
    report names the path, and write_scan_csv publishes it.

    Raises ConfigError unless tol_eq is None or finite and >= 0, and
    NumericalError at the first grid point whose margin is not finite.  A
    failed scan removes its table.
    """
    if tol_eq is not None and not 0.0 <= tol_eq < np.inf:
        raise ConfigError(f"tol_eq = {tol_eq:g} must be finite and >= 0")
    grid = grid or GridSpec()
    if tol_eq is None:
        tol_eq = 1e-6 * max(1.0, 2.0 * float(weight(0.0)))
    fold = _Fold(tol_eq)
    # Freeing one untouched 4 MiB array makes glibc serve allocations below
    # 4 MiB from its heap and keep up to 8 MiB of it when freed (its dynamic
    # mmap and trim thresholds), so a block's ~1.6 MB of temporaries is
    # reused block after block rather than returned to the system and
    # faulted in again.  No page of it is touched.  On reproduce-example 2
    # at 1,024,001 points (2-core virtual machine, 10 alternated fresh runs)
    # it cut the minor faults from 70.4k to 7.2k and the median wall time
    # from 1.02 to 0.92 s, for 0.3 MB more peak RSS.  It stays here rather
    # than in jets.blocks: given to covering's walk as well, it only raised
    # that walk's peak RSS, by 1.1 MB.
    np.empty(1 << 19)
    with (contextlib.nullcontext() if table is None
          else CsvFile(table, _SCAN_HEADER)) as out:
        for i, z in grid.blocks():
            parts = _margin_parts(curve, weight, z, first=i)
            fold.add(z, parts[-1])
            if out:
                out.write((z.real, z.imag) + parts)

        if grid.refine > 0:
            # Zoom the polar cell around the coarse argmin, once per level.
            r0, th0 = abs(fold.argmin_z), np.angle(fold.argmin_z)
            dr = grid.r_max / grid.n_r
            dth = 2.0 * np.pi / grid.n_theta
            for _ in range(grid.refine):
                rr = np.linspace(max(r0 - dr, 0.0), min(r0 + dr, grid.r_max),
                                 9)
                tt = th0 + np.linspace(-dth, dth, 9)
                zz = (rr[:, None] * np.exp(1j * tt)[None, :]).ravel()
                a2, c2, b2, m2 = _margin_parts(curve, weight, zz)
                j = int(np.argmin(m2))
                if m2[j] < fold.min_margin:
                    fold.add(zz[j:j + 1], m2[j:j + 1])
                    if out:
                        out.write([col[j:j + 1] for col in
                                   (zz.real, zz.imag, a2, c2, b2, m2)])
                    r0, th0 = abs(zz[j]), np.angle(zz[j])
                dr /= 4.0
                dth /= 4.0

    min_margin = float(fold.min_margin)
    if min_margin < -tol_eq:
        verdict = "fails"
    elif min_margin <= tol_eq:
        verdict = "holds-with-equality"
    else:
        verdict = "holds"
    return CriterionReport(
        curve_label=curve.label, verdict=verdict, min_margin=min_margin,
        argmin_z=complex(fold.argmin_z), tol_eq=float(tol_eq),
        equality_count=fold.equality_count, n_points=fold.n_points,
        max_abs_margin=fold.max_abs_margin, table=table)


def write_scan_csv(report: CriterionReport, path) -> None:
    """Publish the scan table that scan(..., table=) wrote, by renaming it
    to `path`: re_z,im_z,abs_schwarzian,curv_term,bound,margin.  Raises
    ValueError for a report scanned without a table."""
    if report.table is None:
        raise ValueError("the scan wrote no table; pass scan(..., table=)")
    os.replace(report.table, path)


# ---------------------------------------------------------------------------
# Normalization and the covering bound
# ---------------------------------------------------------------------------

def tangent_norm_at_zero(curve: HoloCurve) -> float:
    return float(np.sqrt(eval_curve(curve, 0.0).q))


def second_derivative_norm(curve: HoloCurve) -> float:
    """|phi''(0)|; raises NumericalError if it is not finite."""
    norm = float(np.sqrt(np.sum(np.abs(eval_curve(curve, 0.0).d2) ** 2)))
    if not np.isfinite(norm):
        raise NumericalError(f"|phi''(0)| of '{curve.label}' is {norm}")
    return norm


def normalize(curve: HoloCurve) -> HoloCurve:
    """Rescale by a positive constant so that |phi'(0)| = 1.

    The criterion, curvature and Schwarzian are invariant under this, but
    the covering bound below is stated for normalized curves only.
    Raises NumericalError if |phi'(0)| is not finite.
    """
    t = tangent_norm_at_zero(curve)
    if not np.isfinite(t):
        raise NumericalError(f"|phi'(0)| of '{curve.label}' is {t}; "
                             "the curve cannot be normalized")
    if abs(t - 1.0) < 1e-12:
        return curve
    return scale_curve(curve, 1.0 / t)


def covering_bound(profile: ExtremalProfile, phi2_norm: float, r) -> np.ndarray:
    """Guaranteed covered intrinsic radius around phi(0):

        H(r) = 2 Psi(r) / (2 + |phi''(0)| Psi(r))

    for a normalized curve satisfying the criterion with a nondecreasing
    weight.  Raises ConfigError if r lies beyond the profile's end or the
    profile's weight is not NehariFunction.nondecreasing.
    """
    if np.any(np.asarray(r) > profile.xs[-1]):
        raise ConfigError(f"covering radius {r} lies beyond the profile's "
                          f"end 1 - eps = {profile.xs[-1]:g}")
    if not profile.p.nondecreasing:
        raise ConfigError("covering bound requires a nondecreasing weight")
    psi = profile.Psi(np.asarray(r, dtype=float))
    return 2.0 * psi / (2.0 + phi2_norm * psi)


# ---------------------------------------------------------------------------
# Intrinsic distance to a circle, bracketed along rays
# ---------------------------------------------------------------------------

def check_covering(r: float, resolution: int) -> None:
    """Raise ConfigError unless 0 < r < 0.99 and resolution >= 2."""
    if not 0.0 < r < 0.99:
        raise ConfigError(f"covering radius {r:g} must lie in (0, 0.99)")
    if resolution < 2:
        raise ConfigError(f"covering resolution {resolution} must be >= 2")


def dijkstra(*args, **kwargs):
    """scipy.sparse.csgraph.dijkstra from the test extra, at first use.
    Uncalled; the bench tracer needs it until ROADMAP item 1 retires it."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(*args, **kwargs)


@functools.cache
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1], built once per n."""
    return np.polynomial.legendre.leggauss(n)


def _ray_sums(curve, r, n, thetas):
    """intrinsic_min_distance's (lower, upper) by n Gauss-Legendre nodes.

    A node's minimum is over its sampled angles and the Newton polish of the
    best one on sigma_theta = 0.  Both sums add in node order, so lower <=
    upper holds in floating point too.
    """
    x, w = _gauss_legendre(n)
    t, w = 0.5 * r * (x + 1.0), 0.5 * r * w
    e, m = np.exp(1j * thetas), len(thetas)
    sums, best, arg = np.zeros(m), np.empty(n), np.empty(n, int)
    for a, b in blocks(n, m):
        f = np.sqrt(eval_curve(curve, t[a:b, None] * e).q)
        best[a:b], arg[a:b] = np.min(f, 1), np.argmin(f, 1)
        for wi, row in zip(w[a:b], f):
            sums += wi * row
    theta, half = thetas[arg], np.pi / m
    for _ in range(6):
        z = t * np.exp(1j * theta)
        data = conformal_data(eval_curve(curve, z))
        best = np.minimum(best, np.sqrt(data.q))
        s_z = data.sigma_z
        s_t = -2.0 * np.imag(z * s_z)
        s_tt = 2.0 * data.sigma_zzbar * t * t \
            - 2.0 * np.real(z * z * data.sigma_zz + z * s_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = theta + np.where(s_tt > 0.0,
                                     np.clip(-s_t / s_tt, -half, half), 0.0)
    return np.cumsum(w * best)[-1], np.min(sums)


def intrinsic_min_distance(curve: HoloCurve, r: float,
                           resolution: int = 200) -> tuple[float, float]:
    """(lower, upper), a bracket of min over |z| = r of d_phi(0, z).

    Every path from 0 to the circle crosses each circle |z| = t, so
    lower = int_0^r min_{|z|=t} e^{sigma} dt is at most the distance; each
    ray is such a path, so upper = min_theta int_0^r e^{sigma(t e^{i theta})}
    dt is at least it.  Both take 128 Gauss-Legendre nodes, less and plus
    their difference from 64 nodes, and `resolution` angles per node circle.
    The node circles are sampled in the blocks of whole circles that
    jets.blocks walks, at most max(4,096, resolution) points each, and no
    lattice-sized array is held.
    Raises ConfigError for a radius or resolution check_covering rejects.
    """
    check_covering(r, resolution)
    thetas = 2.0 * np.pi * np.arange(resolution) / resolution
    lo64, up64 = _ray_sums(curve, r, 64, thetas)
    lo, up = _ray_sums(curve, r, 128, thetas)
    return float(lo - abs(lo - lo64)), float(up + abs(up - up64))


# ---------------------------------------------------------------------------
# Boundary / convexity diagnostics
# ---------------------------------------------------------------------------

def weight_ratio(curve: HoloCurve, profile: ExtremalProfile, z) -> np.ndarray:
    """w(z) = sqrt(Phi'(|z|) / |phi'(z)|); convex in the flat metric when
    the radial comparison holds.  A point has the bits it has in an array."""
    return pointwise(lambda z: np.sqrt(profile.PhiP(np.abs(z)))
                     / eval_curve(curve, z).q ** 0.25,
                     np.asarray(z, dtype=complex))


@dataclass(frozen=True)
class BoundaryDiagnostics:
    critical_points: tuple            # ((z, |grad w|), ...): roots of
                                      # grad w, of any kind
    worst_radial_convexity: float     # min of omega'' over all rays
    convexity_argmin: tuple           # (theta, s) where the min occurs
    distortion: dict | None           # {'a','b','r0'} linear minorant or None


def _log_weight_derivatives(curve: HoloCurve, profile: ExtremalProfile, z):
    """w and the first and second derivatives of l = log w over z, exactly.

    With m = Phi''/Phi' = -2 u0'/u0, rho = m/r = 2A - m^2/2 (A carries the
    small-r series) and rho_r = r rho' = 2p + m^2 - 2A:

        l_z      = (rho zbar - 2 sigma_z) / 4
        l_zz     = (rho_r zetabar^2 / 2 - 2 sigma_zz) / 4
        l_zzbar  = (rho_r / 2 + rho - 2 sigma_zzbar) / 4,    zeta = z/|z|,

    with sigma's derivatives from ConformalData.

    Returns (w, m, u0, g, a, b) with g = l_x + i l_y = 2 conj(l_z),
    a = l_zz and b = l_zzbar; the second derivative of l along a unit
    vector v is 2b + 2 Re(a v^2); each in z's shape, by jets.pointwise.
    """
    def f(z):
        data = conformal_data(eval_curve(curve, z))
        r = np.abs(z)
        u0, u0p = profile.u0(r), profile.u0_prime(r)
        m = -2.0 * u0p / u0
        a_r = profile.A(r)
        rho = 2.0 * a_r - 0.5 * m * m
        rho_r = 2.0 * profile.p(r) + m * m - 2.0 * a_r
        zeta = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
        g = 0.5 * np.conj(rho * np.conj(z) - 2.0 * data.sigma_z)
        a = 0.25 * (0.5 * rho_r * np.conj(zeta) ** 2 - 2.0 * data.sigma_zz)
        b = 0.25 * (0.5 * rho_r + rho - 2.0 * data.sigma_zzbar)
        return 1.0 / (u0 * data.q ** 0.25), m, u0, g, a, b
    return pointwise(f, np.asarray(z, dtype=complex))


def minimize(*args, **kwargs):
    """scipy.optimize.minimize from the test extra, at first use.
    Uncalled; the bench tracer needs it until ROADMAP item 1 retires it."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def _critical_points(curve, profile, r_cap):
    # Plain Newton on grad l = 0 (H step = 2 b step + 2 conj(a step)) from 0
    # and a 24 x 48 polar sweep, radii even in s = Phi(r) to reach the boundary
    # layer.  A point leaves once its step is below 1e-13 (a root), not finite
    # or past r_cap.
    rs = profile.phi_inverse(float(profile.Phi(r_cap))
                             * (np.arange(1, 25) - 0.5) / 24)
    ths = 2.0 * np.pi * np.arange(48) / 48
    z = np.concatenate(([0j], np.outer(rs, np.exp(1j * ths)).ravel()))
    start, roots = np.arange(len(z)), []     # roots: (start, z, |grad w|)
    for _ in range(30):
        w, _, _, g, a, b = _log_weight_derivatives(curve, profile, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (np.conj(a * g) - b * g) / (2.0 * (b * b - np.abs(a) ** 2))
        done = np.abs(step) < 1e-13
        roots += zip(start[done], z[done], w[done] * np.abs(g[done]))
        z = z + step
        keep = ~done & np.isfinite(z) & (np.abs(z) <= r_cap)
        z, start = z[keep], start[keep]
        if not len(z):
            break
    found = []
    for _, zc, gw in sorted(roots):          # the origin's run first
        if gw < 1e-5 and all(abs(zc - zf) > 1e-3 for zf, _ in found):
            found.append((complex(zc), float(gw)))
    return tuple(found)


def check_boundary_rays(n_rays: int, n_s: int, r_cap: float) -> None:
    """Raise ConfigError unless n_rays >= 1, n_s >= 1 and 0 < r_cap < 1."""
    if not n_rays >= 1:
        raise ConfigError(f"boundary rays {n_rays} must be >= 1")
    if not n_s >= 1:
        raise ConfigError(f"boundary s points {n_s} must be >= 1")
    if not 0.0 < r_cap < 1.0:
        raise ConfigError(f"boundary r_cap {r_cap:g} must lie in (0, 1)")


def boundary_diagnostics(curve: HoloCurve, profile: ExtremalProfile,
                         n_rays: int = 32, n_s: int = 100,
                         r_cap: float = 0.99) -> BoundaryDiagnostics:
    """Convexity of omega_theta(s) = w(r e^{i theta}), s = Phi(r), along rays,
    plus the critical points of w and a linear distortion minorant fit on
    0.5 <= |z| < min(0.99, r_cap), r_cap clamped to the profile's end; the
    fit is infeasible (None) when that annulus is empty.

    omega'' = w (l_rr + l_r^2 - m l_r) u0^4, l = log w, is taken in closed
    form at all n_s points of each of the n_rays rays; a critical point
    carries its exact |grad w|.  Raises ConfigError for sampling that
    check_boundary_rays rejects, and NumericalError at the first
    non-finite omega'' or weight ratio on the annulus.
    """
    check_boundary_rays(n_rays, n_s, r_cap)
    r_cap = min(r_cap, profile.xs[-1])
    s_max = float(profile.Phi(r_cap))
    s = np.linspace(s_max / n_s, s_max, n_s)
    theta = 2.0 * np.pi * np.arange(n_rays) / n_rays
    e = np.repeat(np.exp(1j * theta), n_s)     # ray by ray
    w, m, u0, g, a, b = _log_weight_derivatives(
        curve, profile, np.tile(profile.phi_inverse(s), n_rays) * e)
    l_r = np.real(np.conj(e) * g)
    l_rr = 2.0 * b + 2.0 * np.real(a * e * e)
    om2 = w * (l_rr + l_r * l_r - m * l_r) * u0 ** 4
    bad = ~np.isfinite(om2)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(f"omega'' is {om2[k]} on the ray theta = "
                             f"{theta[k // n_s]:.17g} at s = {s[k % n_s]:.17g}")
    k = int(np.argmin(om2))
    i, j = divmod(k, n_s)
    worst = float(om2[k])
    argmin = (float(theta[i]), float(s[j]))

    r_out = min(0.99, r_cap)
    return BoundaryDiagnostics(
        critical_points=_critical_points(curve, profile, r_cap),
        worst_radial_convexity=worst, convexity_argmin=argmin,
        distortion=(_distortion_fit(curve, profile, r_out)
                    if r_out > 0.5 else None))


def _distortion_fit(curve, profile, r_out):
    """Linear minorant w >= a s + b on 0.5 <= |z| < r_out (heuristic fit),
    or None when its offset b is too small."""
    zs = disk_samples(400, r_min=0.5, r_max=r_out, seed=0)
    w_ann = weight_ratio(curve, profile, zs)
    if not np.all(np.isfinite(w_ann)):
        k = int(np.argmax(~np.isfinite(w_ann)))
        raise NumericalError(f"weight ratio is {w_ann[k]} at z = "
                             f"{complex(zs[k])} on the distortion annulus")
    s_ann = profile.Phi(np.abs(zs))
    a = 0.95 * float(np.min(w_ann / np.maximum(s_ann, 1e-300)))
    b = float(np.min(w_ann - a * s_ann))
    # Relative threshold: w scales as |phi'|^(-1/2), and so do a and b.
    return ({"a": a, "b": b, "r0": 0.5}
            if b >= 1e-8 * float(np.max(w_ann)) else None)

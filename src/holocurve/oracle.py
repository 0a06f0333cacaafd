"""Cross-checking oracles and the two sampled-pair searches.

`identity_suite` stress-tests the package against itself along independent
computational routes (closed Lagrange identity vs. Wronskian, direct real S1
vs. its curvature decomposition vs. the speed/curvature form, exact chain
rule vs. precomposition, finite-difference Moebius invariance in the target).
The pair searches share one image layout (`_images`) and one exact
sort-and-sweep (`_closest_pair`): `injectivity_scan` hunts for actual image
collisions of domain-separated pairs of a random cloud, and `boundary_trace`
for the nearest images of well-separated points of a ring near the circle.
All are deterministic for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import (DiskMobius, HoloCurve, blocks, eval_curve,
                   identity_curve, polynomial_curve, precompose_disk_mobius,
                   radial_pair_curve, strip_curve)
from .ahlfors import (PlaneCurve, compose_real, make_speed_curvature,
                      s1_from_speed_curvature, s1_mobius_invariance_check,
                      s1_of_composed_curve, s1_via_curvature)
from .errors import ConfigError, DomainError, NumericalError
from .sampling import disk_samples
from .schwarzian import conformal_data, second_form_sq_lagrange

__all__ = [
    "IdentityRecord", "IdentityReport", "identity_suite",
    "InjectivityReport", "injectivity_scan", "default_suite_curves",
    "check_boundary_ring", "boundary_trace",
]


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityRecord:
    name: str
    worst_dev: float
    tol: float
    passed: bool
    where: str


@dataclass(frozen=True)
class IdentityReport:
    records: tuple[IdentityRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)


def default_suite_curves() -> list[HoloCurve]:
    """A spread of shapes: flat, curved, planar, and the extremal examples."""
    from .fixtures import example1_curve, example2_curve
    return [
        identity_curve(),
        polynomial_curve([[0, 1, 0, -0.2], [0.5, 0.1j, 0.3]],
                         label="poly-pair"),
        radial_pair_curve(0.7),
        strip_curve(),
        example1_curve(),
        example2_curve(),
    ]


def _paths() -> list[PlaneCurve]:
    return [PlaneCurve.diameter(0.0), PlaneCurve.diameter(np.pi / 3),
            PlaneCurve.circle(0.45)]


def _record(name: str, tol: float, devs) -> IdentityRecord:
    """The record of the largest deviation among the (deviation, where)
    pairs in devs; the first NaN deviation counts as the largest and fails."""
    worst, where = 0.0, ""
    for dev, at in devs:
        if not (dev <= worst or np.isnan(worst)):
            worst, where = float(dev), at
    return IdentityRecord(name, worst, tol, worst <= tol, where)


def _target_mobius(dim: int, span: float):
    """The Moebius map of R^dim that the target-invariance record applies
    to points given as rows: shift by (0.3, -0.3, ...), invert about c = 2.5 span e_1, scale by 1.7,
    rotate the first two axes by 0.8.  An image within span of the origin
    stays well away from the pole c, where it raises DomainError."""
    shift = 0.3 * (-1.0) ** np.arange(dim)
    center = 2.5 * span * np.eye(dim)[0]
    rot = np.eye(dim)
    c, s = np.cos(0.8), np.sin(0.8)
    rot[:2, :2] = [[c, -s], [s, c]]

    def mobius(x: np.ndarray) -> np.ndarray:
        d = x + shift - center
        n2 = np.sum(d * d, axis=-1, keepdims=True)
        if np.any(n2 < 1e-20):
            raise DomainError("Moebius inversion hit its pole")
        return (d / n2 * 1.7) @ rot.T
    return mobius


def identity_suite(curves: list[HoloCurve] | None = None, seed: int = 0,
                   n_points: int = 40) -> IdentityReport:
    """Run all consistency identities; see the record names in the result.

    The final record deliberately exercises the *incorrect* signed-curvature
    reading of the S1 decomposition: it passes when that reading differs
    from the direct formula by exactly (3/2) e^{2 sigma} |K|, i.e. when the
    discrepancy of the signed variant is present and fully explained.
    """
    if curves is None:
        curves = default_suite_curves()
    records = []

    # (1) |II|^2: Lagrange-difference route vs. pairwise Wronskian route.
    devs = []
    for curve in curves:
        z = disk_samples(n_points, r_max=0.8, seed=seed)
        jet = eval_curve(curve, z)
        a = second_form_sq_lagrange(jet)
        b = conformal_data(jet).second_form_sq
        devs.append((np.max(np.abs(a - b) / (1.0 + np.abs(b))), curve.label))
    records.append(_record("second_form_lagrange_vs_wronskian", 1e-8, devs))

    # (2) S1: direct real formula vs. curvature decomposition.
    devs = []
    ts = np.linspace(-0.7, 0.7, 7)
    for curve in curves:
        for path in _paths():
            t = np.interp(ts, [-0.7, 0.7], path.t_range())
            a = s1_of_composed_curve(curve, path, t)
            b = s1_via_curvature(curve, path, t)
            devs += zip(np.abs(a - b) / (1.0 + np.abs(a)),
                        [f"{curve.label} / {path.kind} t={v:.3f}" for v in t])
    records.append(_record("s1_direct_vs_curvature_decomposition", 1e-8,
                           devs))

    # (3) S1: direct vs. speed/curvature (finite-difference log-speed) form.
    devs = []
    ts = np.array([-0.5, 0.0, 0.4])
    for curve in curves:
        for path in _paths()[:2]:
            speed, kappa = make_speed_curvature(curve, path)
            a = s1_of_composed_curve(curve, path, ts)
            b = s1_from_speed_curvature(speed, kappa, ts)
            devs += zip(np.abs(a - b) / (1.0 + np.abs(a)),
                        [f"{curve.label} / {path.kind} t={t}" for t in ts])
    records.append(_record("s1_direct_vs_speed_curvature_form", 1e-5, devs))

    # (4) Schwarzian chain rule under disk automorphisms (exact jets).
    devs = []
    rng_mob = [DiskMobius(0.3, 0.7), DiskMobius(-0.55, 2.1)]
    for curve in curves:
        for mob in rng_mob:
            z = disk_samples(n_points // 2, r_max=0.85, seed=seed + 1)
            s_pre = conformal_data(eval_curve(
                precompose_disk_mobius(curve, mob), z)).schwarzian
            tj = mob.jet(z)
            s_chain = conformal_data(eval_curve(curve, tj.val)).schwarzian \
                * tj.d1 ** 2
            dev = np.max(np.abs(s_pre - s_chain) / (1.0 + np.abs(s_chain)))
            devs.append((dev, f"{curve.label} / rho={mob.rho}"))
    records.append(_record("schwarzian_disk_mobius_chain_rule", 1e-8, devs))

    # (5) S1 invariance under Moebius maps of the target (FD route).
    devs = []
    t_values = np.array([-0.5, -0.1, 0.35])
    for curve in curves:
        path = PlaneCurve.diameter(0.0)
        span = np.max(np.abs(compose_real(curve, path, t_values).x0)) + 1.0
        mob = _target_mobius(2 * curve.n, span)
        devs.append((s1_mobius_invariance_check(curve, path, mob, t_values),
                     curve.label))
    records.append(_record("s1_target_mobius_invariance", 1e-4, devs))

    # (6) The signed-curvature reading: its gap from the direct formula must
    # equal (3/2) e^{2 sigma} |K| (documents the incorrect variant).
    devs = []
    t, path = np.array([0.3, 1.1, 2.0]), PlaneCurve.circle(0.45)
    for curve in curves:
        direct = s1_of_composed_curve(curve, path, t)
        literal = s1_via_curvature(curve, path, t, signed_curvature=True)
        data = conformal_data(eval_curve(curve, path.jet(t).val))
        predicted_gap = 1.5 * data.q * np.abs(data.curvature)
        devs += zip(np.abs((direct - literal) - predicted_gap)
                    / (1.0 + predicted_gap),
                    [f"{curve.label} t={v}" for v in t])
    records.append(_record("s1_signed_curvature_reading_gap", 1e-8, devs))

    return IdentityReport(tuple(records))


# ---------------------------------------------------------------------------
# Injectivity scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InjectivityReport:
    curve_label: str
    n_samples: int
    min_sep: float
    collision_threshold: float
    collision_found: bool
    min_image_distance: float
    pair: tuple[complex, complex]


def cKDTree(*args, **kwargs):
    """scipy.spatial.cKDTree from the test extra, at first use.
    Uncalled; the bench tracer needs it until ROADMAP item 1 retires it."""
    from scipy.spatial import cKDTree
    return cKDTree(*args, **kwargs)


def injectivity_scan(curve: HoloCurve, n_samples: int = 10000,
                     min_sep: float = 0.05, seed: int = 0,
                     r_min: float = 0.0, r_max: float = 1.0 - 1e-4,
                     symmetrize: bool = False) -> InjectivityReport:
    """Search for image collisions among domain-separated sample pairs.

    Only pairs with |z1 - z2| >= min_sep count (nearby domain points always
    have nearby images); a pair collides when its image distance drops below
    1e-9.  `symmetrize` replaces the second half of the
    sample with the antipodes of the first half -- the designed fixture for
    even curves like z^2, whose collisions are exactly antipodal and which a
    generic cloud would never hit.

    Also reports the exact least image distance of admissible pairs, from
    `_closest_pair`; `pair` is deliberately its lowest-index pair.  The
    images of the samples go in the blocks of jets.blocks into one (2n, N)
    array that the pair search sorts in place.

    Raises ConfigError if n_samples < 2, if min_sep is negative or not
    finite, if 0 <= r_min < r_max < 1 fails, or if no two samples are
    min_sep apart; raises NumericalError if the image extent is not finite
    or too large for squared distances.
    """
    if n_samples < 2:
        raise ConfigError(f"need at least 2 samples, got {n_samples}")
    if not 0.0 <= min_sep < np.inf:
        raise ConfigError(f"min_sep = {min_sep:g} must be finite and >= 0")
    if not 0.0 <= r_min < r_max < 1.0:
        raise ConfigError(f"sample annulus needs 0 <= r_min < r_max < 1, "
                          f"got r_min = {r_min:g}, r_max = {r_max:g}")
    z = disk_samples(n_samples, r_min=r_min, r_max=r_max, seed=seed)
    if symmetrize:
        z = np.concatenate([z[:n_samples // 2], -z[:n_samples // 2]])
    min_dist, i, j = _closest_pair(z, _images(curve, z), min_sep)
    if min_dist == np.inf:
        raise ConfigError(f"no two of the n_samples = {len(z)} samples are "
                          f"min_sep = {min_sep:g} apart")
    return InjectivityReport(
        curve_label=curve.label, n_samples=len(z), min_sep=min_sep,
        collision_threshold=1e-9, collision_found=min_dist < 1e-9,
        min_image_distance=min_dist, pair=(complex(z[i]), complex(z[j])))


def _images(curve: HoloCurve, z: np.ndarray) -> np.ndarray:
    """The image points (Re f_1, ..., Re f_n, Im f_1, ..., Im f_n) of the
    samples z as the columns of a (2n, len(z)) array, written in the blocks
    of jets.blocks; a block's jet is dropped before the next block is
    evaluated.

    Pair searches work with squared image distances up to (2 span)^2 and
    dim * span^2; raises NumericalError if those are not finite.
    """
    for i, j in blocks(len(z)):
        val = eval_curve(curve, z[i:j]).val
        if i == 0:
            X = np.empty((2 * len(val), len(z)))
        X[:len(val), i:j] = val.real
        X[len(val):, i:j] = val.imag
        del val
    span = float(np.max(np.ptp(X, axis=1))) + 1e-300
    if not np.isfinite(4.0 * len(X) * span * span):
        raise NumericalError(f"image of '{curve.label}' has extent {span:g}: "
                             "squared distances are not finite")
    return X


def _closest_pair(z: np.ndarray, X: np.ndarray,
                  min_sep: float) -> tuple[float, int, int]:
    """(d, i, j): the exact least |X[:, i] - X[:, j]| over pairs i < j with
    |z[i] - z[j]| >= min_sep, the lowest (i, j) among ties, else (inf, 0,
    0); by a sort-and-sweep on the image row of widest extent (Shamos &
    Hoey, FOCS 1975), which sorts every row of X in place on that row."""
    n = len(z)
    # A coordinate gap g is one term of np.linalg.norm's sum, so sqrt(g * g)
    # never exceeds the printed distance, even where the squares underflow.
    widest = int(np.argmax(np.ptp(X, axis=1)))
    order = np.argsort(X[widest], kind="stable")
    for x in X:
        x[:] = x[order]
    best = (np.inf, 0, 0)  # (image distance, i, j); the smallest tuple wins

    def near(x, a):
        """The rows of a whose gap in x to row a + s is at most best's."""
        g = x[a + s]
        g -= x[a]
        g *= g
        np.sqrt(g, out=g)
        return a[g <= best[0]]

    rows, s = np.arange(n - 1), 1
    while rows.size:
        # Row a meets row a + s; it retires once that gap exceeds best.
        rows = a = near(X[widest], rows)
        for k, x in enumerate(X):
            if k != widest:
                a = near(x, a)
        g = z[order[a + s]]
        g -= z[order[a]]
        a = a[np.abs(g) >= min_sep]
        del g                   # before the survivors' gaps are stacked
        if a.size:
            d = np.linalg.norm(np.stack([x[a + s] - x[a] for x in X], axis=1),
                               axis=1)
            i, j = order[a], order[a + s]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            tie = np.flatnonzero(d == d.min())
            k = tie[np.lexsort((hi[tie], lo[tie]))[0]]
            best = min(best, (float(d[k]), int(lo[k]), int(hi[k])))
        s += 1
        rows = rows[rows < n - s]

    return best


def check_boundary_ring(ring_offset: float, n_samples: int):
    """(r, theta, z): the ring z = r e^{i theta} of boundary_trace, with
    r = 1 - ring_offset and n_samples angles 2 pi k / n_samples.  Raises
    ConfigError unless 0 < ring_offset < 1, n_samples >= 2 and every ring
    point lies inside the open unit disk as rounded; below an offset of
    about 2.3e-16 some do not."""
    if not 0.0 < ring_offset < 1.0:
        raise ConfigError(f"ring offset {ring_offset:g} must lie in (0, 1)")
    if not n_samples >= 2:
        raise ConfigError(f"ring samples {n_samples} must be >= 2")
    r = 1.0 - ring_offset
    th = 2.0 * np.pi * np.arange(n_samples) / n_samples
    z = r * np.exp(1j * th)
    if not np.all(np.abs(z) < 1.0):
        raise ConfigError(f"ring offset {ring_offset:g} reaches |z| >= 1")
    return r, th, z


def boundary_trace(curve: HoloCurve, ring_offset: float = 1e-3,
                   n_samples: int = 2048) -> dict:
    """Near-collision search on the ring |z| = 1 - ring_offset.

    The minimal image distance over ring points at least pi/8 apart, from
    the pair search of `injectivity_scan`: `_closest_pair` on the ring's
    `_images`, with pair (i, i + k mod n), k <= n / 2; and the image gap of
    the ring's real-axis points r and -r (useful when a claimed boundary
    identification should be checked rather than assumed).  The ring is the
    one check_boundary_ring builds and checks.  Raises ConfigError for a
    ring check_boundary_ring rejects, and NumericalError if the image extent
    of the ring, or of r and -r, is not finite or too large for squared
    distances.
    """
    r, th, z = check_boundary_ring(ring_offset, n_samples)
    # The chord of k_min - 1/2 steps is ~pi r / n clear of k_min - 1 and k_min.
    k_min = max(1, int(np.ceil(np.pi / 8 * n_samples / (2 * np.pi))))
    min_sep = 2.0 * r * np.sin(np.pi * (k_min - 0.5) / n_samples)
    best, i1, i2 = _closest_pair(z, _images(curve, z), min_sep)
    if i2 - i1 > n_samples // 2:
        i1, i2 = i2, i1
    ends = _images(curve, np.array([r, -r]))
    gap_real = float(np.linalg.norm(ends[:, 0] - ends[:, 1]))
    return {
        "min_gap": best, "z1": complex(z[i1]), "z2": complex(z[i2]),
        "theta1": float(th[i1]), "theta2": float(th[i2]),
        "real_axis_gap": gap_real, "ring_radius": r,
    }


def _admissible_min_brute(z, X, min_sep):
    """Chunked O(N^2) reference for `injectivity_scan`'s pair search."""
    best, pair, cols = np.inf, (0, 0), np.arange(len(z))
    for i0 in range(0, len(z), 256):
        rows = cols[i0:i0 + 256, None]
        dx = np.linalg.norm(X[rows] - X, axis=2)
        dx[(np.abs(z[rows] - z) < min_sep) | (rows == cols)] = np.inf
        i, j = np.unravel_index(np.argmin(dx), dx.shape)
        if dx[i, j] < best:
            best, pair = float(dx[i, j]), (i0 + i, j)
    return best, (complex(z[pair[0]]), complex(z[pair[1]]))

"""Criterion scans, covering bounds, intrinsic distances, and the radial
comparison / boundary diagnostics.

Frozen intrinsic-distance references for the radial pair curve are
quadrature values of int_0^r sqrt(1 + 4 k^2 s^2) ds computed at 40 digits
(the minimizing path is radial because the conformal factor is radial and
increasing).
"""

import functools

import numpy as np
import pytest

import holocurve as hc
from _reference import radial_comparison_margin
from holocurve import criterion, jets
from holocurve.criterion import (BoundaryDiagnostics, GridSpec, _gauss_legendre,
                                 boundary_diagnostics, boundary_trace,
                                 covering_bound, intrinsic_min_distance,
                                 normalize, scan,
                                 second_derivative_norm, tangent_norm_at_zero,
                                 weight_ratio, write_scan_csv)
from holocurve.errors import ConfigError, NumericalError
from holocurve.jets import DiskMobius, eval_curve
from holocurve.nehari import NehariFunction, extremal_profile
from holocurve.oracle import _admissible_min_brute
from holocurve.sampling import disk_samples
from holocurve.schwarzian import conformal_data

SMALL = GridSpec(n_r=40, n_theta=16)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_grid_spec_points():
    g = GridSpec(n_r=10, n_theta=8, r_max=0.9)
    pts = np.concatenate([z for _, z in g.blocks()])
    assert pts.size == 1 + 10 * 8
    assert pts[0] == 0.0
    assert np.max(np.abs(pts)) <= 0.9 + 1e-15


def _broadcast_points(g):
    """The grid as one whole-grid broadcast: every ring times every angle."""
    r = g.r_max * np.arange(1, g.n_r + 1) / g.n_r
    th = 2.0 * np.pi * np.arange(g.n_theta) / g.n_theta
    rings = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    return np.concatenate(([0.0 + 0.0j], rings))


@pytest.mark.parametrize("n_r,n_theta", [
    (300, 100), (40, 3000), (7, 10000), (3, 8191), (1, 4), (1, 9000),
    (4000, 256), (5, 4095), (5, 4097), (1, 4095), (1, 100000)])
def test_grid_blocks_are_the_points_bit_for_bit(n_r, n_theta, monkeypatch):
    # n_theta not dividing the 4,096-point block, just below and above it,
    # and single-ring grids.  A walk evaluates its n_theta exponentials
    # once, not once per block.
    g = GridSpec(n_r=n_r, n_theta=n_theta, r_max=0.97)
    want = _broadcast_points(g)
    exp, calls = np.exp, []
    monkeypatch.setattr(np, "exp", lambda x: calls.append(x) or exp(x))
    starts, blocks = zip(*g.blocks())
    assert len(calls) == 1
    whole = np.concatenate(blocks)
    assert whole.view(float).tobytes() == want.view(float).tobytes()
    assert len(whole) == g.n_points == 1 + n_r * n_theta
    assert starts == tuple(range(0, g.n_points, jets._CHUNK))
    assert all(len(b) == jets._CHUNK for b in blocks[:-1])
    assert 1 <= len(blocks[-1]) <= jets._CHUNK


def _scan_table(path, curve, weight, grid, **kwargs):
    """scan(..., table=path) and the columns of the table it wrote, by
    name; 17 significant digits read back every value exactly."""
    rep = scan(curve, weight, grid, table=path, **kwargs)
    assert rep.table == path
    header = path.read_text().split("\n", 1)[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rep, dict(zip(header, data.T))


def _column_summary(rep, cols):
    """The summary a whole-grid reduction of the table's columns gives."""
    margin = cols["margin"]
    i = int(np.argmin(margin))
    return (float(margin[i]), complex(cols["re_z"][i], cols["im_z"][i]),
            int(np.sum(np.abs(margin) <= rep.tol_eq)),
            float(np.max(np.abs(margin))), len(margin))


def _summary(rep):
    return (rep.min_margin, rep.argmin_z, rep.equality_count,
            rep.max_abs_margin, rep.n_points, rep.verdict, rep.tol_eq)


@pytest.mark.parametrize("case", [
    "example1", "example2", "identity", "refine2", "tol0-example1",
    "tol0-example2"])
@pytest.mark.parametrize("chunk", [37, 8192])
def test_streamed_fold_equals_column_reductions(case, chunk, ex1, ex2,
                                                monkeypatch, tmp_path):
    monkeypatch.setattr(jets, "_CHUNK", chunk)
    curve, weight, grid, tol = {
        "example1": (ex1, NehariFunction.constant(), SMALL, None),
        "example2": (ex2, NehariFunction.inverse_square(),
                     GridSpec(n_r=30, n_theta=16, r_max=0.99), None),
        "identity": (hc.identity_curve(), NehariFunction.constant(), SMALL,
                     None),
        "refine2": (hc.tan_truncation_curve(), NehariFunction.constant(),
                    GridSpec(n_r=20, n_theta=12, r_max=0.7, refine=2), None),
        "tol0-example1": (ex1, NehariFunction.constant(), SMALL, 0.0),
        "tol0-example2": (ex2, NehariFunction.inverse_square(),
                          GridSpec(n_r=30, n_theta=16, r_max=0.99), 0.0),
    }[case]
    full, cols = _scan_table(tmp_path / "t.csv", curve, weight, grid,
                             tol_eq=tol)
    lean = scan(curve, weight, grid, tol_eq=tol)
    assert _summary(lean) == _summary(full)
    assert lean.table is None
    assert _summary(full)[:5] == _column_summary(full, cols)
    if case == "identity":
        # A constant margin: the minimum ties in every block, and the
        # first point holds it.
        assert np.all(cols["margin"] == cols["margin"][0])
        assert lean.argmin_z == 0j
    if case == "refine2":
        assert full.n_points > grid.n_points
        assert full.argmin_z == complex(cols["re_z"][-1], cols["im_z"][-1])


def test_first_nonfinite_margin_is_named_across_blocks(monkeypatch,
                                                       tmp_path):
    # c = 1e152 overflows the margin to -inf first at grid point 129, in
    # the ninth 16-point block; the message names its whole-grid index.
    # A table the failed scan had begun is removed.
    curve = hc.example1_curve(1e152)
    grid = GridSpec(n_r=20, n_theta=8)
    messages = []
    for chunk in (jets._CHUNK, 16):
        monkeypatch.setattr(jets, "_CHUNK", chunk)
        for table in (None, tmp_path / "scan.csv.part"):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericalError) as info:
                scan(curve, NehariFunction.constant(), grid, table=table)
            messages.append(str(info.value))
            assert not any(tmp_path.iterdir())
    assert messages == ["criterion margin is -inf at point 129 "
                        "(z = (0.8491500000000001+0j))"] * 4


def test_identity_scan_holds_with_constant_margin(tmp_path):
    rep, cols = _scan_table(tmp_path / "t.csv", hc.identity_curve(),
                            NehariFunction.constant(), SMALL)
    assert rep.verdict == "holds"
    assert abs(rep.min_margin - np.pi ** 2 / 2) < 1e-12
    assert rep.equality_count == 0
    assert np.max(np.abs(cols["margin"] - np.pi ** 2 / 2)) < 1e-12


def test_example1_scan_equality_everywhere(ex1):
    rep = scan(ex1, NehariFunction.constant(), SMALL)
    assert rep.verdict == "holds-with-equality"
    assert rep.equality_count == rep.n_points
    assert rep.max_abs_margin < 1e-10


def test_example2_scan_equality_on_real_diameter(ex2, tmp_path):
    rep, cols = _scan_table(tmp_path / "t.csv", ex2,
                            NehariFunction.inverse_square(),
                            GridSpec(n_r=30, n_theta=16, r_max=0.99))
    assert rep.verdict == "holds-with-equality"
    assert rep.min_margin > -1e-8
    margin, re_z, im_z = cols["margin"], cols["re_z"], cols["im_z"]
    on_axis = np.abs(im_z) < 1e-15
    assert np.count_nonzero(on_axis) >= 30
    assert np.max(np.abs(margin[on_axis])) < 1e-10
    off_axis = ~on_axis & (np.hypot(re_z, im_z) > 0.1)
    assert np.min(margin[off_axis]) > 1e-6   # strict inequality off-axis


def test_truncated_tan_curve_fails():
    rep = scan(hc.tan_truncation_curve(), NehariFunction.constant(),
               GridSpec(n_r=60, n_theta=24, r_max=0.7))
    assert rep.verdict == "fails"
    assert rep.min_margin < -10.0
    assert abs(rep.argmin_z) > 0.5


def test_scan_rotation_invariance(ex2):
    grid = GridSpec(n_r=25, n_theta=20, r_max=0.9)
    rep0 = scan(ex2, NehariFunction.inverse_square(), grid)
    rot = hc.precompose_disk_mobius(ex2, DiskMobius(rho=0.0, theta=1.234))
    rep1 = scan(rot, NehariFunction.inverse_square(), grid)
    assert rep0.verdict == rep1.verdict
    assert abs(rep0.min_margin - rep1.min_margin) < 1e-8


def test_scan_scaling_invariance(ex1, tmp_path):
    _, cols0 = _scan_table(tmp_path / "0.csv", ex1,
                           NehariFunction.constant(), SMALL)
    _, cols1 = _scan_table(tmp_path / "1.csv", hc.scale_curve(ex1, 7.5j),
                           NehariFunction.constant(), SMALL)
    assert np.max(np.abs(cols0["margin"] - cols1["margin"])) < 1e-9


def test_scan_refinement_zooms_toward_violation():
    curve = hc.tan_truncation_curve()
    grid0 = GridSpec(n_r=20, n_theta=12, r_max=0.7)
    rep0 = scan(curve, NehariFunction.constant(), grid0)
    rep2 = scan(curve, NehariFunction.constant(),
                GridSpec(n_r=20, n_theta=12, r_max=0.7, refine=2))
    assert rep2.n_points > rep0.n_points
    assert rep2.min_margin <= rep0.min_margin + 1e-12


def test_scan_csv_layout(ex1, tmp_path):
    tables = []
    for i in range(2):
        part, path = tmp_path / f"{i}.part", tmp_path / f"{i}.csv"
        rep = scan(ex1, NehariFunction.constant(), GridSpec(n_r=5, n_theta=4),
                   table=part)
        write_scan_csv(rep, path)
        assert not part.exists()
        tables.append(path.read_text())
    lines = tables[0].splitlines()
    assert lines[0] == "re_z,im_z,abs_schwarzian,curv_term,bound,margin"
    assert len(lines) == 1 + rep.n_points
    assert tables[0] == tables[1]
    with pytest.raises(ValueError, match="wrote no table"):
        write_scan_csv(scan(ex1, NehariFunction.constant(), SMALL),
                       tmp_path / "none.csv")


# ---------------------------------------------------------------------------
# covering bound and intrinsic distance
# ---------------------------------------------------------------------------

def test_covering_bound_reduces_to_psi_for_flat_curve(profile_inverse_square):
    # phi''(0) = 0 gives H = Psi
    for r in (0.3, 0.6, 0.9):
        h = float(covering_bound(profile_inverse_square, 0.0, r))
        assert abs(h - profile_inverse_square.Psi(r)) < 1e-14


def test_covering_bound_formula(profile_constant):
    psi = profile_constant.Psi(0.7)
    h = float(covering_bound(profile_constant, np.pi, 0.7))
    assert abs(h - 2 * psi / (2 + np.pi * psi)) < 1e-14


def test_covering_bound_rejects_decreasing_weight():
    xs = np.linspace(0.0, 0.95, 40)
    decreasing = NehariFunction.tabulated(xs, 0.6 / (1.0 + xs ** 2))
    prof = extremal_profile(decreasing)
    with pytest.raises(ValueError):
        covering_bound(prof, 0.0, 0.5)


def test_intrinsic_distance_identity_exact():
    for r in (0.3, 0.6, 0.9):
        lower, upper = intrinsic_min_distance(hc.identity_curve(), r)
        assert lower <= upper
        assert abs(lower - r) < 1e-12 and abs(upper - r) < 1e-12


def test_intrinsic_distance_radial_pair_quadrature():
    curve = hc.radial_pair_curve(0.7)
    refs = {0.3: 0.30860017943754921325, 0.6: 0.66450987297289685164,
            0.9: 1.1002368306714114741}
    for r, want in refs.items():
        for d in intrinsic_min_distance(curve, r):
            assert abs(d - want) < 1e-12, (r, d, want)


def test_intrinsic_distance_scales_linearly():
    curve = hc.radial_pair_curve(0.5)
    d1 = intrinsic_min_distance(curve, 0.5)
    d2 = intrinsic_min_distance(hc.scale_curve(curve, 3.0), 0.5)
    assert np.allclose(d2, 3.0 * np.array(d1), rtol=0.0, atol=1e-10)


def test_intrinsic_distance_validation():
    with pytest.raises(ValueError):
        intrinsic_min_distance(hc.identity_curve(), 0.995)
    with pytest.raises(ValueError):
        intrinsic_min_distance(hc.identity_curve(), 0.0)
    for r, resolution in ((float("nan"), 200), (0.5, 1), (0.5, 0)):
        with pytest.raises(ConfigError):
            intrinsic_min_distance(hc.identity_curve(), r, resolution)


def test_normalize_rejects_a_non_finite_tangent():
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            normalize(hc.example1_curve(1e155))


# The first five carry the reference test; example 2 composed with disk
# automorphisms up to |rho| = 0.97 has the widest brackets.
_COVERING_CURVES = {
    "identity": hc.identity_curve,
    "example1": lambda: normalize(hc.example1_curve(1700.0)),
    "example2-normalized": lambda: normalize(hc.example2_curve(0.05)),
    "radial_pair": lambda: hc.radial_pair_curve(0.7),
    "mobius": lambda: hc.precompose_disk_mobius(hc.radial_pair_curve(0.7),
                                                DiskMobius(0.3, 0.5)),
    "tan_truncation": lambda: hc.tan_truncation_curve(1.2, 41),
    **{f"example2-mobius({rho},{theta})": (
        lambda rho=rho, theta=theta: normalize(hc.precompose_disk_mobius(
            hc.example2_curve(0.05), DiskMobius(rho, theta))))
       for rho, theta in ((0.3, 0.0), (-0.3, 1.0), (0.5, 0.7), (0.6, 2.5),
                          (0.8, -1.2), (-0.9, 0.4), (0.95, 3.0),
                          (0.97, -2.2))},
}


@functools.cache
def _fine_bracket(name, r):
    """The bracket with 8,192 angles per node circle."""
    return intrinsic_min_distance(_COVERING_CURVES[name](), r, 8192)


@pytest.mark.parametrize("resolution", [40, 200])
@pytest.mark.parametrize("name", list(_COVERING_CURVES)[:5])
def test_intrinsic_distance_matches_a_fine_angle_reference(name, resolution):
    # Both brackets hold the distance, so they overlap; a tight one matches.
    curve = _COVERING_CURVES[name]()
    for r in (0.3, 0.9):
        lower, upper = intrinsic_min_distance(curve, r, resolution)
        ref_lower, ref_upper = _fine_bracket(name, r)
        assert max(lower, ref_lower) <= min(upper, ref_upper), r
        if upper - lower <= 1e-12:
            assert abs(lower - ref_lower) <= 1e-12 * ref_lower, r


@pytest.mark.parametrize("name", list(_COVERING_CURVES))
def test_intrinsic_distance_bracket_is_ordered(name):
    # lower <= upper in floating point, not only up to rounding: both sums
    # add their terms in one order.  Where the bracket is tight, its lower
    # end is the fine reference's to 1e-12.
    curve = _COVERING_CURVES[name]()
    for r in (0.3, 0.6, 0.9):
        lower, upper = intrinsic_min_distance(curve, r)
        assert np.isfinite(lower) and lower <= upper, (r, lower, upper)
        if upper - lower <= 1e-12:
            ref_lower = _fine_bracket(name, r)[0]
            assert abs(lower - ref_lower) <= 1e-12 * ref_lower, r


def _whole_lattice_ray_sums(curve, r, n, thetas):
    """The n x len(thetas) lattice of e^sigma held at once, as the bracket
    was first computed: the reference for the block walk."""
    x, w = _gauss_legendre(n)
    t, w = 0.5 * r * (x + 1.0), 0.5 * r * w
    z = np.outer(t, np.exp(1j * thetas)).ravel()
    f = np.concatenate([np.sqrt(eval_curve(curve, z[i:i + jets._CHUNK]).q)
                        for i in range(0, len(z), jets._CHUNK)])
    f = f.reshape(n, len(thetas))
    best, theta = np.min(f, axis=1), thetas[np.argmin(f, axis=1)]
    half = np.pi / len(thetas)
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
    sums = np.zeros(len(thetas) + 1)
    for wi, row in zip(w, np.column_stack([f, best])):
        sums += wi * row
    return sums[-1], np.min(sums[:-1])


@pytest.mark.parametrize("resolution", [2, 7, 600, 8192])
@pytest.mark.parametrize("name", ["example2", "identity", "example2-mobius"])
def test_intrinsic_distance_blocks_match_the_whole_lattice(monkeypatch, name,
                                                           resolution):
    # Blocks of whole node rows (one row of 8,192 angles exceeds
    # jets._CHUNK) give the whole lattice's bracket bit for bit.
    ex2 = hc.example2_curve(0.05)
    curve = normalize({
        "example2": ex2, "identity": hc.identity_curve(),
        "example2-mobius": hc.precompose_disk_mobius(ex2,
                                                     DiskMobius(0.5, 0.3)),
    }[name])
    radii = (0.3, 0.9) if resolution < 8192 else (0.9,)
    got = [intrinsic_min_distance(curve, r, resolution) for r in radii]
    monkeypatch.setattr(criterion, "_ray_sums", _whole_lattice_ray_sums)
    want = [intrinsic_min_distance(curve, r, resolution) for r in radii]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_example1_covering_is_tight_and_consistent(ex1, profile_constant):
    curve = normalize(ex1)
    phi2 = second_derivative_norm(curve)
    assert abs(phi2 - np.pi) < 1e-10
    for r in (0.3, 0.9):
        h = float(covering_bound(profile_constant, phi2, r))
        lower, upper = intrinsic_min_distance(curve, r)
        assert lower >= h
        assert upper <= h + 1e-3 * h   # sharp example: the bound is close


def test_normalize_idempotent(ex1):
    n1 = normalize(ex1)
    assert abs(tangent_norm_at_zero(n1) - 1.0) < 1e-12
    assert normalize(n1) is n1


# ---------------------------------------------------------------------------
# radial comparison and boundary diagnostics
# ---------------------------------------------------------------------------

def test_radial_comparison_margin_nonnegative(ex1, ex2, profile_constant,
                                              profile_inverse_square):
    zs = disk_samples(300, r_max=0.95, seed=21)
    m1 = radial_comparison_margin(ex1, profile_constant, zs)
    m2 = radial_comparison_margin(ex2, profile_inverse_square, zs)
    assert np.min(m1) > -1e-8
    assert np.min(m2) > -1e-8
    # example 2 achieves equality exactly on the real diameter
    xs = np.linspace(-0.9, 0.9, 11).astype(complex)
    assert np.max(np.abs(radial_comparison_margin(ex2, profile_inverse_square, xs))) < 1e-10


def test_radial_comparison_margin_at_origin(ex1, profile_constant):
    m = radial_comparison_margin(ex1, profile_constant, np.array([0.0 + 0j]))
    assert m.shape == (1,)
    assert abs(m[0]) < 1e-12   # equality at the center for the sharp example


def test_weight_ratio_strip_curve(profile_inverse_square):
    xs = np.linspace(-0.9, 0.9, 13).astype(complex)
    w = weight_ratio(hc.strip_curve(), profile_inverse_square, xs)
    assert np.max(np.abs(w - 1.0)) < 1e-10


def test_boundary_diagnostics_examples(ex1, ex2, profile_constant,
                                       profile_inverse_square):
    d1 = boundary_diagnostics(ex1, profile_constant)
    assert isinstance(d1, BoundaryDiagnostics)
    assert d1.worst_radial_convexity >= -1e-6
    assert d1.distortion is not None
    assert d1.distortion["b"] > 0
    # the weight-ratio surface of the sharp product curve has a genuine
    # interior critical point on the positive real axis
    assert len(d1.critical_points) >= 1
    z0, grad = d1.critical_points[0]
    assert abs(z0 - 0.5) < 1e-3
    assert grad < 1e-5

    d2 = boundary_diagnostics(ex2, profile_inverse_square)
    assert d2.worst_radial_convexity >= -1e-6
    assert d2.distortion is not None


def test_distortion_fit_is_scale_invariant(profile_constant):
    # w scales as scale^(-1/2); an absolute threshold on b used to make the
    # fit infeasible at scale 1e20.
    fits = []
    for scale in (1.0, 1e20, 1e40):
        curve = hc.scale_curve(hc.identity_curve(), scale)
        d = boundary_diagnostics(curve, profile_constant, n_rays=2, n_s=3)
        assert d.distortion is not None, scale
        fits.append((d.distortion["a"] * np.sqrt(scale),
                     d.distortion["b"] * np.sqrt(scale)))
    for a, b in fits[1:]:
        assert abs(a - fits[0][0]) <= 1e-12 * abs(fits[0][0])
        assert abs(b - fits[0][1]) <= 1e-12 * abs(fits[0][1])


_MOBIUS = DiskMobius(0.3, 0.7)     # sends 0.3i to 0


def _boundary_case(name, profile_constant, profile_inverse_square):
    ex2 = hc.example2_curve(0.05)
    return {
        "example1": (hc.example1_curve(1700.0), profile_constant),
        "example2": (ex2, profile_inverse_square),
        "radial_pair": (hc.radial_pair_curve(0.7), profile_constant),
        "example2-mobius": (hc.precompose_disk_mobius(ex2, _MOBIUS),
                            profile_inverse_square),
    }[name]


def _d1(f, z, h, v):
    """Fourth-order central difference of f at z along the direction v."""
    return (-f(z + 2 * h * v) + 8 * f(z + h * v) - 8 * f(z - h * v)
            + f(z - 2 * h * v)) / (12 * h)


def test_weight_at_a_point_alone_has_the_bits_it_has_in_an_array(
        profile_inverse_square):
    # numpy rounds products of scalars such as rho * conj(z) and q ** 0.25
    # apart from its array loops; a point alone must not.
    from holocurve.criterion import _log_weight_derivatives
    from holocurve.oracle import default_suite_curves
    prof = profile_inverse_square
    zs = disk_samples(200, r_max=0.9, seed=13)
    for curve in default_suite_curves():
        many = (weight_ratio(curve, prof, zs),
                *_log_weight_derivatives(curve, prof, zs))
        for i, z in enumerate(zs):
            for point in (complex(z), np.array(z)):
                one = (weight_ratio(curve, prof, point),
                       *_log_weight_derivatives(curve, prof, point))
                for k, (got, want) in enumerate(zip(one, many)):
                    assert np.shape(got) == () and \
                        np.asarray(got).tobytes() == want[i].tobytes(), \
                        (curve.label, k, z)


@pytest.mark.parametrize("name", ["example1", "example2", "radial_pair",
                                  "example2-mobius"])
def test_log_weight_derivatives_match_finite_differences(
        name, profile_constant, profile_inverse_square):
    from holocurve.criterion import _log_weight_derivatives

    curve, prof = _boundary_case(name, profile_constant,
                                 profile_inverse_square)
    # The origin, |z| = 1e-6, both sides of the series switch of A at 1e-4,
    # and |z| = 0.98.
    z = np.array([0.0, 1e-6 * np.exp(0.7j), 0.9e-4 * np.exp(2.1j),
                  1.1e-4 * np.exp(2.1j), 0.98 * np.exp(0.4j),
                  0.98 * np.exp(2.5j)])
    h = 1e-3 * np.minimum(1.0, 1.0 - np.abs(z))

    def ell(zz):
        return np.log(weight_ratio(curve, prof, zz))

    def ell_x(zz):
        return _d1(ell, zz, h, 1.0)

    def ell_y(zz):
        return _d1(ell, zz, h, 1j)

    w, _, _, g, a, b = _log_weight_derivatives(curve, prof, z)
    assert np.max(np.abs(w / weight_ratio(curve, prof, z) - 1.0)) < 1e-15
    g_fd = ell_x(z) + 1j * ell_y(z)
    assert np.all(np.abs(g - g_fd) <= 1e-7 * np.maximum(np.abs(g_fd), 1.0))
    hess = np.array([[2 * b + 2 * a.real, -2 * a.imag],
                     [-2 * a.imag, 2 * b - 2 * a.real]])
    hess_fd = np.array([[_d1(ell_x, z, h, 1.0), _d1(ell_x, z, h, 1j)],
                        [_d1(ell_y, z, h, 1.0), _d1(ell_y, z, h, 1j)]])
    scale = np.maximum(np.max(np.abs(hess_fd), axis=(0, 1)), 1.0)
    assert np.all(np.max(np.abs(hess - hess_fd), axis=(0, 1)) <= 1e-6 * scale)


def test_critical_points_are_exact(profile_constant, profile_inverse_square):
    from scipy.optimize import brentq

    # Example 1 on the real axis: dl/dx = (pi/2)(tan(pi x/2) - tanh(2 pi x
    # + log c)), whose root sits 4e-10 below 0.5.
    x1 = brentq(lambda x: np.tan(np.pi * x / 2) - np.tanh(2 * np.pi * x
                                                            + np.log(1700.0)),
                0.4, 0.6, xtol=1e-15)
    for name, expected in (("example1", x1), ("example2", 0.0),
                           ("example2-mobius", 0.3j)):
        curve, prof = _boundary_case(name, profile_constant,
                                     profile_inverse_square)
        found = boundary_diagnostics(curve, prof).critical_points
        assert len(found) == 1
        zc, grad = found[0]
        assert abs(zc - expected) < 1e-9, (name, zc)
        assert grad < 1e-10


@pytest.mark.parametrize("rho,theta", [(0.9, 0.7), (-0.95, 0.0), (-0.6, 2.0),
                                       (0.5, -1.0), (0.8, 3.0), (0.97, 0.3)])
def test_critical_point_in_the_boundary_layer(profile_inverse_square, rho,
                                              theta):
    # With the inverse-square weight, w of example 2 o T is w of example 2
    # composed with T, so its one critical point moves from 0 to i rho, into
    # the boundary layer for |rho| near 1.
    curve = hc.precompose_disk_mobius(hc.example2_curve(0.05),
                                      DiskMobius(rho, theta))
    found = boundary_diagnostics(curve, profile_inverse_square).critical_points
    assert len(found) == 1
    zc, grad = found[0]
    assert abs(zc - 1j * rho) < 1e-9, zc
    assert grad < 1e-10


def test_critical_points_of_every_kind(profile_half_strip):
    # tan_truncation with the half-strip weight: saddles at the origin and
    # at +-0.954i, minima at +-0.945 and 20 saddles off the axes.  A search
    # that polished at most 16 small-gradient candidates reported only 5.
    curve = hc.tan_truncation_curve(1.2)
    found = [zc for zc, grad in
             boundary_diagnostics(curve, profile_half_strip).critical_points]
    assert found[0] == 0
    assert len(found) == 25
    for expected in (0.944616704233901, 0.9544277024216654j):
        for root in (expected, -expected):
            assert min(abs(zc - root) for zc in found) < 1e-9, root


@pytest.mark.parametrize("make", [
    lambda: hc.example1_curve(1e300),
    lambda: hc.polynomial_curve([[0, 1, 1e200]]),
    lambda: hc.scale_curve(hc.example2_curve(0.05), 1e300),
], ids=["example1-c1e300", "polynomial-1e200", "example2-scale1e300"])
def test_overflowing_curve_fails_the_boundary_checks(make, profile_constant):
    curve = make()
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="omega''"):
            boundary_diagnostics(curve, profile_constant, n_rays=4, n_s=10)
        with pytest.raises(NumericalError, match="extent"):
            boundary_trace(curve, n_samples=64)


def _stencil_convexity(curve, prof, n_rays, n_s, r_cap):
    """min over the rays and s points of omega'' by a 5-point s-stencil."""
    s_max = float(prof.Phi(min(r_cap, prof.xs[-1])))
    s = np.linspace(s_max / n_s, s_max, n_s)
    ds = 1e-3 * s_max / n_s
    worst = np.inf
    for theta in 2.0 * np.pi * np.arange(n_rays) / n_rays:
        om = [weight_ratio(curve, prof,
                           prof.phi_inverse(s + k * ds) * np.exp(1j * theta))
              for k in (-2, -1, 0, 1, 2)]
        om2 = (-om[4] + 16 * om[3] - 30 * om[2] + 16 * om[1] - om[0]) \
            / (12 * ds * ds)
        worst = min(worst, float(np.min(om2)))
    return worst


@pytest.mark.parametrize("name", ["example1", "example2", "example2-mobius"])
def test_radial_convexity_matches_a_stencil(name, profile_constant,
                                            profile_inverse_square):
    curve, prof = _boundary_case(name, profile_constant,
                                 profile_inverse_square)
    d = boundary_diagnostics(curve, prof, n_rays=8, n_s=40, r_cap=0.99)
    ref = _stencil_convexity(curve, prof, 8, 40, 0.99)
    assert abs(d.worst_radial_convexity - ref) < 1e-6


def test_radial_convexity_near_the_boundary(ex2, profile_inverse_square):
    # A stencil on a non-uniform s grid read -4e5 here.
    d = boundary_diagnostics(ex2, profile_inverse_square, r_cap=0.9999)
    assert d.worst_radial_convexity >= -1e-6


def test_boundary_diagnostics_evaluates_few_points(ex2,
                                                   profile_inverse_square,
                                                   monkeypatch):
    import holocurve.criterion as criterion

    calls = []
    real = criterion.eval_curve
    monkeypatch.setattr(criterion, "eval_curve",
                        lambda *args, **kw: calls.append(1) or real(*args,
                                                                    **kw))
    boundary_diagnostics(ex2, profile_inverse_square)
    assert len(calls) <= 1000


def test_boundary_trace_finds_cut_pair(ex1):
    tr = boundary_trace(ex1)
    eps = 1.0 - tr["ring_radius"]
    predicted = 2 * np.pi * 1700.0 * eps
    assert 0.8 * predicted <= tr["min_gap"] <= 1.25 * predicted
    # the near-collision sits at the conjugate pair +-i, not at +-1
    t1 = min(abs(tr["theta1"] - np.pi / 2), abs(tr["theta1"] - 3 * np.pi / 2))
    t2 = min(abs(tr["theta2"] - np.pi / 2), abs(tr["theta2"] - 3 * np.pi / 2))
    assert max(t1, t2) < 0.05
    assert abs(tr["theta1"] - tr["theta2"]) > 1.0
    assert tr["real_axis_gap"] > 1e3 * tr["min_gap"]


def test_ring_real_axis_gap_on_an_odd_ring():
    # An odd ring has no point at -r: the gap used to be read at ring
    # point n // 2 and came out 1.9979626803429937 here.
    tr = boundary_trace(hc.identity_curve(), n_samples=257)
    assert tr["real_axis_gap"] == 1.998 == 2.0 * tr["ring_radius"]


@pytest.mark.parametrize("eps,r_cap", [(0.6, 0.99), (1e-6, 0.3)])
def test_empty_distortion_annulus_is_infeasible(ex2, eps, r_cap):
    # min(0.99, r_cap) <= 0.5 after the clamp to the profile's end leaves no
    # annulus 0.5 <= |z| < r_out: the first case evaluated the profile past
    # its end, the second fitted on the inverted annulus (0.3, 0.5].
    profile = extremal_profile(NehariFunction.inverse_square(), eps=eps,
                               n_samples=65)
    d = boundary_diagnostics(ex2, profile, n_rays=4, n_s=8, r_cap=r_cap)
    assert d.distortion is None
    assert np.isfinite(d.worst_radial_convexity)


def test_boundary_trace_deterministic(ex2):
    a = boundary_trace(ex2, n_samples=1024)
    b = boundary_trace(ex2, n_samples=1024)
    assert a == b


# (min_gap, z1, z2) as float.hex, pinned from the (N, 2n) image layout.
_RING_PINS = {
    ("identity", 2048): ("0x1.8f253b322e304p-2",
                         ("0x1.018dc882fc0b5p-1", "-0x1.b9e9685506462p-1"),
                         ("0x1.970f9f7188977p-1", "-0x1.35b62d7c2814ap-1")),
    ("identity", 8192): ("0x1.8f253b322e304p-2",
                         ("-0x1.c718a2f38a137p-1", "-0x1.d2efb4e8f10f1p-2"),
                         ("-0x1.4b1c14f5741b7p-1", "-0x1.85dab0cae4b0bp-1")),
    ("example2", 2048): ("0x1.cd6c43f67a804p-6",
                         ("0x1.8f253b322e312p-3", "0x1.f5a8ef4e0d7bbp-1"),
                         ("-0x1.8f253b322e30dp-3", "0x1.f5a8ef4e0d7bbp-1")),
    ("example2", 8192): ("0x1.cd6c43f67a804p-6",
                         ("0x1.8f253b322e312p-3", "0x1.f5a8ef4e0d7bbp-1"),
                         ("-0x1.8f253b322e30dp-3", "0x1.f5a8ef4e0d7bbp-1")),
}


@pytest.mark.parametrize("name,n", list(_RING_PINS))
def test_boundary_trace_keeps_its_pinned_bits(name, n):
    curve = {"identity": hc.identity_curve, "example2": hc.example2_curve}
    tr = boundary_trace(curve[name](), n_samples=n)
    gap, z1, z2 = _RING_PINS[name, n]
    assert tr["min_gap"].hex() == gap
    assert (tr["z1"].real.hex(), tr["z1"].imag.hex()) == z1
    assert (tr["z2"].real.hex(), tr["z2"].imag.hex()) == z2


def _shift_loop_trace(curve, ring_offset, n_samples):
    """The ring search that ran every shift k of the ring against itself;
    returns (min_gap, theta1, theta2, z, X, r)."""
    r = 1.0 - ring_offset
    th = 2.0 * np.pi * np.arange(n_samples) / n_samples
    z = r * np.exp(1j * th)
    vals = eval_curve(curve, z).val
    X = np.concatenate([np.real(vals), np.imag(vals)], axis=0).T.copy()

    k_min = max(1, int(np.ceil(np.pi / 8 * n_samples / (2 * np.pi))))
    best = np.inf
    best_pair = (0, 0)
    for k in range(k_min, n_samples // 2 + 1):
        d = np.linalg.norm(X - np.roll(X, -k, axis=0), axis=1)
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
            best_pair = (i, (i + k) % n_samples)
    i1, i2 = best_pair
    return best, float(th[i1]), float(th[i2]), z, X, r


_RING_CURVES = {
    "example1": lambda: hc.example1_curve(1700.0),
    "example2": lambda: hc.example2_curve(0.05),
    "identity": hc.identity_curve,
    "radial_pair": hc.radial_pair_curve,
    "strip": hc.strip_curve,
    # The best pair of the last one straddles theta = 0.
    "example2-mobius": lambda: hc.precompose_disk_mobius(
        hc.example2_curve(0.05), DiskMobius(0.5, 0.7)),
    "example2-rotated": lambda: hc.precompose_disk_mobius(
        hc.example2_curve(0.05), DiskMobius(0.0, np.pi / 2)),
}


@pytest.mark.parametrize("n", [64, 257, 2048])
@pytest.mark.parametrize("name", list(_RING_CURVES))
def test_boundary_trace_matches_the_shift_loop_and_brute(name, n):
    curve = _RING_CURVES[name]()
    tr = boundary_trace(curve, n_samples=n)
    gap, th1, th2, z, X, r = _shift_loop_trace(curve, 1e-3, n)
    assert (tr["min_gap"], tr["theta1"], tr["theta2"]) == (gap, th1, th2)
    k_min = max(1, int(np.ceil(n / 16)))
    brute, pair = _admissible_min_brute(
        z, X, 2.0 * r * np.sin(np.pi * (k_min - 0.5) / n))
    assert brute == tr["min_gap"]
    assert set(pair) == {tr["z1"], tr["z2"]}


@pytest.mark.parametrize("call,kwargs", [
    ("trace", {"ring_offset": 1.0}), ("trace", {"ring_offset": 1.5}),
    ("trace", {"ring_offset": 0.0}), ("trace", {"ring_offset": -0.5}),
    ("trace", {"ring_offset": np.nan}), ("trace", {"n_samples": 1}),
    ("diagnostics", {"n_rays": 0}), ("diagnostics", {"n_s": 0}),
    ("diagnostics", {"n_s": -3}), ("diagnostics", {"r_cap": 0.0}),
    ("diagnostics", {"r_cap": 1.0}), ("diagnostics", {"r_cap": np.nan}),
])
def test_boundary_sampling_outside_its_range_is_a_config_error(
        ex2, profile_inverse_square, call, kwargs):
    # Each used to return a fake collision on the radius-0 ring, trace a
    # negative radius, report inf or a NaN argmin, or divide by zero.
    with pytest.raises(ConfigError):
        if call == "trace":
            boundary_trace(ex2, **kwargs)
        else:
            boundary_diagnostics(ex2, profile_inverse_square, **kwargs)

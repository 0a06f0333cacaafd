"""Closed forms of the two sharp product curves against the generic engine,
and the asymptotic strip-constant fits."""

import numpy as np
import pytest

import holocurve as hc
from _reference import example1_margin, example2_equality_defect
from holocurve import fixtures
from holocurve.criterion import _margin_parts
from holocurve.fixtures import (_zeta_parts, example1_e2sigma, example1_min_c,
                                example1_schwarzian, example1_wronskian_sq,
                                example2_reduced_slack, example2_zeta,
                                strip_constants_check)
from holocurve.jets import StripMapComponent
from holocurve.nehari import NehariFunction
from holocurve.sampling import disk_samples
from holocurve.schwarzian import conformal_data


def test_example1_admissibility_threshold():
    assert abs(example1_min_c() - 1684.7983161788076166) < 1e-9
    with pytest.raises(ValueError):
        hc.example1_curve(1684.0)
    hc.example1_curve(example1_min_c() + 1e-6)   # boundary case constructs


def test_example1_closed_forms_match_engine(ex1):
    c = 1700.0
    zs = disk_samples(500, r_max=0.99, seed=17)
    data = conformal_data(ex1.eval(zs))
    q = example1_e2sigma(zs, c)
    assert np.max(np.abs(data.q - q) / q) < 1e-12
    s = example1_schwarzian(zs, c)
    assert np.max(np.abs(data.schwarzian - s)) < 1e-8
    w2 = example1_wronskian_sq(c)
    assert np.max(np.abs(data.wronskian_sq - w2) / w2) < 1e-11


def test_example1_margin_identically_zero():
    for c in (example1_min_c(), 1700.0, 5000.0):
        zs = disk_samples(400, r_max=0.999, seed=2)
        m = example1_margin(zs, c)
        assert np.max(np.abs(m)) < 1e-11, c


def test_example2_admissibility():
    with pytest.raises(ValueError):
        hc.example2_curve(0.0)
    with pytest.raises(ValueError):
        hc.example2_curve(-0.1)
    with pytest.raises(ValueError):
        hc.example2_curve(1.28)          # 4/pi ~ 1.2732
    hc.example2_curve(1.27)


def test_example2_zeta_center_value():
    for c in (0.01, 0.05, 0.2):
        z0 = example2_zeta(c, z=np.array([0.0 + 0j]))[0]
        assert abs(z0 - 3 * c * c) < 1e-15


def test_example2_zeta_phi_is_the_strip_jets_value(monkeypatch):
    # zeta and the strip map both take Phi from jets.artanh: the same bits,
    # off the diameters, on them, and at radius 1e-300.
    seen = []
    parts = fixtures._zeta_parts
    monkeypatch.setattr(fixtures, "_zeta_parts",
                        lambda c, Phi: seen.append(Phi) or parts(c, Phi))
    x = np.linspace(-0.9999, 0.9999, 101)
    z = np.concatenate([disk_samples(2000, r_max=0.9999, seed=5), x, 1j * x,
                        [0j, 1e-300 + 1e-300j]])
    example2_zeta(0.05, z)
    assert seen[0].tobytes() == StripMapComponent().jet(z).val.tobytes()


def test_example2_zeta_real_on_diameter_and_bounded():
    xs = np.linspace(-0.95, 0.95, 41).astype(complex)
    zeta = example2_zeta(0.05, z=xs)
    assert np.max(np.abs(zeta.imag)) < 1e-17
    assert np.all(zeta.real > 0.0)
    assert np.max(zeta.real) <= 3 * 0.05 ** 2 + 1e-15


def test_example2_reduced_slack_is_scaled_generic_margin(ex2):
    zs = disk_samples(300, r_max=0.97, seed=5)
    _, _, _, margin = _margin_parts(ex2, NehariFunction.inverse_square(), zs)
    red = example2_reduced_slack(0.05, zs)
    pred = np.abs(1.0 - zs * zs) ** 2 / 2.0 * margin
    assert np.max(np.abs(red - pred)) < 1e-12


def test_example2_equality_defect_on_real_axis():
    xs = np.linspace(-0.99, 0.99, 99)
    d = example2_equality_defect(0.05, xs)
    assert np.max(np.abs(d)) < 1e-15
    # off the axis the defect is strictly positive; the direct difference
    # cancels at small c, so use the product-form gap |zeta| - Re zeta
    phi_off = np.arctanh(np.array([0.3 + 0.4j]))
    _, _, scale, im_v = _zeta_parts(0.05, phi_off)
    gap = 2.0 * scale * im_v * im_v
    assert gap[0] > 1e-12


def test_z_squared_curve_collides_antipodally():
    curve = hc.z_squared_curve()
    z = np.array([0.5 + 0.2j, -0.5 - 0.2j])
    vals = curve.eval(z).val
    assert abs(vals[0, 0] - vals[0, 1]) < 1e-16


def test_strip_constants_near_asymptotic_values():
    # sup 24 s^2/(1+s^2)^4 = 81/32 at s^2 = 1/3; sup 12 s/(1+s^2)^3 at s^2 = 1/5
    sc = strip_constants_check(0.01)
    assert 19900 <= sc.n_used <= 20000   # near-axis points are masked out
    assert abs(sc.A - 81.0 / 32.0) < 0.01
    assert abs(sc.B - 3.10562766) < 0.01
    assert abs(sc.C - sc.A) < 0.05


def test_strip_constants_stable_in_c():
    results = [strip_constants_check(c) for c in (0.01, 0.05, 0.1)]
    for field in ("A", "B", "C"):
        vals = [getattr(r, field) for r in results]
        assert max(vals) <= 2.0 * min(vals), (field, vals)
        assert max(vals) / min(vals) < 1.05, (field, vals)

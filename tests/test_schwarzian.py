"""Conformal data of curves: Schwarzian, curvature, and the equivalent
routes to the second fundamental form.

Frozen reference numbers in this file were computed with an independent
40-digit finite-difference oracle (mpmath) straight from the component
functions, not with any code from this package.
"""

import numpy as np
import pytest

import holocurve as hc
from _reference import classical_schwarzian, second_form_sq_fd
from holocurve.jets import (ExponentialComponent, MoebiusComponent,
                            PolynomialComponent)
from holocurve.criterion import _criterion_terms
from holocurve.sampling import disk_samples
from holocurve.schwarzian import conformal_data, second_form_sq_lagrange


def _single(comp):
    return hc.HoloCurve((comp,), label="single")


def test_reduces_to_classical_schwarzian_at_n_1():
    comps = [
        PolynomialComponent([0.3, 1.0, -0.2j, 0.15]),
        ExponentialComponent(2.0, 1.1 - 0.4j),
        MoebiusComponent(1.0, 0.5, -0.2, 1.0),
    ]
    zs = disk_samples(40, r_max=0.85, seed=9)
    for comp in comps:
        jet = _single(comp).eval(zs)
        gen = conformal_data(jet).schwarzian
        cls = classical_schwarzian(jet)[0]
        dev = np.abs(gen - cls) / (1.0 + np.abs(cls))
        assert np.max(dev) < 1e-12, type(comp).__name__


def test_moebius_schwarzian_vanishes():
    jet = _single(MoebiusComponent(2.0, 1.0, 0.3, 1.0)).eval(
        disk_samples(20, r_max=0.9, seed=1))
    assert np.max(np.abs(conformal_data(jet).schwarzian)) < 1e-12


def test_example1_closed_forms(ex1):
    # phi = (c e^{pi z}, e^{-pi z}):  W^2 = 4 c^2 pi^6 independent of z,
    # S = pi^2 (1 - (3/2) t^2) with t = tanh(2 pi x + log c).
    c = 1700.0
    zs = disk_samples(60, r_max=0.97, seed=4)
    data = conformal_data(ex1.eval(zs))
    t = np.tanh(2 * np.pi * zs.real + np.log(c))
    assert np.max(np.abs(data.schwarzian - np.pi ** 2 * (1 - 1.5 * t ** 2))) < 1e-9
    w2 = data.wronskian_sq
    assert np.max(np.abs(w2 - 4 * c ** 2 * np.pi ** 6) / (4 * c ** 2 * np.pi ** 6)) < 1e-12
    q = c ** 2 * np.pi ** 2 * np.exp(2 * np.pi * zs.real) \
        + np.pi ** 2 * np.exp(-2 * np.pi * zs.real)
    assert np.max(np.abs(data.q - q) / q) < 1e-12


def test_example2_frozen_point_values(ex2):
    data = conformal_data(ex2.eval(np.array([0.3 + 0.4j])))
    assert abs(data.q[0] - 0.016695878651841571653) < 1e-14
    assert abs(data.schwarzian[0]
               - (1.4926511341590791267 + 0.70508743047766194437j)) < 1e-12
    assert abs(data.curvature[0] - (-0.99003363449752709287)) < 1e-12


def test_curvature_nonpositive_and_zero_for_planar_line():
    zs = disk_samples(50, r_max=0.95, seed=7)
    for curve in (hc.radial_pair_curve(0.7), hc.example2_curve(0.1)):
        k = conformal_data(curve.eval(zs)).curvature
        assert np.all(k <= 1e-15)
    k_id = conformal_data(hc.identity_curve().eval(zs)).curvature
    assert np.max(np.abs(k_id)) < 1e-15


def test_second_form_routes_agree(ex1, ex2):
    zs = disk_samples(40, r_max=0.8, seed=12)
    for curve in (ex2, hc.radial_pair_curve(0.7)):
        jet = curve.eval(zs)
        data = conformal_data(jet)
        direct = data.second_form_sq
        lagrange = second_form_sq_lagrange(jet)
        half_k = 0.5 * np.abs(data.curvature)
        scale = 1.0 + half_k
        assert np.max(np.abs(direct - half_k) / scale) < 1e-12
        assert np.max(np.abs(lagrange - half_k) / scale) < 1e-10
    # example 1's Lagrange route cancels catastrophically at large |Re z|,
    # so it is only compared where the subtraction keeps ~5 digits
    jet = ex1.eval(disk_samples(40, r_max=0.4, seed=12))
    data = conformal_data(jet)
    assert np.max(np.abs(second_form_sq_lagrange(jet) - 0.5 * np.abs(data.curvature))
                  / (1.0 + 0.5 * np.abs(data.curvature))) < 1e-8


def test_second_form_fd_route(ex2):
    zs = disk_samples(12, r_max=0.7, seed=2)
    data = conformal_data(ex2.eval(zs))
    for i, z in enumerate(zs):
        fd = second_form_sq_fd(ex2, complex(z))
        want = 0.5 * abs(data.curvature[i])
        assert abs(fd - want) <= 1e-6 * (1.0 + want)


def test_a_point_alone_has_the_bits_it_has_in_an_array():
    # numpy rounds complex products of scalars without the fused
    # multiply-add of its array loops; conformal data must not.
    from holocurve.oracle import default_suite_curves
    zs = disk_samples(200, r_max=0.95, seed=13)
    names = ("q", "p_sum", "r_sum", "wronskian_sq", "schwarzian",
             "sigma_z", "sigma_zz", "sigma_zzbar", "curvature",
             "second_form_sq")
    for curve in default_suite_curves():
        many = conformal_data(curve.eval(zs))
        # A leading component axis and two point axes.
        grid = conformal_data(curve.eval(zs.reshape(20, 10)))
        for name in names:
            got, want = getattr(grid, name), getattr(many, name)
            assert got.shape == (20, 10) and \
                got.tobytes() == want.tobytes(), (curve.label, name)
        for i, z in enumerate(zs):
            one = conformal_data(curve.eval(complex(z)))
            for name in names:
                got, want = getattr(one, name), getattr(many, name)[i]
                assert np.shape(got) == () and \
                    np.asarray(got).tobytes() == want.tobytes(), \
                    (curve.label, name, z)


def test_conformal_data_scaling_covariance():
    base = hc.example2_curve(0.08)
    scaled = hc.scale_curve(base, 3.0 - 4.0j)   # |s| = 5
    zs = disk_samples(20, r_max=0.9, seed=6)
    d0 = conformal_data(base.eval(zs))
    d1 = conformal_data(scaled.eval(zs))
    assert np.max(np.abs(d1.schwarzian - d0.schwarzian)) < 1e-10
    assert np.max(np.abs(d1.q - 25.0 * d0.q) / d1.q) < 1e-13
    assert np.max(np.abs(d1.curvature - d0.curvature / 25.0)
                  / (1e-30 + np.abs(d0.curvature) / 25.0)) < 1e-11
    lhs1, lhs0 = (_criterion_terms(d)[2] for d in (d1, d0))
    assert np.max(np.abs(lhs1 - lhs0)) < 1e-10


def test_sigma_derived_quantities_consistent():
    # |grad sigma|^2 = |P/Q|^2 = 4 |sigma_z|^2 and
    # Delta sigma = 4 sigma_zzbar = 2 W^2 / Q^2 = e^{2 sigma} |K|
    zs = disk_samples(25, r_max=0.9, seed=8)
    data = conformal_data(hc.example2_curve(0.05).eval(zs))
    grad_sigma_sq = np.abs(data.p_sum / data.q) ** 2
    assert np.max(np.abs(grad_sigma_sq - 4 * np.abs(data.sigma_z) ** 2)) < 1e-12
    lhs = 4 * data.sigma_zzbar
    rhs = np.exp(2 * (0.5 * np.log(data.q))) * np.abs(data.curvature)
    assert np.max(np.abs(lhs - rhs) / (1.0 + rhs)) < 1e-12


@pytest.mark.parametrize("curve", [hc.example2_curve(0.05),
                                   hc.radial_pair_curve(0.7)],
                         ids=["example2", "radial_pair"])
def test_sigma_derivatives_and_curvature_are_the_frozen_expressions(curve):
    # sigma_z = P/(2Q), sigma_zz = (R/Q - (P/Q)^2)/2, sigma_zzbar =
    # W^2/(2Q^2) and K = -2 W^2/Q^3, each written out from the sums.
    data = conformal_data(curve.eval(disk_samples(500, r_max=0.999, seed=2)))
    ratio = data.p_sum / data.q
    want = {"sigma_z": 0.5 * ratio,
            "sigma_zz": 0.5 * (data.r_sum / data.q - ratio * ratio),
            "sigma_zzbar": 0.5 * data.wronskian_sq / data.q ** 2,
            "curvature": -2.0 * data.wronskian_sq / data.q ** 3}
    for name, value in want.items():
        assert getattr(data, name).tobytes() == value.tobytes(), name

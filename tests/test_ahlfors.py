"""Real-curve S1: direct formula, curvature decomposition, log-speed form,
and invariance under range Moebius transformations.

The two frozen S1 numbers were produced by an independent mpmath oracle
(40 digits, derivatives of the interleaved real coordinates only).
"""

import numpy as np
import pytest

import holocurve as hc
from _reference import fd_derivative, second_form_sq_fd
from holocurve.ahlfors import (PlaneCurve, compose_real,
                               make_speed_curvature, s1_from_speed_curvature,
                               s1_direct, s1_mobius_invariance_check,
                               s1_of_composed_curve, s1_via_curvature)
from holocurve.errors import DomainError


def test_frozen_s1_values(ex1, ex2):
    v1 = s1_of_composed_curve(ex1, PlaneCurve.diameter(np.pi / 3), 0.2)
    assert abs(v1 - 2.4674040161716976887) < 1e-11
    v2 = s1_of_composed_curve(ex2, PlaneCurve.circle(0.45), 0.3)
    assert abs(v2 - 2.8403127899926617301) < 1e-11


def test_domain_paths_are_unit_speed():
    for path in (PlaneCurve.diameter(0.8), PlaneCurve.circle(0.37, 0.1 + 0.2j)):
        for t in (0.0, 0.3, 0.9):
            j = path.jet(t)
            assert abs(abs(j.d1) - 1.0) < 1e-14
    assert PlaneCurve.diameter(0.0).curvature(0.1) == 0.0
    assert abs(PlaneCurve.circle(0.4).curvature(0.0) - 2.5) < 1e-14


def test_circle_jet_matches_finite_differences():
    path = PlaneCurve.circle(0.45, 0.1 - 0.05j)
    for t in (0.0, 0.7, 2.0):
        j = path.jet(t)
        for order, got in ((1, j.d1), (2, j.d2), (3, j.d3)):
            want = fd_derivative(lambda s: path.jet(s).val, t, order)
            assert abs(got - want) < 1e-6


def test_path_jet_at_a_point_has_the_bits_it_has_in_an_array():
    for path in (PlaneCurve.circle(0.45), PlaneCurve.circle(0.37, 0.1 + 0.2j),
                 PlaneCurve.diameter(np.pi / 3)):
        ts = np.linspace(*path.t_range(), 9)
        many = path.jet(ts)
        for i, t in enumerate(ts):
            one = path.jet(float(t))
            for name in ("val", "d1", "d2", "d3"):
                got = getattr(one, name)
                want = np.broadcast_to(getattr(many, name), ts.shape)[i]
                assert np.shape(got) == () and \
                    np.asarray(got).tobytes() == want.tobytes(), \
                    (path, name, t)


def test_circle_inside_disk_enforced():
    with pytest.raises(DomainError):
        PlaneCurve.circle(0.5, 0.6)


def test_compose_real_matches_a_per_component_compose():
    # One chain rule over the stacked jet against each component composed
    # alone, both over the same array of t.
    from holocurve.oracle import _paths, default_suite_curves

    for curve in default_suite_curves():
        for path in _paths():
            ts = np.linspace(*path.t_range(), 9)
            gj = path.jet(ts)
            alone = [m.jet(gj.val).compose(gj) for m in curve.components]
            got = compose_real(curve, path, ts)
            for i, t in enumerate(ts):
                for x, field in zip((got.x0, got.x1, got.x2, got.x3),
                                    ("val", "d1", "d2", "d3")):
                    want = np.array([getattr(j, field)[i] for j in alone])
                    want = np.column_stack([want.real, want.imag]).ravel()
                    assert np.max(np.abs(x[:, i] - want)) \
                        <= 1e-15 * np.max(np.abs(want)), (curve.label, t)


def _per_t_s1_from_speed_curvature(speed, curvature, t):
    """s1_from_speed_curvature as one call per t: each log-speed difference
    samples the speed at its own seven points."""
    logv = lambda s: np.log(speed(s))
    l1 = fd_derivative(logv, t, 1, h=1e-3)
    l2 = fd_derivative(logv, t, 2, h=1e-3)
    v = speed(t)
    k = curvature(t)
    return float(l2 - 0.5 * l1 * l1 + 0.5 * (v * k) ** 2)


def _per_point_second_form_sq_fd(curve, z):
    """second_form_sq_fd with one jet call per stencil point."""
    def sigma_at(w):
        jet = curve.eval(w)
        return 0.5 * np.log(np.sum(np.abs(jet.d1) ** 2, axis=0))

    x0, y0 = float(np.real(z)), float(np.imag(z))
    sx = fd_derivative(lambda x: sigma_at(x + 1j * y0), x0, 1)
    sy = fd_derivative(lambda y: sigma_at(x0 + 1j * y), y0, 1)
    jet = curve.eval(z)
    q = float(np.sum(np.abs(jet.d1) ** 2, axis=0))
    phixx_sq = float(np.sum(np.abs(jet.d2) ** 2, axis=0))
    grad_sq = float(sx) ** 2 + float(sy) ** 2
    return (phixx_sq - q * grad_sq) / q ** 2


def test_arrays_of_t_have_the_bits_of_scalar_calls():
    # One path for a point and for an array: element by element, the same
    # bits, and a scalar t gives a scalar.
    from holocurve.oracle import _paths, default_suite_curves

    for curve in default_suite_curves():
        for path in _paths():
            ts = np.linspace(*path.t_range(), 11)[1:-1]
            got = compose_real(curve, path, ts)
            routes = [(f, f(curve, path, ts)) for f in (
                s1_of_composed_curve, s1_via_curvature,
                lambda c, p, t: s1_via_curvature(c, p, t, True))]
            speed, kappa = make_speed_curvature(curve, path)
            fd = s1_from_speed_curvature(speed, kappa, ts)
            for i, t in enumerate(ts):
                one = compose_real(curve, path, t)
                for field in ("x0", "x1", "x2", "x3"):
                    assert np.array_equal(getattr(one, field),
                                          getattr(got, field)[:, i])
                for f, values in routes:
                    value = f(curve, path, t)
                    assert np.ndim(value) == 0 and value == values[i]
                assert _per_t_s1_from_speed_curvature(speed, kappa, t) \
                    == fd[i], (curve.label, path.kind, t)
        for z in (0.0, 0.3 + 0.2j, -0.7j, 0.5 - 0.5j):
            assert second_form_sq_fd(curve, z) \
                == _per_point_second_form_sq_fd(curve, z), (curve.label, z)


def test_direct_equals_curvature_decomposition(ex1, ex2):
    paths = [PlaneCurve.diameter(0.0), PlaneCurve.diameter(1.1),
             PlaneCurve.circle(0.3), PlaneCurve.circle(0.6)]
    for curve in (hc.identity_curve(), hc.radial_pair_curve(0.7), ex1, ex2):
        for path in paths:
            lo, hi = path.t_range()
            for t in np.linspace(lo + 0.03, hi - 0.03, 7):
                a = s1_of_composed_curve(curve, path, float(t))
                b = s1_via_curvature(curve, path, float(t))
                assert abs(a - b) <= 1e-8 * (1.0 + abs(a)), (curve.label, path.kind, t)


def test_direct_equals_log_speed_form(ex2):
    # (log v)'' - (1/2)((log v)')^2 + (1/2) v^2 kappa^2 via centered FD in t
    for curve in (hc.radial_pair_curve(0.7), ex2):
        for path in (PlaneCurve.diameter(0.4), PlaneCurve.circle(0.5)):
            speed, curv = make_speed_curvature(curve, path)
            for t in (-0.2, 0.0, 0.35):
                t = float(t) if path.kind == "diameter" else float(t) + 0.6
                a = s1_of_composed_curve(curve, path, t)
                b = s1_from_speed_curvature(speed, curv, t)
                assert abs(a - b) <= 1e-5 * (1.0 + abs(a))


def test_signed_curvature_variant_differs_by_curvature_term(ex2):
    # the "signed" reading drops 2 * (3/4) e^{2 sigma} |K| relative to the
    # correct one; the gap must match that product exactly
    from holocurve.schwarzian import conformal_data
    path = PlaneCurve.circle(0.45)
    for t in (0.3, 1.1, 2.0):
        right = s1_via_curvature(ex2, path, t)
        wrong = s1_via_curvature(ex2, path, t, signed_curvature=True)
        z = path.jet(t).val
        data = conformal_data(ex2.eval(np.array([z])))
        sigma = 0.5 * np.log(data.q[0])
        gap = 1.5 * np.exp(2 * sigma) * abs(data.curvature[0])
        assert gap > 1e-4   # the probe is only meaningful off the flat locus
        assert abs((right - wrong) - gap) <= 1e-10 * (1.0 + gap)


def test_s1_invariant_under_range_mobius(ex2):
    # translation, rotation, scaling, and sphere inversion of the target
    path = PlaneCurve.diameter(0.3)
    sample = compose_real(ex2, path, 0.0)
    dim = sample.x0.size
    span = float(np.max(np.abs(sample.x0))) + 1.0
    center = 2.5 * span * np.eye(dim)[0]

    def mob(x):         # maps points given as rows
        d = x + 0.3 - center
        return 1.7 * d / np.sum(d * d, axis=-1, keepdims=True)

    worst = s1_mobius_invariance_check(ex2, path, mob, (-0.5, -0.1, 0.35))
    assert worst < 1e-4


def test_s1_direct_frozen_formula():
    # hand-checkable case: a planar circle of radius R traversed at unit
    # speed has S1 = 1/(2 R^2) (log v = 0, kappa = 1/R)
    R = 0.7
    ts = np.array([0.2])
    sample_kwargs = dict(
        t=0.2,
        x0=np.array([R * np.cos(0.2 / R), R * np.sin(0.2 / R)]),
        x1=np.array([-np.sin(0.2 / R), np.cos(0.2 / R)]),
        x2=np.array([-np.cos(0.2 / R), -np.sin(0.2 / R)]) / R,
        x3=np.array([np.sin(0.2 / R), -np.cos(0.2 / R)]) / R ** 2,
    )
    from holocurve.ahlfors import RealCurveSample
    val = s1_direct(RealCurveSample(**sample_kwargs))
    assert abs(val - 1.0 / (2 * R * R)) < 1e-14

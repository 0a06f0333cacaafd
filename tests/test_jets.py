"""Third-order jet arithmetic against finite differences and closed forms."""

import numpy as np
import pytest

from _reference import classical_schwarzian, fd_derivative, fd_jet
from holocurve.errors import DomainError, VanishingTangentError
from holocurve.jets import (ComposedComponent, DiskMobius,
                            ExponentialComponent, HoloCurve, Jet3,
                            MoebiusComponent, PolynomialComponent,
                            ReciprocalComponent, StripMapComponent,
                            identity_curve, polynomial_curve,
                            precompose_disk_mobius, radial_pair_curve,
                            scale_curve, strip_curve, tan_series,
                            tan_truncation_curve, artanh)
from holocurve.sampling import disk_samples, r2_sequence

RNG_POINTS = disk_samples(25, r_max=0.8, seed=3)

# Components whose nearest singularity sits on the unit circle (the strip
# map) are tested on a smaller radius: the third-order stencil's h^4 f^(7)
# truncation term outgrows the stated tolerance within ~0.3 of a pole.
COMPONENTS = [
    (PolynomialComponent([0.2, 1.0, -0.3j, 0.1, 0.05]), 0.8),
    (ExponentialComponent(1.5, 0.8 - 0.6j), 0.8),
    (MoebiusComponent(1.0, 0.3j, 0.25, 1.0), 0.8),
    (StripMapComponent(), 0.6),
    (ComposedComponent(MoebiusComponent(0.05, 1j, 0.05, -1j),
                       StripMapComponent()), 0.6),
    (ReciprocalComponent(ExponentialComponent(2.0, -1.1)), 0.8),
]


def _product(f, g):
    """The jet of f g by Leibniz's rule to order three."""
    return Jet3(f.val * g.val,
                f.d1 * g.val + f.val * g.d1,
                f.d2 * g.val + 2.0 * f.d1 * g.d1 + f.val * g.d2,
                f.d3 * g.val + 3.0 * f.d2 * g.d1 + 3.0 * f.d1 * g.d2
                + f.val * g.d3)


@pytest.mark.parametrize("comp,r_max", COMPONENTS,
                         ids=lambda v: type(v).__name__ if hasattr(v, "jet") else None)
def test_component_jets_match_finite_differences(comp, r_max):
    # orders 1-2 at the tight step, order 3 at its larger roundoff-safe step
    for z in disk_samples(25, r_max=r_max, seed=3):
        exact = comp.jet(z)
        approx = fd_jet(comp, z)
        for name in ("val", "d1", "d2", "d3"):
            a, b = getattr(exact, name), getattr(approx, name)
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a)), (type(comp).__name__, name, z)


def test_jet_ring_operations_consistent_with_composition():
    # f / g through the reciprocal jet of g, against FD of the quotient
    f = PolynomialComponent([0.1, 0.7, -0.2, 0.3])
    g = ExponentialComponent(1.0, 0.5j)
    for z in RNG_POINTS[:8]:
        q = _product(f.jet(z), g.jet(z).reciprocal())
        fq = lambda w: f.jet(w).val / g.jet(w).val
        for order in (1, 2, 3):
            want = fd_derivative(fq, z, order)
            got = (q.d1, q.d2, q.d3)[order - 1]
            assert abs(got - want) <= 1e-6 * (1.0 + abs(got))


def test_jet_compose_chain_rule():
    outer = PolynomialComponent([0.0, 1.0, 0.25, -0.1])
    inner = MoebiusComponent(1.0, 0.2, -0.1j, 1.0)
    for z in RNG_POINTS[:8]:
        composed = outer.jet(inner.jet(z).val).compose(inner.jet(z))
        direct = ComposedComponent(outer, inner).jet(z)
        for name in ("val", "d1", "d2", "d3"):
            assert abs(getattr(composed, name) - getattr(direct, name)) < 1e-12


def test_reciprocal_jet_identity():
    # f * (1/f) == 1 through third order
    f = PolynomialComponent([0.5, 1.0, 0.3j])
    for z in RNG_POINTS[:8]:
        j = f.jet(z)
        prod = _product(j, j.reciprocal())
        assert abs(prod.val - 1.0) < 1e-14
        assert abs(prod.d1) < 1e-13
        assert abs(prod.d2) < 1e-12
        assert abs(prod.d3) < 1e-11


def test_disk_mobius_maps_disk_into_disk_and_increases_radius():
    # |T(x)| >= |x| on the real axis for the vertical-translation family
    us = r2_sequence(60, 2, seed=11)
    for u1, u2 in us:
        mob = DiskMobius(rho=-0.9 + 1.8 * u1, theta=2 * np.pi * u2)
        xs = np.linspace(-0.999, 0.999, 41)
        vals = mob.jet(xs.astype(complex)).val
        assert np.all(np.abs(vals) < 1.0)
        assert np.all(np.abs(vals) >= np.abs(xs) - 1e-14)


def test_disk_mobius_jet_matches_finite_differences():
    mob = DiskMobius(rho=0.35, theta=1.1)
    for z in RNG_POINTS[:10]:
        exact = mob.jet(z)
        approx = fd_jet(mob, z)
        for name in ("val", "d1", "d2", "d3"):
            assert abs(getattr(exact, name) - getattr(approx, name)) <= 1e-7


def test_disk_mobius_jet_is_the_moebius_component_jet_bit_for_bit():
    zs = disk_samples(200, r_max=0.99, seed=3)
    for rho, theta in ((0.35, 1.1), (-0.55, 2.1), (0.0, 0.0), (0.999, -3.0)):
        phase = np.exp(1j * theta)
        want = MoebiusComponent(phase, -1j * rho * phase, 1j * rho,
                                1.0).jet(zs)
        got = DiskMobius(rho, theta).jet(zs)
        for name in ("val", "d1", "d2", "d3"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name


def test_disk_mobius_rejects_out_of_range_rho():
    with pytest.raises(ValueError):
        DiskMobius(rho=1.0, theta=0.0)


def test_tan_series_schwarzian_at_zero():
    # S(tan(a z))(0) = 2 a^2; the truncation reproduces it through the jet
    curve = tan_truncation_curve(stretch=1.2, degree=41)
    jet = curve.eval(np.array([0.0]))
    s0 = classical_schwarzian(jet)[0, 0]
    a = 1.2 * np.pi / 2
    assert abs(s0 - 2 * a * a) < 1e-10


def test_tan_series_coefficients():
    c = tan_series(11)
    # tan z = z + z^3/3 + 2 z^5/15 + 17 z^7/315 + ...
    assert abs(c[1] - 1.0) < 1e-15
    assert abs(c[3] - 1.0 / 3.0) < 1e-15
    assert abs(c[5] - 2.0 / 15.0) < 1e-15
    assert abs(c[7] - 17.0 / 315.0) < 1e-14
    assert np.all(c[::2] == 0.0)


def test_eval_outside_disk_raises():
    with pytest.raises(DomainError):
        identity_curve().eval(np.array([1.0 + 0j]))
    with pytest.raises(DomainError):
        identity_curve().eval(np.array([0.3, 1.2j]))
    # NaN compares false both ways; it is not a point of the disk either.
    for bad in (np.nan, complex(0.1, np.nan), np.array([0.3, np.nan])):
        with pytest.raises(DomainError):
            identity_curve().eval(bad)


def test_vanishing_tangent_detected():
    # phi = (z^2, z^3) has phi'(0) = 0
    bad = polynomial_curve([[0, 0, 1], [0, 0, 0, 1]])
    with pytest.raises(VanishingTangentError):
        bad.eval(np.array([0.0]))


def test_moebius_component_pole_guard():
    comp = MoebiusComponent(1.0, 0.0, 1.0, -0.5)  # pole at z = 0.5
    with pytest.raises(DomainError):
        comp.jet(0.5)
    with pytest.raises(ValueError):
        MoebiusComponent(1.0, 2.0, 1.0, 2.0)  # degenerate (ad = bc)


def test_precompose_disk_mobius_values():
    # A scaled curve keeps its factor through the composition.
    mob = DiskMobius(rho=0.3, theta=0.7)
    zs = disk_samples(12, r_max=0.7, seed=5)
    for factors in ((), (2.0 - 1.0j,)):
        curve = radial_pair_curve(0.7)
        for factor in factors:
            curve = scale_curve(curve, factor)
        pre = precompose_disk_mobius(curve, mob)
        assert pre.factors == factors
        direct = curve.eval(mob.jet(zs).val).val
        viaa = pre.eval(zs).val
        assert np.max(np.abs(direct - viaa)) < 1e-14


def test_scale_curve_scales_all_components():
    curve = HoloCurve((ExponentialComponent(1700.0, np.pi),
                       ExponentialComponent(1.0, -np.pi)))
    scaled = scale_curve(curve, 0.5j)
    z = np.array([0.2 + 0.1j])
    assert np.max(np.abs(scaled.eval(z).val - 0.5j * curve.eval(z).val)) < 1e-12
    with pytest.raises(ValueError):
        scale_curve(curve, 0.0)


@pytest.mark.parametrize("factors", [(1.0 / 3.0,), (0.5j,),
                                     (3.0 - 4.0j, 1.0 / 7.0)])
def test_scale_curve_has_the_bits_of_affine_components(factors):
    # Scaling the stacked jet multiplies as scaling each component's jet
    # does, so val, d1, d2, d3 and q keep its bits.
    from holocurve.fixtures import example2_curve

    class Scaled:
        def __init__(self, base, factor):
            self.base, self.factor = base, factor

        def jet(self, z):
            j = self.base.jet(z)
            return Jet3(*(getattr(j, f) * self.factor
                          for f in ("val", "d1", "d2", "d3")))

    z = np.concatenate([disk_samples(200, r_max=0.95, seed=3),
                        [0j, 0.5, -0.3j]])
    points = (z, complex(z[5]))
    for base in (example2_curve(0.05), radial_pair_curve(0.7),
                 identity_curve()):
        scaled, comps = base, base.components
        for factor in factors:
            scaled = scale_curve(scaled, factor)
            comps = tuple(Scaled(m, factor) for m in comps)
        assert scaled.components == base.components
        for w in points:
            got, want = scaled.eval(w), HoloCurve(comps).eval(w)
            for field in ("val", "d1", "d2", "d3", "q"):
                assert np.asarray(getattr(got, field)).tobytes() == \
                    np.asarray(getattr(want, field)).tobytes()


def test_strip_curve_is_artanh():
    z = np.array([0.4 - 0.2j])
    jet = strip_curve().eval(z)
    assert abs(jet.val[0, 0] - np.arctanh(z[0])) < 1e-14
    assert abs(jet.d1[0, 0] - 1.0 / (1.0 - z[0] ** 2)) < 1e-14


def _artanh_points():
    """Uniform in the disk up to r = 0.9999, within 1e-12 ... 1e-3 of the
    circle, at radii 1e-300 ... 1e-1, on both diameters, and 0."""
    rng = np.random.default_rng(11)

    def ring(r):
        return r * np.exp(2j * np.pi * rng.random(len(r)))
    x = np.linspace(-1.0, 1.0, 401)[1:-1] * 0.9999
    return np.concatenate([
        ring(0.9999 * np.sqrt(rng.random(1000))),
        ring(1.0 - 10.0 ** rng.uniform(-12, -3, 500)),
        ring(10.0 ** rng.uniform(-300, -1, 500)),
        x, 1j * x, -x - 0j, [0j]])


def test_artanh_matches_mpmath():
    import mpmath
    z = _artanh_points()
    assert np.all(np.abs(z) < 1.0)
    with mpmath.workdps(40):
        ref = np.array([complex(mpmath.atanh(mpmath.mpc(v.real, v.imag)))
                        for v in z.tolist()])
    err = np.abs(artanh(z) - ref)
    assert np.all(err <= 4 * 2.0 ** -52 * np.maximum(1.0, np.abs(ref)))


def test_artanh_is_the_principal_branch_and_keeps_signed_zeros():
    # Real on the real diameter and imaginary on the imaginary one;
    # conjugation commutes with it exactly; a scalar gives the scalar of its
    # array.
    x = np.linspace(-0.999, 0.999, 201)
    assert np.all(artanh(x + 0j).imag == 0.0)
    assert np.all(artanh(1j * x).real == 0.0)
    z = disk_samples(200, r_max=0.999, seed=4)
    assert np.array_equal(artanh(np.conj(z)), np.conj(artanh(z)))
    assert np.all(np.abs(artanh(z).imag) < np.pi / 4)
    assert artanh(complex(z[7])) == artanh(z)[7]
    zero = artanh(np.array([0j, complex(0.0, -0.0)]))
    assert np.array_equal(np.signbit(zero.imag), [False, True])


def test_polynomial_curve_validates_input():
    with pytest.raises(ValueError):
        polynomial_curve([])
    with pytest.raises(ValueError):
        polynomial_curve([[]])


@pytest.mark.parametrize("normalized", [False, True])
def test_eval_shares_sub_jets_within_one_call(monkeypatch, normalized):
    from holocurve.criterion import normalize
    from holocurve.fixtures import example2_curve

    curve = example2_curve(0.05)
    if normalized:
        curve = normalize(curve)  # f and 1/f with the factor 1/|phi'(0)|
    zs = disk_samples(500, r_max=0.95, seed=1)
    calls = []
    strip_jet = StripMapComponent.jet

    def counting(self, w):
        calls.append(np.size(w))
        return strip_jet(self, w)

    monkeypatch.setattr(StripMapComponent, "jet", counting)
    # Row k of each stacked field is component k's own jet times the
    # curve's factors, bit for bit, for an array of points and for a single
    # point, which eval takes as a one-point array.
    for z in (zs, complex(zs[7])):
        alone = [m.jet(np.reshape(z, -1)) for m in curve.components]
        for _ in range(2):
            calls.clear()
            jet = curve.eval(z)
            assert calls == [np.size(z)]   # f's strip map once, not twice
            assert jet.val.shape == (curve.n,) + np.shape(z)
            for k, want in enumerate(alone):
                for field in ("val", "d1", "d2", "d3"):
                    row = np.asarray(getattr(want, field))
                    for factor in curve.factors:
                        row = row * factor
                    assert getattr(jet, field)[k].tobytes() == row.tobytes()


def test_outer_component_is_not_shared_with_inner_points():
    # The same polynomial as inner map and as outer map: the outer runs at
    # the inner values, so it must not reuse the jet taken at z.
    p = PolynomialComponent([0.1, 1.0, 0.3])
    curve = HoloCurve((p, ComposedComponent(p, p)))
    z = disk_samples(50, r_max=0.5, seed=2)
    got = curve.eval(z)
    want = p.jet(p.jet(z).val).compose(p.jet(z))
    assert np.array_equal(got.val[1], want.val)
    assert np.array_equal(got.d3[1], want.d3)

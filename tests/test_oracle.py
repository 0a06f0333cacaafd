"""The cross-route identity suite and the collision (injectivity) scan."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import holocurve as hc
from holocurve import oracle
from holocurve.errors import ConfigError, DomainError
from holocurve.oracle import (_admissible_min_brute, default_suite_curves,
                              identity_suite, injectivity_scan)
from holocurve.sampling import disk_samples, r2_sequence

EXPECTED_RECORDS = {
    "second_form_lagrange_vs_wronskian",
    "s1_direct_vs_curvature_decomposition",
    "s1_direct_vs_speed_curvature_form",
    "schwarzian_disk_mobius_chain_rule",
    "s1_target_mobius_invariance",
    "s1_signed_curvature_reading_gap",
}


def test_identity_suite_all_pass():
    rep = identity_suite()
    assert {r.name for r in rep.records} == EXPECTED_RECORDS
    for r in rep.records:
        assert r.passed, (r.name, r.worst_dev, r.where)
    assert rep.ok


def test_identity_suite_custom_curve_pool():
    rep = identity_suite(curves=[hc.radial_pair_curve(0.4)], n_points=10)
    assert rep.ok
    assert {r.name for r in rep.records} == EXPECTED_RECORDS


def test_identity_suite_jet_call_budget(monkeypatch):
    # Each record evaluates all its points of one curve and path in one
    # call: 138 calls, where one call per t made 1,236.
    calls = []
    evaluate = hc.HoloCurve.eval
    monkeypatch.setattr(hc.HoloCurve, "eval",
                        lambda self, z: calls.append(1) or evaluate(self, z))
    assert identity_suite().ok
    assert len(calls) <= 300


def test_target_mobius_pole_raises_domain_error():
    # The suite's map inverts about 2.5 span e_1 after shifting by +-0.3.
    mob = oracle._target_mobius(4, 1.0)
    assert np.all(np.isfinite(mob(np.zeros(4))))
    with pytest.raises(DomainError):
        mob(np.array([2.2, 0.3, -0.3, 0.3]))
    with pytest.raises(DomainError):   # one pole row in a batch
        mob(np.array([[0.0, 0.0, 0.0, 0.0], [2.2, 0.3, -0.3, 0.3]]))


def test_default_suite_curves_cover_flat_and_curved():
    curves = default_suite_curves()
    assert len(curves) >= 4
    labels = {c.label for c in curves}
    assert any("example1" in s for s in labels)
    assert any("example2" in s for s in labels)


def test_injectivity_identity_curve_min_distance_is_min_sep():
    rep = injectivity_scan(hc.identity_curve(), n_samples=4000, min_sep=0.05)
    assert not rep.collision_found
    # for the identity the image distance equals the domain distance, so
    # the admissible minimum hugs the min_sep cutoff from above
    assert 0.05 <= rep.min_image_distance < 0.054
    z1, z2 = rep.pair
    assert abs(z1 - z2) >= 0.05


def test_injectivity_z_squared_symmetrized_collides():
    rep = injectivity_scan(hc.z_squared_curve(), n_samples=4000,
                           r_min=0.3, symmetrize=True)
    assert rep.collision_found
    assert rep.min_image_distance <= rep.collision_threshold
    z1, z2 = rep.pair
    assert abs(z1 + z2) < 1e-12          # exact antipodal witness
    assert abs(z1 - z2) >= rep.min_sep
    # every sample of the first half collides with its antipode: the tie
    # rule names the first sample
    assert z1 == disk_samples(4000, r_min=0.3, r_max=1.0 - 1e-4)[0]


def test_injectivity_z_squared_without_symmetrize_is_clean():
    # a generic low-discrepancy sample contains no near-antipodal pair at
    # collision precision, which is exactly why the designed fixture
    # mirrors the sample
    rep = injectivity_scan(hc.z_squared_curve(), n_samples=4000, r_min=0.3)
    assert not rep.collision_found
    assert rep.min_image_distance > 1e-6


def test_injectivity_examples_pass(ex1, ex2):
    r1 = injectivity_scan(ex1, n_samples=4000, r_max=0.9)
    assert not r1.collision_found
    r2 = injectivity_scan(ex2, n_samples=4000)
    assert not r2.collision_found
    assert r2.min_image_distance > 1e-4


def test_injectivity_scan_deterministic_and_seeded():
    a = injectivity_scan(hc.radial_pair_curve(0.7), n_samples=2000, seed=3)
    b = injectivity_scan(hc.radial_pair_curve(0.7), n_samples=2000, seed=3)
    assert a == b
    c = injectivity_scan(hc.radial_pair_curve(0.7), n_samples=2000, seed=4)
    assert c.min_image_distance != a.min_image_distance


def test_injectivity_annulus_restriction():
    rep = injectivity_scan(hc.identity_curve(), n_samples=2000,
                           r_min=0.5, r_max=0.8)
    z1, z2 = rep.pair
    for z in (z1, z2):
        assert 0.5 - 1e-12 <= abs(z) <= 0.8 + 1e-12


def test_injectivity_rejects_fewer_than_two_samples():
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match="at least 2"):
            injectivity_scan(hc.identity_curve(), n_samples=n)


def test_injectivity_without_admissible_pair_has_no_witness():
    # No pair is compared, so there is neither a distance nor a verdict.
    with pytest.raises(ConfigError, match="n_samples = 3 .* min_sep = 0.05"):
        injectivity_scan(hc.identity_curve(), n_samples=3, r_max=0.001)


@pytest.mark.parametrize("r_min,r_max", [
    (0.5, 0.3), (0.5, 0.5), (-0.1, 0.5), (0.0, 1.5), (np.nan, 0.5)])
def test_disk_samples_rejects_an_empty_or_outside_annulus(r_min, r_max):
    # An inverted annulus used to be sampled silently.
    with pytest.raises(ValueError, match="0 <= r_min < r_max <= 1"):
        disk_samples(10, r_min=r_min, r_max=r_max)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 40])
def test_large_seeds_keep_every_sample_distinct(seed):
    # The seed's rotation is reduced mod 1: unreduced, seed 2^40 put the
    # start near 1.6e12, whose ulp 2^-12 left each coordinate 4,096 values
    # and disk_samples(20000) 19,996 distinct points.
    u = r2_sequence(20000, 2, seed)
    assert [len(np.unique(u[:, j])) for j in range(2)] == [20000, 20000]
    assert len(np.unique(disk_samples(20000, seed=seed))) == 20000


def test_seed_zero_is_the_plain_recurrence():
    alpha = (1.0 / 1.32471795724474602596) ** np.arange(1, 3)
    want = np.mod(0.5 + np.arange(1, 101)[:, None] * alpha, 1.0)
    assert np.array_equal(r2_sequence(100, 2, 0), want)


@pytest.mark.parametrize("n,r_min,r_max,seed", [
    (1, 0.0, 1.0, 3), (777, 0.1, 0.9, 5), (20000, 0.0, 1.0 - 1e-4, 0),
    (10000, 0.3, 1.0 - 1e-4, 0)])
def test_samples_have_the_bits_of_their_formulas(n, r_min, r_max, seed):
    # Worked in place, the samplers keep the bits of their formulas
    # evaluated with a temporary for every step.
    alpha = (1.0 / 1.32471795724474602596) ** np.arange(1, 3)
    start = 0.5 + np.mod(seed * np.sqrt([2.0, 3.0]), 1.0)
    u = np.mod(start + np.arange(1, n + 1)[:, None] * alpha, 1.0)
    z = np.sqrt(r_min ** 2 + (r_max ** 2 - r_min ** 2) * u[:, 0]) \
        * np.exp(1j * (2.0 * np.pi * u[:, 1]))
    assert r2_sequence(n, 2, seed).tobytes() == u.tobytes()
    got = disk_samples(n, r_min=r_min, r_max=r_max, seed=seed)
    assert got.shape == (n,) and got.tobytes() == z.tobytes()


def _scan_peak_bytes(curve, n_samples):
    tracemalloc.start()
    try:
        injectivity_scan(curve, n_samples=n_samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_injectivity_memory_per_sample(ex2):
    # One (2n, N) image array, sorted in place, and in-place sweep
    # temporaries: about 144 bytes a sample on example 2, against 257 when
    # the blocks' jets were concatenated and the sort copied the cloud.
    injectivity_scan(ex2, n_samples=100)        # caches filled, untraced
    small, large = (_scan_peak_bytes(ex2, n) for n in (10000, 40000))
    assert (large - small) / 30000 <= 180


_REFERENCE_SCANS = [
    ("identity", hc.identity_curve, {}),
    ("example1", lambda: hc.example1_curve(1700.0), {"r_max": 0.9}),
    ("example2", lambda: hc.example2_curve(0.05), {}),
    ("radial_pair", lambda: hc.radial_pair_curve(0.7), {}),
    ("z_squared", hc.z_squared_curve, {"r_min": 0.3}),
    ("z_squared-symmetrized", hc.z_squared_curve,
     {"r_min": 0.3, "symmetrize": True}),
    ("annulus", hc.identity_curve, {"r_min": 0.5, "r_max": 0.8}),
    ("identity-min_sep-0", hc.identity_curve, {"min_sep": 0.0}),
    ("identity-min_sep-1", hc.identity_curve, {"min_sep": 1.0}),
]


def _brute_reference(z, vals, min_sep):
    """The O(N^2) reference on the scan's cloud, with the scan's no-pair
    convention."""
    X = np.concatenate([np.real(vals), np.imag(vals)], axis=0).T.copy()
    dist, pair = _admissible_min_brute(z, X, min_sep)
    return dist, pair if dist < np.inf else None


@pytest.mark.parametrize("make,kwargs", [c[1:] for c in _REFERENCE_SCANS],
                         ids=[c[0] for c in _REFERENCE_SCANS])
def test_injectivity_matches_brute_reference(monkeypatch, make, kwargs):
    seen = []

    def evaluate(curve, z):
        jet = hc.eval_curve(curve, z)
        seen.append((z, jet.val))
        return jet

    monkeypatch.setattr(oracle, "eval_curve", evaluate)
    rep = injectivity_scan(make(), n_samples=1600, **kwargs)
    (z, vals), = seen
    assert (rep.min_image_distance, rep.pair) \
        == _brute_reference(z, vals, rep.min_sep)


@pytest.mark.parametrize("min_sep", [0.0, 0.1, 0.3])
def test_injectivity_tie_rule_on_a_lattice(monkeypatch, min_sep):
    # 1,500 samples on a 31 x 31 lattice: many coincide and many admissible
    # pairs tie, so the tie rule alone picks the witness
    rng = np.random.default_rng(0)
    z = rng.integers(-15, 16, size=(1500, 2)) @ np.array([1, 1j]) / 32
    monkeypatch.setattr(oracle, "disk_samples", lambda *args, **kwargs: z)
    rep = injectivity_scan(hc.identity_curve(), n_samples=len(z),
                           min_sep=min_sep)
    assert (rep.min_image_distance, rep.pair) \
        == _brute_reference(z, z[None], min_sep)


@pytest.mark.parametrize("n_far", [0, 600])
def test_injectivity_follows_the_printed_distance_on_near_ties(monkeypatch,
                                                               n_far):
    # The cyclic shifts of v, of v reversed and of v with neighbouring
    # coordinates swapped are 24 points of C^4 equally far from the origin,
    # but summation order rounds those distances to different last bits;
    # the witness must follow np.linalg.norm.  n_far distant samples
    # stretch the sort coordinate, which the sweep's pruning must then
    # keep from cutting through the tie.
    v = np.array([-0.387, 0.923, -0.068, 0.256, 0.27, -0.632, -0.876, -0.177])
    copies = [np.roll(w, s) for w in (v, v[::-1], v[[1, 0, 3, 2, 5, 4, 7, 6]])
              for s in range(8)]
    X = np.vstack([np.zeros(8), copies,
                   100.0 + np.arange(n_far)[:, None] * np.ones(8)])
    z = np.concatenate([[0.0], 0.9 + 0.001j * np.arange(24),
                        -0.9 + 0.001j * np.arange(n_far)])
    vals = X[:, :4].T + 1j * X[:, 4:].T
    monkeypatch.setattr(oracle, "disk_samples", lambda *args, **kwargs: z)
    monkeypatch.setattr(oracle, "eval_curve",
                        lambda curve, points: SimpleNamespace(val=vals))
    rep = injectivity_scan(hc.identity_curve(), n_samples=len(z), min_sep=0.5)
    assert (rep.min_image_distance, rep.pair) \
        == _brute_reference(z, vals, 0.5)


@pytest.mark.parametrize("scale", [1e-160, 1e-232])
def test_injectivity_follows_the_printed_distance_where_squares_underflow(
        monkeypatch, scale):
    # Scaled down, the squared image distances are subnormal (1e-160) or
    # underflow to 0 (1e-232): printed distances round coarsely or all read
    # 0 while the coordinate gaps stay positive, and the witness must still
    # follow np.linalg.norm and the tie rule.
    seen = []

    def evaluate(curve, z):
        vals = hc.eval_curve(curve, z).val * scale
        seen.append((z, vals))
        return SimpleNamespace(val=vals)

    monkeypatch.setattr(oracle, "eval_curve", evaluate)
    rep = injectivity_scan(hc.identity_curve(), n_samples=1600)
    (z, vals), = seen
    assert (rep.min_image_distance, rep.pair) \
        == _brute_reference(z, vals, rep.min_sep)


def test_injectivity_min_sep_zero_skips_self_pairs():
    # with no domain separation required the witness is the nearest pair of
    # distinct samples, never a sample paired with itself
    rep = injectivity_scan(hc.identity_curve(), n_samples=2000, min_sep=0.0)
    z1, z2 = rep.pair
    assert z1 != z2
    assert rep.min_image_distance == pytest.approx(abs(z1 - z2), rel=1e-12)
    assert rep.min_image_distance > 0
    assert not rep.collision_found


def test_injectivity_never_runs_the_quadratic_reference(monkeypatch, ex2):
    # example 2 at 2e4 samples used to overflow a pair cap into O(N^2)
    def refuse(*args, **kwargs):
        raise AssertionError("the O(N^2) reference ran")

    monkeypatch.setattr(oracle, "_admissible_min_brute", refuse)
    rep = injectivity_scan(ex2, n_samples=20000)
    assert not rep.collision_found
    assert rep.min_image_distance > 1e-4

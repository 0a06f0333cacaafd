"""Property test: the injectivity scan against the O(N^2) reference on
random clouds.  Kept apart so that the rest of the oracle tests do not need
hypothesis."""

from types import SimpleNamespace

import numpy as np
import pytest

import holocurve as hc
from holocurve import oracle
from holocurve.errors import ConfigError
from holocurve.oracle import _admissible_min_brute, injectivity_scan

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# Lattice clouds and integer coefficients make exact ties common, so the
# tie rule is exercised along with the distance.  The cloud and its image
# replace the scan's disk sample and curve evaluation.  derandomize: every
# run checks the same examples.
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(
    n=st.integers(2, 1000), seed=st.integers(0, 2 ** 32 - 1),
    lattice=st.booleans(),
    polys=st.lists(st.lists(st.one_of(st.integers(-3, 3), st.floats(-2, 2)),
                            min_size=1, max_size=4),
                   min_size=1, max_size=3),
    min_sep=st.floats(0.0, 3.0))
# Image gaps near 1e-231 whose squares underflow: every distance prints as
# 0, so every pair ties and the tie rule needs all of them.
@hypothesis.example(n=4, seed=1, lattice=False,
                    polys=[[0, 8.604193611905846e-232]], min_sep=0)
def test_injectivity_matches_brute_reference_on_random_clouds(
        n, seed, lattice, polys, min_sep):
    rng = np.random.default_rng(seed)
    if lattice:
        z = rng.integers(-7, 8, size=(n, 2)) @ np.array([1, 1j]) / 8
    else:
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    vals = np.array([np.polynomial.polynomial.polyval(z, p) for p in polys])
    X = np.concatenate([np.real(vals), np.imag(vals)], axis=0).T.copy()
    dist, pair = _admissible_min_brute(z, X, min_sep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "disk_samples", lambda *args, **kwargs: z)
        mp.setattr(oracle, "eval_curve",
                   lambda curve, points: SimpleNamespace(val=vals))
        if dist == np.inf:   # no admissible pair: no verdict either
            with pytest.raises(ConfigError):
                injectivity_scan(hc.identity_curve(), n_samples=n,
                                 min_sep=min_sep)
            return
        rep = injectivity_scan(hc.identity_curve(), n_samples=n,
                               min_sep=min_sep)
    assert (rep.min_image_distance, rep.pair) == (dist, pair)

"""Property test: a table's admissibility, decided exactly from its pieces,
against a dense scan of the interpolant.  Kept apart so that the rest of
the weight tests do not need hypothesis."""

import numpy as np
import pytest

from holocurve.nehari import NehariFunction, validate_nehari

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# Sorted values make nondecreasing tables, and tables whose kernel holds,
# common; equal values make flat pieces.  derandomize: every run checks the
# same examples.
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    gaps=st.lists(st.floats(0.02, 0.3), min_size=3, max_size=5),
    values=st.lists(st.one_of(st.floats(-0.5, 4.0), st.sampled_from([2.0])),
                    min_size=6, max_size=6),
    sort=st.booleans())
def test_exact_rules_agree_with_a_dense_scan(gaps, values, sort):
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    hypothesis.assume(x[-1] < 1.0)
    p = np.array(values[:len(x)])
    if sort:
        p = np.sort(p)
    weight = NehariFunction.tabulated(x, p)
    v = validate_nehari(weight)
    # The scan takes in every node, where each piece starts at its value.
    grid = np.union1d(np.linspace(0.0, 1.0 - 1e-6, 200_001), x)
    pv = weight(grid)
    k = (1.0 - grid ** 2) ** 2 * pv
    assert v.positive == bool(np.all(pv > 0.0))
    nondecreasing = not np.any(np.diff(p) < 0.0)
    assert nondecreasing == bool(np.all(np.diff(pv) >= -1e-13 * np.max(pv)))
    if v.positive:
        # On random tables a kernel the exact rule rejects rises by 2e-8 of
        # K(0) or more between grid points; one it admits never rises.
        rise = np.max(np.diff(k))
        assert v.kernel_nonincreasing == bool(rise <= 1e-12 * k[0])

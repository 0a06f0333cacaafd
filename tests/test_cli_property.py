"""Property tests: the CLI contract on random curves, extreme scales and small
grids, run in-process through `cli.main`.  Kept apart so that the rest of
the CLI tests do not need hypothesis."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from holocurve.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_EXTREMES = [0.0, -2.0, 1e-300, 1e-150, 0.05, 1.0, 1700.0, 1e150, 1e300,
             float("inf"), float("nan")]
_OPTIONAL = st.one_of(st.none(), st.sampled_from(_EXTREMES))

_CURVES = st.fixed_dictionaries({
    "curve.kind": st.sampled_from(
        ["identity", "polynomial", "example1", "example2", "z_squared",
         "tan_truncation", "radial_pair", "strip"]),
    "curve.coeffs": st.sampled_from(["0,1,1e200", "0,1,0.3;0,0,1j",
                                     "0.1,1,-0.2,0.05", "0,0,1"]),
    "curve.c": _OPTIONAL,
    "curve.scale": _OPTIONAL,
    "curve.mobius_rho": st.sampled_from([0.0, 0.5, -0.95]),
    "curve.normalize": st.booleans(),
})
_CHECK = st.fixed_dictionaries({
    "grid.n_r": st.integers(1, 4),
    "grid.n_theta": st.integers(4, 8),
    "grid.r_max": st.sampled_from([0.3, 0.9, 0.999]),
    "grid.refine": st.integers(0, 2),
    "nehari.kind": st.sampled_from(["constant", "inverse_square",
                                    "half_strip"]),
})
_INJECTIVITY = st.fixed_dictionaries({
    "injectivity.samples": st.integers(2, 80),
    "injectivity.min_sep": st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    "injectivity.r_min": st.sampled_from([0.0, 0.3]),
    "injectivity.r_max": st.sampled_from([0.5, 0.9999]),
    "injectivity.symmetrize": st.booleans(),
})


def _run(command, cfg_path, out_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main([command, str(cfg_path), "--output", str(out_dir)])
    artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
    return code, out.getvalue(), err.getvalue(), artifacts


# derandomize: every run checks the same examples.
@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(
    command=st.sampled_from(["check-criterion", "injectivity"]),
    curve=_CURVES, check=_CHECK, injectivity=_INJECTIVITY)
def test_cli_contract_on_random_configs(command, curve, check, injectivity):
    options = dict(curve, **(check if command == "check-criterion"
                             else injectivity))
    text = "".join(f"{key} = {value}\n" for key, value in options.items()
                   if value is not None)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        first = _run(command, cfg, Path(tmp) / "out")
        again = _run(command, cfg, Path(tmp) / "out")
    code, out, err, _ = first
    assert code in range(6), (text, err)
    assert "Traceback" not in err
    if "verdict = holds" in out:
        margin = out.split("min_margin = ", 1)[1].split("\n", 1)[0]
        assert math.isfinite(float(margin)), text
    assert again == first, text


_COVERING = st.fixed_dictionaries({
    "covering.radii": st.just(0.3),
    "covering.resolution": st.integers(4, 20),
    "nehari.kind": st.sampled_from(["constant", "inverse_square",
                                    "half_strip"]),
})
_BOUNDARY = st.fixed_dictionaries({
    "boundary.rays": st.integers(1, 4),
    "boundary.s_points": st.integers(1, 10),
    "boundary.ring_samples": st.integers(2, 64),
    "nehari.kind": st.sampled_from(["constant", "inverse_square",
                                    "half_strip"]),
})


# Boundary runs cost up to 1.4 s each (the per-candidate BFGS of the
# critical-point search); 70 fixed examples take about 7 s.
@hypothesis.settings(max_examples=70, deadline=None, derandomize=True)
@hypothesis.given(
    command=st.sampled_from(["covering", "boundary"]),
    curve=_CURVES, covering=_COVERING, boundary=_BOUNDARY)
def test_covering_and_boundary_contract_on_random_configs(command, curve,
                                                          covering, boundary):
    options = dict(curve, **(covering if command == "covering"
                             else boundary))
    text = "".join(f"{key} = {value}\n" for key, value in options.items()
                   if value is not None)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        first = _run(command, cfg, Path(tmp) / "out")
        again = _run(command, cfg, Path(tmp) / "out")
    code, out, err, _ = first
    assert code in range(6), (text, err)
    assert "Traceback" not in err
    if code == 0:   # every printed number but the curve label's and paths'
        for line in out.splitlines():
            if line.startswith("curve = ") or "_csv = " in line:
                continue
            for token in re.split(r"[\s=(),:|]+", line):
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert math.isfinite(value), (text, line)
    assert again == first, text

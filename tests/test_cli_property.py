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
_SHAPE = st.fixed_dictionaries({
    "curve.degree": st.sampled_from([-1, 0, 1, 41]),
    "curve.stretch": _OPTIONAL,
    "curve.k": _OPTIONAL,
})
_CHECK = st.fixed_dictionaries({
    "tol.equality": _OPTIONAL,
    "grid.n_r": st.integers(1, 4),
    "grid.n_theta": st.integers(4, 8),
    "grid.r_max": st.sampled_from([0.3, 0.9, 0.999]),
    "grid.refine": st.integers(0, 2),
    "nehari.kind": st.sampled_from(["constant", "inverse_square",
                                    "half_strip"]),
    "nehari.factor": _OPTIONAL,
})
_INJECTIVITY = st.fixed_dictionaries({
    "injectivity.samples": st.integers(2, 80),
    "injectivity.min_sep": st.sampled_from([0.0, 0.05, 0.5, 3.0,
                                            float("nan"), float("inf"),
                                            -1.0]),
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
    curve=_CURVES, shape=_SHAPE, check=_CHECK, injectivity=_INJECTIVITY)
def test_cli_contract_on_random_configs(command, curve, shape, check,
                                        injectivity):
    options = dict(curve, **shape, **(check if command == "check-criterion"
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
    printed = dict(line.split(" = ", 1) for line in out.splitlines()
                   if " = " in line)
    if "verdict" in printed or "collision" in printed:
        # A verdict stands only on a finite, nonnegative tolerance.
        tol = float(printed.get("tol_eq", printed.get("min_sep")))
        assert 0.0 <= tol < math.inf, text
    factor = options.get("nehari.factor")
    if command == "check-criterion" and factor is not None and factor > 1.0:
        # ... and on a disconjugate weight: no closed kind past factor 1.
        assert "verdict" not in printed and code == 2, text
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


# 70 fixed examples take about 8 s; the boundary runs dominate.
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


_TABLES = {    # nehari.table_x, nehari.table_p
    "valid": ("0,0.3,0.6,0.9", "2,2,2,2"),
    "negative": ("0,0.3,0.6,0.9", "-1,-1,-1,-1"),
    "kernel-increasing": ("0,0.3,0.6,0.9", "1,3,10,100"),
    "non-increasing-x": ("0,0.6,0.3,0.9", "2,2,2,2"),
}
_PROFILE = st.fixed_dictionaries({
    "nehari.kind": st.sampled_from(["constant", "inverse_square",
                                    "half_strip", "tabulated"]),
    "nehari.factor": _OPTIONAL,
    "profile.eps": st.sampled_from([1e-8, 1e-6, 0.5, 0.0, 1.0,
                                    float("nan")]),
    "profile.samples": st.sampled_from([0, 1, 2, 17]),
})
_EXAMPLE = st.fixed_dictionaries({
    "example.which": st.sampled_from([1, 2, 3]),
    "curve.c": _OPTIONAL,
    "grid.n_r": st.integers(1, 4),
    "grid.n_theta": st.integers(4, 8),
    "example.c_values": st.sampled_from(["0.01,0.05,0.1", "0.05", "0",
                                         "0.01,nan", "1e300", ""]),
})


def _check_contract(command, options):
    """Exit code 0-5, no traceback, only finite numbers printed with exit 0
    (paths aside), and a byte-identical rerun."""
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
    if code == 0:
        for line in out.splitlines():
            if "_csv = " in line:
                continue
            for token in re.split(r"[\s=(),:|/]+", line):
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert math.isfinite(value), (text, line)
    assert again == first, text


_SEEDS = st.sampled_from([0, 1, 12345, 2 ** 40])


# A valid run costs 0.5-2.5 s, and most drawn configs are rejected at once:
# these 15 fixed examples take about 3 s.
@hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
@hypothesis.given(profile=_PROFILE, table=st.sampled_from(sorted(_TABLES)),
                  seed=_SEEDS)
def test_extremal_profile_contract_on_random_configs(profile, table, seed):
    options = dict(profile, **{"run.seed": seed})
    if profile["nehari.kind"] == "tabulated":
        options["nehari.table_x"], options["nehari.table_p"] = _TABLES[table]
    _check_contract("extremal-profile", options)


@hypothesis.settings(max_examples=4, deadline=None, derandomize=True)
@hypothesis.given(seed=_SEEDS)
def test_verify_identities_contract_on_random_seeds(seed):
    _check_contract("verify-identities", {"run.seed": seed})


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(example=_EXAMPLE, seed=_SEEDS)
def test_reproduce_example_contract_on_random_configs(example, seed):
    _check_contract("reproduce-example", dict(example, **{"run.seed": seed}))

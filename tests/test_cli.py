"""End-to-end runs of every subcommand through main(), plus the config
parser's error reporting and the determinism guarantees."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from holocurve import _table, cli, criterion, jets, oracle
from holocurve.cli import main, parse_config
from holocurve.criterion import normalize
from holocurve.errors import ConfigError
from holocurve.nehari import NehariFunction


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _stdout_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key!r} not in output:\n{out}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg["grid.n_r"] == 200
    assert cfg["grid.n_theta"] == 64
    assert cfg["curve.kind"] == "identity"
    for key in ("no.such_key", "covering.tol"):
        with pytest.raises(KeyError):
            cfg[key]


def test_parse_config_comments_and_values():
    cfg = parse_config("""
# full-line comment
grid.n_r = 50          # trailing comment
curve.kind = example1
curve.normalize = yes
tol.equality = 1e-7
""")
    assert cfg["grid.n_r"] == 50
    assert cfg["curve.kind"] == "example1"
    assert cfg["curve.normalize"] is True
    assert cfg["tol.equality"] == 1e-7


@pytest.mark.parametrize("text,lineno,fragment", [
    ("grid.n_r = 10\nnot a key value pair\n", 2, "expected 'key = value'"),
    ("grid.bogus = 3\n", 1, "unknown configuration key"),
    ("grid.n_r = 10\n\ngrid.n_r = 20\n", 3, "duplicate key"),
    ("grid.n_r = ten\n", 1, "cannot parse value"),
    ("curve.normalize = maybe\n", 1, "cannot parse value"),
])
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == lineno
    assert f"line {lineno}:" in str(err.value)
    assert fragment in str(err.value)


def test_main_reports_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "grid.n_r = 10\ngrid.mystery = 1\n")
    assert main(["check-criterion", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: line 2:" in err


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["check-criterion", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_main_curve_builder_error(tmp_path, capsys):
    cfg = _write(tmp_path, "poly.cfg", "curve.kind = polynomial\n")
    assert main(["check-criterion", cfg]) == 2
    assert "needs curve.coeffs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-criterion
# ---------------------------------------------------------------------------

def test_check_criterion_identity_holds(tmp_path, capsys):
    cfg = _write(tmp_path, "id.cfg",
                 "curve.kind = identity\ngrid.n_r = 40\ngrid.n_theta = 16\n")
    assert main(["check-criterion", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "verdict") == "holds"
    # margin of the identity against the constant weight is exactly 2 p(0)
    assert _stdout_value(out, "min_margin") == f"{np.pi ** 2 / 2.0:.17g}"
    assert (tmp_path / "scan.csv").exists()


def test_check_criterion_failure_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "tan.cfg",
                 "curve.kind = tan_truncation\ngrid.n_r = 100\n"
                 "grid.n_theta = 32\ngrid.r_max = 0.97\n")
    assert main(["check-criterion", cfg, "--output", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert _stdout_value(out, "verdict") == "fails"
    assert float(_stdout_value(out, "min_margin")) < 0


# ---------------------------------------------------------------------------
# extremal-profile
# ---------------------------------------------------------------------------

# pi^2/4 on ten nodes: the interpolant is constant, so this is the constant
# weight.
_CONSTANT_TABLE = ("nehari.kind = tabulated\nnehari.table_x = "
                   + ",".join(map(repr, np.linspace(0.0, 0.9, 10).tolist()))
                   + "\nnehari.table_p = " + ",".join([repr(np.pi ** 2 / 4)]
                                                      * 10) + "\n")

def test_extremal_profile_constant(tmp_path, capsys):
    cfg = _write(tmp_path, "prof.cfg", "nehari.kind = constant\n")
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert float(_stdout_value(out, "lambda")) == pytest.approx(0.0, abs=1e-6)
    assert float(_stdout_value(out, "mu")) == pytest.approx(2.0, abs=1e-6)
    assert float(_stdout_value(out, "extremality_margin")) == \
        pytest.approx(1.0, abs=1e-3)
    # psi_end is reported at x = 1 - profile.eps, not at the limit
    want = 2.0 / np.pi * np.tanh(np.pi * (1.0 - 1e-6) / 2.0)
    assert float(_stdout_value(out, "psi_end")) == pytest.approx(want, abs=1e-9)
    csv = (tmp_path / "profile.csv").read_text()
    assert csv.splitlines()[0] == "x,u0,Phi,PhiP,U,Psi,A,p"


def test_extremal_profile_rejects_oscillating_weight(tmp_path, capsys):
    cfg = _write(tmp_path, "osc.cfg",
                 "nehari.kind = constant\nnehari.factor = 1.2\n")
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_extremal_profile_numerical_failure(tmp_path, capsys):
    # A table's margin is bisected: 1e150 lies past the largest bracket
    # 2^20, so the guarded search reports a numerical failure rather than a
    # wrong number.
    cfg = _write(tmp_path, "weak.cfg",
                 "nehari.kind = tabulated\nnehari.table_x = 0,0.3,0.6,0.9\n"
                 "nehari.table_p = 2,2,2,2\nnehari.factor = 1e-150\n")
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 5
    assert "numerical failure" in capsys.readouterr().err


def test_extremal_profile_margin_above_four(tmp_path, capsys):
    # A closed kind's margin is exactly 1/factor; the bisection printed
    # 20.000030517578125 here.
    cfg = _write(tmp_path, "weak.cfg",
                 "nehari.kind = constant\nnehari.factor = 0.05\n")
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "extremality_margin") == "20"


def test_extremal_profile_margin_has_no_bracket_cap(tmp_path, capsys):
    # A closed kind's margin is not searched, so 1e150 is no longer a
    # numerical failure; it prints the correctly rounded 1/factor.
    cfg = _write(tmp_path, "weak.cfg",
                 "nehari.kind = inverse_square\nnehari.factor = 1e-150\n"
                 "profile.samples = 17\n")
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "extremality_margin") == "%.17g" % (1 / 1e-150)


@pytest.mark.parametrize("config", [
    "nehari.kind = constant\nnehari.factor = 0.9\n",
    "nehari.kind = inverse_square\nnehari.factor = 0.99\n",
    "nehari.kind = half_strip\nnehari.factor = 0.9\n",
    f"nehari.kind = constant\nnehari.factor = {1 - 2 ** -53!r}\n",
    "nehari.kind = tabulated\nnehari.table_x = 0,0.3,0.6,0.9\n"
    "nehari.table_p = 2,2,2,2\n",
    _CONSTANT_TABLE + "nehari.factor = 0.9\n",
], ids=["constant-0.9", "inverse_square-0.99", "half_strip-0.9",
        "constant-below-1", "table-two", "constant-table-0.9"])
def test_extremal_profile_below_the_extremal_weight_converges(
        tmp_path, capsys, config):
    # Each margin exceeds 1, so Phi(1) is finite.  The first three printed
    # diverging = true under the old rule Phi(1 - 1e-6) > 5.
    cfg = _write(tmp_path, "prof.cfg", config + "profile.samples = 17\n")
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert float(_stdout_value(out, "extremality_margin")) > 1.0
    assert _stdout_value(out, "diverging") == "false"


def test_extremal_profile_of_an_extremal_table_is_undecided(tmp_path,
                                                           capsys):
    # u0(1) = 0 for the constant table at factor 1: its two solves return
    # rounding-level values, so the verdict is a numerical failure.
    cfg = _write(tmp_path, "tab.cfg", _CONSTANT_TABLE)
    assert main(["extremal-profile", cfg, "--output", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r"undecided: u0\(1\) = \S+ at rtol 1e-10, \S+ at "
                     r"1e-12", err)
    assert not (tmp_path / "profile.csv").exists()


# e^{4z} truncated at degree 39 meets the criterion of the constant weight
# at factor 2 (|S| ~ 8 <= pi^2), but e^{4z} takes one value at +-i pi/4.
_EXP4_CONFIG = ("curve.kind = polynomial\ncurve.coeffs = "
                + ",".join(repr(4.0 ** k / math.factorial(k))
                           for k in range(40))
                + "\nnehari.kind = constant\nnehari.factor = 2\n")


@pytest.mark.parametrize("command", ["check-criterion", "extremal-profile",
                                     "covering", "boundary"])
def test_oscillating_weight_is_a_config_error_everywhere(tmp_path, capsys,
                                                         command):
    # check-criterion used to print verdict = holds here, and covering and
    # boundary exited 5: the profile ODE broke down at u0's zero 1/sqrt(2).
    cfg = _write(tmp_path, "exp4.cfg", _EXP4_CONFIG)
    out_dir = tmp_path / "out"
    assert main([command, cfg, "--output", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: u'' + p u = 0 oscillates (1 interior " \
        "zero(s))\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("config,weight", [
    ("nehari.kind = constant\n", NehariFunction.constant()),
    ("nehari.kind = inverse_square\nnehari.factor = 0.5\n",
     NehariFunction.inverse_square(0.5)),
    ("nehari.kind = half_strip\n", NehariFunction.half_strip()),
    ("nehari.kind = tabulated\nnehari.table_x = 0,0.3,0.6,0.9\n"
     "nehari.table_p = 1,1.09,1.36,1.81\n",   # p = 1 + x^2
     NehariFunction.tabulated([0, 0.3, 0.6, 0.9], [1, 1.09, 1.36, 1.81])),
], ids=["constant", "inverse_square", "half_strip", "tabulated"])
def test_boundary_data_lines_are_the_weights_own(tmp_path, capsys, config,
                                                 weight):
    # extremal-profile and boundary print the same lambda, mu and Hoelder
    # exponent lines, read from the weight itself.
    expected = {"lambda": "%.17g" % weight.boundary_lambda,
                "mu": "%.17g" % weight.mu,
                "holder_exponent": "%.17g" % weight.holder_exponent}
    cfg = _write(tmp_path, "w.cfg", config + "profile.samples = 17\n"
                 "boundary.rays = 4\nboundary.s_points = 8\n"
                 "boundary.ring_samples = 64\n")
    for command in ("extremal-profile", "boundary"):
        assert main([command, cfg, "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert {key: _stdout_value(out, key) for key in expected} == expected


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------

def test_covering_example1_consistent(tmp_path, capsys):
    cfg = _write(tmp_path, "cov.cfg",
                 "curve.kind = example1\nnehari.kind = constant\n"
                 "covering.radii = 0.3,0.6\ncovering.resolution = 120\n")
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "verdict") == "consistent"
    lines = (tmp_path / "covering.csv").read_text().splitlines()
    assert lines[0] == "r,bound,lower,upper,slack"
    assert len(lines) == 3
    for line in lines[1:]:
        r, bound, lower, upper, slack = map(float, line.split(","))
        assert bound <= lower <= upper and slack == lower - bound


@pytest.mark.parametrize("line", [
    "covering.radii = 0.3,1.2", "covering.radii = 0", "covering.radii = nan",
    "covering.radii = 0.99", "covering.radii = abc", "covering.radii =",
    "covering.resolution = 0", "covering.resolution = 1",
    # covering.tol is no longer a key: a bracket needs no allowance.
    "covering.tol = nan", "covering.tol = -1e-3", "covering.tol = inf",
])
def test_covering_bad_config_is_a_config_error(tmp_path, capsys, line,
                                                monkeypatch):
    import holocurve.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(cli, "extremal_profile", no_work)
    cfg = _write(tmp_path, "cov.cfg", line + "\n")
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err
    assert not (tmp_path / "covering.csv").exists()


@pytest.mark.parametrize("curve", [
    # |phi'(0)| = c pi overflows, so the curve cannot be normalized.
    "curve.kind = example1\ncurve.c = 1e155",
    # phi'(0) = 1, but q overflows off the origin: every edge weighs inf.
    "curve.kind = polynomial\ncurve.coeffs = 0,1,1e200",
])
def test_covering_overflow_is_a_numerical_failure(tmp_path, capsys, curve):
    cfg = _write(tmp_path, "cov.cfg",
                 curve + "\ncovering.radii = 0.3\ncovering.resolution = 20\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["covering", cfg, "--output", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "numerical failure" in err
    assert not (tmp_path / "covering.csv").exists()


def test_covering_nan_distance_is_a_numerical_failure(tmp_path, capsys,
                                                      monkeypatch):
    # NaN compares false with the bound, which must not read as "consistent".
    import holocurve.cli as cli

    monkeypatch.setattr(cli, "intrinsic_min_distance",
                        lambda *args, **kwargs: (float("nan"), float("nan")))
    cfg = _write(tmp_path, "cov.cfg", "covering.radii = 0.3\n")
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "covering bracket at r = 0.3" in err
    assert not (tmp_path / "covering.csv").exists()


_GAPPED = ("curve.kind = example2\nnehari.kind = inverse_square\n"
           "curve.mobius_rho = 0.5\ncurve.mobius_theta = 0.7\n"
           "covering.radii = 0.3\n")


def _bound_at(monkeypatch, where):
    """Make the covering bound at r = 0.3 of _GAPPED the point `where` of
    [0, 1] across the bracket [lower, upper]; returns the bracket."""
    import holocurve.cli as cli

    curve = normalize(cli.build_curve(parse_config(_GAPPED)))
    lower, upper = cli.intrinsic_min_distance(curve, 0.3)
    assert upper - lower > 1e-8
    monkeypatch.setattr(cli, "covering_bound", lambda *args: np.float64(
        lower + where * (upper - lower)))
    return lower, upper


def test_covering_inconclusive_bracket_is_a_numerical_failure(
        tmp_path, capsys, monkeypatch):
    # A bound inside [lower, upper] neither holds nor fails: exit 5.
    _bound_at(monkeypatch, 0.5)
    cfg = _write(tmp_path, "cov.cfg", _GAPPED)
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: covering bracket inconclusive "
                          "at r = 0.29999999999999999: lower = ")
    assert not (tmp_path / "covering.csv").exists()


@pytest.mark.parametrize("where,code,verdict", [
    (1.5, 1, "violated"), (0.0, 0, "consistent")])
def test_covering_verdict_follows_the_bracket(tmp_path, capsys, monkeypatch,
                                              where, code, verdict):
    lower, upper = _bound_at(monkeypatch, where)
    cfg = _write(tmp_path, "cov.cfg", _GAPPED)
    assert main(["covering", cfg, "--output", str(tmp_path)]) == code
    out = capsys.readouterr().out
    assert _stdout_value(out, "verdict") == verdict
    assert f"lower = {lower:.17g}, upper = {upper:.17g}" in out


def test_covering_overflowing_second_derivative_is_a_numerical_failure(
        tmp_path, capsys):
    # |phi''(0)| = 2e200 overflows its sum of squares; the infinite norm made
    # the bound 0, which read as "consistent" at a coarse resolution.
    cfg = _write(tmp_path, "cov.cfg",
                 "curve.kind = polynomial\ncurve.coeffs = 0,1,1e200\n"
                 "covering.radii = 0.3\ncovering.resolution = 4\n")
    with np.errstate(all="ignore"):
        assert main(["covering", cfg, "--output", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "|phi''(0)| of 'polynomial(n=1)' is inf" in err
    assert not (tmp_path / "covering.csv").exists()


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------

def test_verify_identities(tmp_path, capsys):
    cfg = _write(tmp_path, "id.cfg", "run.seed = 0\n")
    assert main(["verify-identities", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 6
    assert "FAIL" not in out
    assert _stdout_value(out, "verdict") == "ok"


def test_nan_identity_deviation_is_an_identity_failure(tmp_path, capsys,
                                                      monkeypatch):
    # A NaN deviation compares false with the worst so far, which used to
    # skip it and pass the record.
    import holocurve.oracle as oracle

    monkeypatch.setattr(oracle, "second_form_sq_lagrange",
                        lambda jet: np.full(np.shape(jet.q), np.nan))
    cfg = _write(tmp_path, "id.cfg", "")
    assert main(["verify-identities", cfg]) == 3
    out = capsys.readouterr().out
    assert "FAIL second_form_lagrange_vs_wronskian: worst_dev = nan" in out
    assert out.count("PASS ") == 5
    assert _stdout_value(out, "verdict") == "identity-failure"


# ---------------------------------------------------------------------------
# injectivity
# ---------------------------------------------------------------------------

def test_injectivity_identity_clean(tmp_path, capsys):
    cfg = _write(tmp_path, "inj.cfg",
                 "curve.kind = identity\ninjectivity.samples = 4000\n")
    assert main(["injectivity", cfg]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "collision") == "false"
    assert float(_stdout_value(out, "min_image_distance")) >= 0.05


def test_injectivity_z_squared_collision(tmp_path, capsys):
    cfg = _write(tmp_path, "injbad.cfg",
                 "curve.kind = z_squared\ninjectivity.samples = 4000\n"
                 "injectivity.symmetrize = true\ninjectivity.r_min = 0.3\n")
    assert main(["injectivity", cfg]) == 4
    out = capsys.readouterr().out
    assert _stdout_value(out, "collision") == "true"
    z1 = complex(*map(float, _stdout_value(out, "pair_z1").split()))
    z2 = complex(*map(float, _stdout_value(out, "pair_z2").split()))
    assert abs(z1 + z2) < 1e-12          # exact antipodal witness
    assert abs(z1 - z2) >= 0.05


def test_injectivity_seed_flag_matches_config(tmp_path, capsys):
    base = "curve.kind = identity\ninjectivity.samples = 3000\n"
    cfg_seeded = _write(tmp_path, "a.cfg", base + "run.seed = 9\n")
    cfg_plain = _write(tmp_path, "b.cfg", base)
    assert main(["injectivity", cfg_seeded]) == 0
    out_config = capsys.readouterr().out
    assert main(["injectivity", cfg_plain, "--seed", "9"]) == 0
    out_flag = capsys.readouterr().out
    assert out_config == out_flag
    assert main(["injectivity", cfg_plain, "--seed", "10"]) == 0
    out_other = capsys.readouterr().out
    assert (_stdout_value(out_other, "min_image_distance")
            != _stdout_value(out_flag, "min_image_distance"))


@pytest.mark.parametrize("samples", [1, 0, -5])
def test_injectivity_sample_count_below_two_is_a_config_error(tmp_path, capsys,
                                                              samples):
    cfg = _write(tmp_path, "few.cfg", f"injectivity.samples = {samples}\n")
    assert main(["injectivity", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and "at least 2" in err


@pytest.mark.parametrize("annulus", [
    "injectivity.r_max = 1.5", "injectivity.r_max = 1",
    "injectivity.r_max = nan", "injectivity.r_min = -0.1",
    "injectivity.r_min = 0.5\ninjectivity.r_max = 0.5",
])
def test_injectivity_bad_annulus_is_a_config_error(tmp_path, capsys,
                                                   annulus):
    cfg = _write(tmp_path, "ann.cfg", annulus + "\n")
    assert main(["injectivity", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and "r_min < r_max < 1" in err


def test_injectivity_without_admissible_pair_prints_no_witness(tmp_path,
                                                               capsys):
    # No pair was compared, so there is no verdict: this used to print
    # min_image_distance = inf and collision = false with exit 0.
    cfg = _write(tmp_path, "tiny.cfg",
                 "injectivity.samples = 3\ninjectivity.r_max = 0.001\n")
    assert main(["injectivity", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: no two of the n_samples = 3 samples are " \
        "min_sep = 0.05 apart\n"


# ---------------------------------------------------------------------------
# reproduce-example
# ---------------------------------------------------------------------------

def test_reproduce_example1(tmp_path, capsys):
    cfg = _write(tmp_path, "ex1.cfg",
                 "example.which = 1\ngrid.n_r = 60\ngrid.n_theta = 24\n")
    assert main(["reproduce-example", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "verdict") == "holds-with-equality"
    assert _stdout_value(out, "equality_everywhere") == "true"
    assert float(_stdout_value(out, "max_abs_margin")) < 1e-10
    table = (tmp_path / "example1_table.csv").read_text().splitlines()
    assert table[0] == "x,abs_schwarzian,curv_term,criterion_sum,bound"
    assert len(table) == 202
    # every tabulated row meets the bound with equality
    for line in table[1:]:
        _, _, _, s, b = map(float, line.split(","))
        assert abs(s - b) < 1e-10


def test_reproduce_example2(tmp_path, capsys):
    cfg = _write(tmp_path, "ex2.cfg",
                 "example.which = 2\ngrid.n_r = 40\ngrid.n_theta = 16\n"
                 "example.c_values = 0.05\n")
    assert main(["reproduce-example", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert _stdout_value(out, "verdict") == "holds-with-equality"
    assert float(_stdout_value(out, "min_reduced_slack")) > -1e-9
    assert re.search(r"c = 0\.05: A = 2\.5", out)
    assert (tmp_path / "example2_slack_hist.csv").exists()


@pytest.mark.parametrize("which", [1, 2])
def test_reproduce_example_evaluates_one_block_at_a_time(tmp_path, capsys,
                                                         monkeypatch, which):
    # With 64-point blocks, no call sees more than a block of the 801-point
    # grid, and stdout and the artifact are those of the default blocks.
    cfg = _write(tmp_path, "ex.cfg", f"example.which = {which}\n"
                 "grid.n_r = 50\ngrid.n_theta = 16\nexample.c_values = 0.05\n")
    runs = []
    for chunk in (jets._CHUNK, 64):
        monkeypatch.setattr(jets, "_CHUNK", chunk)
        sizes = []

        def spy(fn):
            def call(head, z, *rest):
                sizes.append(np.size(z))
                return fn(head, z, *rest)
            return call
        monkeypatch.setattr(criterion, "eval_curve",
                            spy(criterion.eval_curve))
        monkeypatch.setattr(cli, "example2_reduced_slack",
                            spy(cli.example2_reduced_slack))
        out_dir = tmp_path / str(chunk)
        assert main(["reproduce-example", cfg, "--output", str(out_dir)]) == 0
        out = capsys.readouterr().out.replace(str(out_dir), "<out>")
        runs.append((out, {p.name: p.read_bytes() for p in out_dir.iterdir()}))
        monkeypatch.undo()
    assert runs[0] == runs[1]
    assert sum(sizes) >= 801 and max(sizes) <= 64


@pytest.mark.parametrize("config,code,n", [
    ("curve.kind = example2\n", 0, 1001),
    ("curve.kind = z_squared\ninjectivity.symmetrize = true\n", 4, 1000)],
    ids=["example2", "z_squared"])
def test_injectivity_evaluates_one_block_at_a_time(tmp_path, capsys,
                                                   monkeypatch, config, code,
                                                   n):
    # With 64-point blocks, no call sees more than a block of the n samples
    # (1,001 drawn; symmetrizing keeps 1,000), and stdout is that of one
    # block.
    cfg = _write(tmp_path, "inj.cfg",
                 config + "injectivity.samples = 1001\n")
    outs = []
    for chunk in (jets._CHUNK, 64):
        monkeypatch.setattr(jets, "_CHUNK", chunk)
        sizes = []
        evaluate = oracle.eval_curve

        def spy(curve, z):
            sizes.append(np.size(z))
            return evaluate(curve, z)
        monkeypatch.setattr(oracle, "eval_curve", spy)
        assert main(["injectivity", cfg]) == code
        outs.append(capsys.readouterr().out)
        monkeypatch.undo()
    assert outs[0] == outs[1]
    assert sum(sizes) == n and len(sizes) == 16 and max(sizes) <= 64


_LAUNCH = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_peak_kb(argv):
    # A child's ru_maxrss starts from the high-water mark of the process it
    # was spawned from, so a small launcher spawns it rather than pytest.
    env = dict(os.environ)
    src = str(Path(criterion.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, peak_kb = map(int, out.split())
    assert code == 0
    return peak_kb


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_reproduce_example2_memory_does_not_grow_with_the_grid(tmp_path):
    # 1,024,001 grid points against 10,241: the slack is binned block by
    # block; whole-grid temporaries would add ~104 MB.
    peaks = []
    for n_r in (4000, 40):
        cfg = _write(tmp_path, f"ex2-{n_r}.cfg", "example.which = 2\n"
                     f"grid.n_r = {n_r}\ngrid.n_theta = 256\n")
        peaks.append(_child_peak_kb(
            [sys.executable, "-m", "holocurve", "reproduce-example", cfg,
             "--output", str(tmp_path / str(n_r))]))
    assert peaks[0] - peaks[1] < 24 * 1024, peaks


def _traced_peak(argv):
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command,config", [
    ("check-criterion",
     "curve.kind = example2\nnehari.kind = inverse_square\n"),
    ("reproduce-example", "example.which = 2\nexample.c_values = 0.05\n"),
], ids=["check-criterion", "reproduce-example-2"])
def test_traced_peak_does_not_grow_with_the_grid(tmp_path, capsys, command,
                                                 config):
    # 16,385 and 65,537 grid points: scan.csv and the slack histogram are
    # made block by block, so nothing held grows with the grid (whole-grid
    # scan.csv columns, 48 bytes a point, would add 2.3 MB at 64k).
    peaks = []
    for n_r in (8, 128, 512):           # the first run fills the caches
        cfg = _write(tmp_path, f"{n_r}.cfg",
                     config + f"grid.n_r = {n_r}\ngrid.n_theta = 128\n")
        code, peak = _traced_peak([command, cfg, "--output",
                                   str(tmp_path / str(n_r))])
        assert code == 0
        peaks.append(peak)
    capsys.readouterr()
    assert abs(peaks[2] - peaks[1]) < 0.5e6, peaks


def test_covering_traced_peak_does_not_grow_with_the_resolution(tmp_path,
                                                                capsys):
    # 128 node circles of 200, 2,000 and 2,400 angles: the lattice is
    # walked a block of whole circles at a time, so it is never held (16
    # bytes a point for z alone, 4.1 MB at 2,000).  200 and 2,000 angles
    # make the same 4,000-point blocks; at 2,400 a block is one smaller
    # circle.
    peaks = []
    for resolution in (20, 200, 2000, 2400):  # the first fills the caches
        cfg = _write(tmp_path, f"{resolution}.cfg",
                     "curve.kind = example2\nnehari.kind = inverse_square\n"
                     f"covering.resolution = {resolution}\n")
        code, peak = _traced_peak(["covering", cfg, "--output",
                                   str(tmp_path / str(resolution))])
        assert code == 0
        peaks.append(peak)
    capsys.readouterr()
    assert abs(peaks[2] - peaks[1]) < 0.3e6, peaks
    assert peaks[3] < peaks[1] + 0.3e6, peaks


def test_failed_scan_leaves_no_scan_csv(tmp_path, capsys, monkeypatch):
    # c = 1e152 overflows the margin first at grid point 129, in the ninth
    # 16-point block, after eight blocks of rows were staged.
    monkeypatch.setattr(jets, "_CHUNK", 16)
    blocks = []
    rows = _table._rows
    monkeypatch.setattr(_table, "_rows",
                        lambda columns: blocks.append(1) or rows(columns))
    cfg = _write(tmp_path, "late.cfg", "curve.kind = example1\n"
                 "curve.c = 1e152\ngrid.n_r = 20\ngrid.n_theta = 8\n")
    out_dir = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["check-criterion", cfg, "--output", str(out_dir)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numerical failure: criterion margin is -inf at point " \
        "129 (z = (0.8491500000000001+0j))\n"
    assert len(blocks) == 8
    assert list(out_dir.iterdir()) == []


def test_config_error_in_scan_leaves_no_output_directory(tmp_path, capsys):
    # scan rejects tol.equality before it stages a table, so the run makes
    # no directory at all.
    cfg = _write(tmp_path, "tol.cfg", "tol.equality = -1\n")
    out_dir = tmp_path / "fresh"
    assert main(["check-criterion", cfg, "--output", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: tol_eq = -1")
    assert not out_dir.exists()


def test_reproduce_example_bad_which(tmp_path, capsys):
    cfg = _write(tmp_path, "ex3.cfg", "example.which = 3\n")
    assert main(["reproduce-example", cfg]) == 2
    assert "example.which" in capsys.readouterr().err


@pytest.mark.parametrize("which,c", [(1, 3), (2, 5)])
def test_reproduce_example_bad_curve_c_is_a_config_error(tmp_path, capsys,
                                                         which, c):
    cfg = _write(tmp_path, "exc.cfg", f"example.which = {which}\n"
                 f"curve.c = {c}\n")
    assert main(["reproduce-example", cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and f"c = {c}" in err


@pytest.mark.parametrize("c_values", ["0.5", "0.01,0.5", "0", "x"])
def test_reproduce_example2_bad_c_values_is_a_config_error(tmp_path, capsys,
                                                           c_values):
    cfg = _write(tmp_path, "ex2.cfg",
                 f"example.which = 2\nexample.c_values = {c_values}\n"
                 "grid.n_r = 20\ngrid.n_theta = 8\n")
    assert main(["reproduce-example", cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err
    assert not (tmp_path / "example2_slack_hist.csv").exists()


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

def test_boundary_example1(tmp_path, capsys):
    cfg = _write(tmp_path, "bd.cfg",
                 "curve.kind = example1\nnehari.kind = constant\n"
                 "boundary.rays = 16\nboundary.s_points = 60\n"
                 "boundary.ring_samples = 1024\n")
    assert main(["boundary", cfg]) == 0
    out = capsys.readouterr().out
    assert float(_stdout_value(out, "worst_radial_convexity")) > -1e-6
    th1, th2 = map(float, _stdout_value(out, "ring_pair_theta").split())
    # the boundary identification glues +i to -i
    assert min(abs(th1 - np.pi / 2), abs(th1 - 3 * np.pi / 2)) < 0.05
    assert min(abs(th2 - np.pi / 2), abs(th2 - 3 * np.pi / 2)) < 0.05
    gap = float(_stdout_value(out, "ring_min_gap"))
    assert float(_stdout_value(out, "ring_real_axis_gap")) > 1e3 * gap


@pytest.mark.parametrize("line", [
    "boundary.rays = 0", "boundary.s_points = 0", "boundary.s_points = -3",
    "boundary.r_cap = 0", "boundary.r_cap = 1", "boundary.r_cap = nan",
    "boundary.ring_offset = 0", "boundary.ring_offset = -0.5",
    "boundary.ring_offset = 1", "boundary.ring_samples = 1",
])
def test_boundary_bad_config_is_a_config_error(tmp_path, capsys, line,
                                               monkeypatch):
    import holocurve.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(cli, "extremal_profile", no_work)
    cfg = _write(tmp_path, "bd.cfg", line + "\n")
    assert main(["boundary", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err


@pytest.mark.parametrize("curve", [
    "curve.kind = example1\ncurve.c = 1e300",
    "curve.kind = polynomial\ncurve.coeffs = 0,1,1e200",
    "curve.kind = example2\ncurve.scale = 1e300",
], ids=["example1-c1e300", "polynomial-1e200", "example2-scale1e300"])
def test_boundary_overflow_is_a_numerical_failure(tmp_path, capsys, curve):
    # These used to print worst_radial_convexity = nan and an infinite ring
    # gap with exit 0.
    cfg = _write(tmp_path, "b.cfg",
                 curve + "\nboundary.rays = 4\nboundary.s_points = 10\n"
                 "boundary.ring_samples = 64\n")
    with np.errstate(all="ignore"):
        assert main(["boundary", cfg]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "numerical failure: omega''" in err


def test_boundary_nan_weight_ratio_is_a_numerical_failure(tmp_path, capsys,
                                                         monkeypatch):
    # A NaN on the distortion annulus used to print
    # distortion_fit = infeasible with exit 0.
    import holocurve.criterion as criterion

    monkeypatch.setattr(criterion, "weight_ratio",
                        lambda curve, profile, z: np.full(len(z), np.nan))
    cfg = _write(tmp_path, "b.cfg",
                 "boundary.rays = 4\nboundary.s_points = 10\n"
                 "boundary.ring_samples = 64\n")
    assert main(["boundary", cfg]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "numerical failure: weight ratio is nan" in err


def test_boundary_few_s_points(tmp_path, capsys):
    # Three points used to leave a 5-point stencil nothing to work on.
    cfg = _write(tmp_path, "bd.cfg",
                 "curve.kind = example2\nnehari.kind = inverse_square\n"
                 "boundary.rays = 4\nboundary.s_points = 3\n"
                 "boundary.ring_samples = 64\n")
    assert main(["boundary", cfg]) == 0
    out = capsys.readouterr().out
    assert float(_stdout_value(out, "worst_radial_convexity")) > 0.0


@pytest.mark.parametrize("command", ["check-criterion", "covering",
                                     "boundary"])
def test_weight_gate_runs_before_the_curve(tmp_path, capsys, command):
    # The curve's vanished tangent (exit 5) used to hide the weight's
    # config error, which needs no computation.
    cfg = _write(tmp_path, "both.cfg",
                 "curve.scale = 1e-300\ncurve.normalize = true\n"
                 "nehari.kind = constant\nnehari.factor = 1700\n")
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "oscillates" in err


@pytest.mark.parametrize("line", ["profile.eps = 0.6",
                                  "boundary.r_cap = 0.3"])
def test_boundary_empty_distortion_annulus_is_infeasible(tmp_path, capsys,
                                                         line):
    # The first used to exit 5 ("profile evaluated outside [0, 0.4]"), the
    # second to fit the minorant on the inverted annulus (0.3, 0.5].
    cfg = _write(tmp_path, "bd.cfg",
                 "curve.kind = example2\nnehari.kind = inverse_square\n"
                 f"{line}\nboundary.rays = 4\nboundary.s_points = 8\n"
                 "boundary.ring_samples = 64\n")
    assert main(["boundary", cfg]) == 0
    out = capsys.readouterr().out
    assert "distortion_fit = infeasible" in out.splitlines()
    assert "distortion_a" not in out


def _table_config(values):
    return ("nehari.kind = tabulated\nnehari.table_x = 0,0.3,0.6,0.9\n"
            f"nehari.table_p = {values}\ncovering.radii = 0.3\n"
            "covering.resolution = 20\n")


def test_covering_decreasing_weight_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "cov.cfg", _table_config("2,1.5,1.2,1.0"))
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "nondecreasing weight" in err
    assert not (tmp_path / "covering.csv").exists()


def test_covering_accepts_a_nondecreasing_table(tmp_path, capsys):
    # The old not-a-knot spline of this table had slope -0.139 at 0, so
    # covering exited 2: "covering bound requires a nondecreasing weight".
    cfg = _write(tmp_path, "cov.cfg", _table_config("2.4,2.4,2.45,2.5"))
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 0
    assert _stdout_value(capsys.readouterr().out, "verdict") == "consistent"


@pytest.mark.parametrize("command,x,values,message", [
    # A dip to -5 at 0.3004 that every sample grid stepped over: the scan
    # said "holds" with min_margin 4.8.
    ("check-criterion", "0,0.3,0.3004,0.3008,0.9", "2.4,2.4,-5,2.45,2.5",
     "weight is not strictly positive; (1-x^2)^2 p(x) increases somewhere "
     "in |x|"),
    # (1-x^2)^2 p rises by about 0.33 on [0.3, 0.3004].
    ("check-criterion", "0,0.3,0.3004,0.3008,0.9", "2.4,2.4,2.8,2.4,2.5",
     "(1-x^2)^2 p(x) increases somewhere in |x|"),
    # p decreases on [0.5, 0.5004]; its rise on the next piece also lifts
    # the kernel, which is decided first.
    ("covering", "0,0.5,0.5004,0.5008,0.9", "2.4,2.45,2.41,2.46,2.5",
     "(1-x^2)^2 p(x) increases somewhere in |x|"),
    # The same narrow decrease with an admissible kernel.
    ("covering", "0,0.5,0.5004,0.5008,0.9", "2.4,2.45,2.449,2.45,2.5",
     "covering bound requires a nondecreasing weight"),
], ids=["dip", "kernel-bump", "decrease-and-bump", "decrease"])
def test_narrow_table_pieces_are_judged_exactly(tmp_path, capsys, command,
                                                x, values, message):
    # Each of these exited 0 when admissibility was sampled.
    cfg = _write(tmp_path, "t.cfg", "nehari.kind = tabulated\n"
                 f"nehari.table_x = {x}\nnehari.table_p = {values}\n"
                 "grid.n_r = 20\ngrid.n_theta = 8\ncovering.radii = 0.3\n"
                 "covering.resolution = 20\n")
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", ["0.1,0.1,0.1,4", "1,1,1,4"])
def test_steep_table_fails_only_the_kernel_gate(tmp_path, capsys, values):
    # Each Hermite piece stays between its node values, so the first table
    # is positive now (its spline dipped below 0); but (1-x^2)^2 p still
    # rises on the last interval of both.
    cfg = _write(tmp_path, "cov.cfg", _table_config(values))
    assert main(["covering", cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: (1-x^2)^2 p(x) increases somewhere in "
                   "|x|\n")


@pytest.mark.parametrize("command,line", [
    ("boundary", "profile.samples = 0"), ("covering", "profile.samples = 0"),
    ("boundary", "profile.samples = 1"),
    ("extremal-profile", "profile.eps = 0"),
    ("extremal-profile", "profile.eps = -0.5"),
    ("extremal-profile", "profile.eps = 1.5"),
    ("extremal-profile", "profile.eps = nan"),
    ("covering", "profile.eps = 0.5"),      # radius 0.6 past x = 0.5
])
def test_out_of_range_profile_is_a_config_error(tmp_path, capsys, command,
                                                line):
    # These used to die with an IndexError (exit 1), exit 5, or, with one
    # sample, collapse r_cap to 0 and print a wrong convexity with exit 0.
    cfg = _write(tmp_path, "p.cfg",
                 line + "\nboundary.rays = 2\nboundary.s_points = 3\n"
                 "boundary.ring_samples = 64\ncovering.resolution = 20\n")
    assert main([command, cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error: " in err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("normalize", ["false", "true"])
def test_vanishing_tangent_exit_code_ignores_normalize(tmp_path, capsys,
                                                       normalize):
    # normalize used to run inside the curve builder's ValueError wrapper,
    # which turned the same vanished tangent into exit 2.
    cfg = _write(tmp_path, "c.cfg",
                 f"curve.scale = 1e-150\ncurve.normalize = {normalize}\n"
                 "grid.n_r = 2\ngrid.n_theta = 4\n")
    assert main(["check-criterion", cfg, "--output", str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "vanished" in err


@pytest.mark.parametrize("exc,message", [
    *(pytest.param(cls("boom"), "boom", id=cls.__name__)
      for cls in (ValueError, FloatingPointError, ZeroDivisionError,
                  OverflowError, IndexError, TypeError)),
    pytest.param(MemoryError(), "MemoryError", id="MemoryError"),
])
def test_escaping_errors_are_numerical_failures(tmp_path, capsys, exc,
                                                message, monkeypatch):
    import holocurve.cli as cli

    def fail(cfg):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "boundary", fail)
    cfg = _write(tmp_path, "bd.cfg", "")
    assert main(["boundary", cfg]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err == f"numerical failure: {message}\n"


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

_ARTIFACT_RUNS = [
    ("check-criterion", "curve.kind = example2\nnehari.kind = inverse_square\n"
     "grid.n_r = 50\ngrid.n_theta = 24\n", "scan.csv"),
    ("extremal-profile", "nehari.kind = inverse_square\n"
     "profile.samples = 129\n", "profile.csv"),
    ("covering", "curve.kind = example1\ncovering.radii = 0.3,0.6\n"
     "covering.resolution = 60\n", "covering.csv"),
    ("reproduce-example", "example.which = 1\ngrid.n_r = 20\n"
     "grid.n_theta = 8\n", "example1_table.csv"),
    ("reproduce-example", "example.which = 2\ngrid.n_r = 20\n"
     "grid.n_theta = 8\nexample.c_values = 0.05\n",
     "example2_slack_hist.csv"),
]


@pytest.mark.parametrize("command,config,artifact", _ARTIFACT_RUNS,
                         ids=[run[2] for run in _ARTIFACT_RUNS])
def test_byte_identical_reruns(tmp_path, capsys, command, config, artifact):
    cfg = _write(tmp_path, "det.cfg", config)
    out_dir = tmp_path / "out"

    def run_once():
        assert main([command, cfg, "--output", str(out_dir)]) == 0
        return capsys.readouterr().out, (out_dir / artifact).read_bytes()

    ref_out, ref_csv = run_once()
    again_out, again_csv = run_once()
    assert again_out == ref_out
    assert again_csv == ref_csv


@pytest.mark.parametrize("command", ["check-criterion", "injectivity"])
def test_overflowing_curve_is_a_numerical_failure(tmp_path, capsys, command,
                                                 monkeypatch):
    # c = 1e300 overflows Q = |f'|^2, so the margin is NaN, and the image
    # spans ~1e301, so squared image distances overflow in the pair search.
    # 16-point blocks split the 161-point grid into 11 and change nothing.
    cfg = _write(tmp_path, "huge.cfg",
                 "curve.kind = example1\ncurve.c = 1e300\ngrid.n_r = 20\n"
                 "grid.n_theta = 8\ninjectivity.samples = 2000\n")
    errs = []
    for chunk in (jets._CHUNK, 16):
        monkeypatch.setattr(jets, "_CHUNK", chunk)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, cfg, "--output", str(tmp_path)]) == 5
        out, err = capsys.readouterr()
        assert "numerical failure" in err
        assert out == ""
        assert not (tmp_path / "scan.csv").exists()
        errs.append(err)
    assert errs[0] == errs[1]
    if command == "check-criterion":
        assert errs[0] == "numerical failure: criterion margin is nan at " \
            "point 0 (z = 0j)\n"


@pytest.mark.parametrize("command,line", [
    ("check-criterion", "curve.kind = example1"),
    ("injectivity", "curve.kind = example1"),
    ("reproduce-example", "example.which = 1"),
])
def test_infinite_example1_c_is_a_config_error(tmp_path, capsys, command,
                                               line):
    # c = inf used to pass the threshold check and exit 5 on a NaN margin
    # or an infinite image extent.
    cfg = _write(tmp_path, "inf.cfg", line + "\ncurve.c = inf\n"
                 "grid.n_r = 20\ngrid.n_theta = 8\ninjectivity.samples = 500\n")
    assert main([command, cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "c = inf" in err
    assert [p.name for p in tmp_path.iterdir()] == ["inf.cfg"]


@pytest.mark.parametrize("lines", [
    "curve.scale = inf", "curve.scale = nan",
    "curve.kind = tan_truncation\ncurve.stretch = inf",
    "curve.kind = tan_truncation\ncurve.stretch = nan",
    "curve.kind = radial_pair\ncurve.k = inf",
    "curve.kind = radial_pair\ncurve.k = nan",
    "curve.mobius_theta = inf",
    "curve.kind = polynomial\ncurve.coeffs = 0,1,nan",
], ids=["scale-inf", "scale-nan", "stretch-inf", "stretch-nan", "k-inf",
        "k-nan", "mobius_theta-inf", "coeffs-nan"])
def test_non_finite_curve_parameter_is_a_config_error(tmp_path, capsys,
                                                      lines):
    # Each used to pass its curve builder and exit 5 on a NaN margin.
    cfg = _write(tmp_path, "bad.cfg", lines + "\ngrid.n_r = 10\n")
    with np.errstate(all="ignore"):
        code = main(["check-criterion", cfg, "--output", str(tmp_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize("command,lines", [
    ("check-criterion", "curve.kind = example2\nnehari.kind = inverse_square"
     "\ntol.equality = -1"),
    ("check-criterion", "curve.kind = tan_truncation\ntol.equality = inf"),
    ("check-criterion", "curve.kind = example1\ncurve.c = nan"),
    ("check-criterion", "curve.kind = example2\ncurve.c = nan"),
    ("reproduce-example", "example.which = 1\ncurve.c = nan"),
    ("check-criterion", "curve.kind = tan_truncation\ncurve.degree = 0"),
    ("injectivity", "injectivity.min_sep = nan"),
    ("injectivity", "injectivity.min_sep = inf"),
    ("injectivity", "injectivity.min_sep = 5"),
    ("extremal-profile", "nehari.kind = tabulated\n"
     "nehari.table_x = 0,0.3,0.6,0.9\nnehari.table_p = 2,nan,2,2"),
    ("check-criterion", "grid.refine = -1"),
], ids=["tol-negative", "tol-inf", "example1-c-nan", "example2-c-nan",
        "reproduce1-c-nan", "degree-0", "min_sep-nan", "min_sep-inf",
        "min_sep-5",
        "table-p-nan", "refine-negative"])
def test_rejected_value_is_a_config_error(tmp_path, capsys, command, lines):
    # All but the table used to print a verdict on unsupported inputs
    # (exit 0 or 1) or die with a traceback (exit 1).
    cfg = _write(tmp_path, "bad.cfg", lines + "\ngrid.n_r = 20\n"
                 "grid.n_theta = 8\ninjectivity.samples = 500\n")
    assert main([command, cfg, "--output", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_all_floats_use_17_significant_digits(tmp_path, capsys):
    cfg = _write(tmp_path, "fmt.cfg",
                 "curve.kind = example1\ngrid.n_r = 30\ngrid.n_theta = 8\n")
    assert main(["check-criterion", cfg, "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    tol = _stdout_value(out, "tol_eq")
    assert tol == f"{1e-6 * np.pi ** 2 / 2.0:.17g}"


def test_readme_config_table_lists_exactly_the_schema_keys():
    from pathlib import Path

    from holocurve.cli import _SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(re.findall(r"`([a-z_]+\.[a-z_]+)`", row.split("|")[1]))
    assert keys == set(_SCHEMA)

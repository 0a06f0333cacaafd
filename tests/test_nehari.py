"""Weight admissibility, zero counting, extremality margins, and the
extremal profile ODE system against closed forms.

Closed forms used below (all hand-derivable from u'' +- p u = 0):
  constant p0 = pi^2/4:  u0 = cos(pi x/2), Phi = (2/pi) tan(pi x/2),
      U = cosh(pi x/2), Psi = (2/pi) tanh(pi x/2),
      A(r) = (pi^2/4) tan^2(pi r/2) + pi tan(pi r/2)/(2 r)
  inverse square p = (1-x^2)^{-2}:  u0 = sqrt(1-x^2), Phi = artanh x,
      U = sqrt(1-x^2) cosh(sqrt(2) artanh x),
      Psi = tanh(sqrt(2) artanh x)/sqrt(2),  A(r) = p(r)
  half strip p = 2/(1-x^2):  u0 = 1 - x^2,
      Phi = x/(2(1-x^2)) + (1/4) log((1+x)/(1-x)),
      A(r) - p(r) = 4 r^2/(1-r^2)^2
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holocurve
from _reference import hille_curve, mobius_weight_check
from holocurve.errors import NumericalError
from holocurve.jets import DiskMobius, ExponentialComponent, HoloCurve
from holocurve.nehari import (NehariFunction, completeness_probe,
                              disconjugacy_count, extremal_profile,
                              extremality_margin, validate_nehari,
                              write_profile_csv)

XS = np.array([0.05, 0.2, 0.45, 0.7, 0.9, 0.975])


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_builtin_weights_are_admissible():
    for p in (NehariFunction.constant(), NehariFunction.inverse_square(),
              NehariFunction.half_strip()):
        v = validate_nehari(p)
        assert v.ok, v.messages
        assert v.zero_count == 0


def test_oscillating_weight_rejected():
    v = validate_nehari(NehariFunction.constant(1.05))
    assert not v.disconjugate
    assert v.zero_count >= 1
    assert not v.ok


def test_increasing_kernel_rejected():
    xs = np.linspace(0.0, 0.98, 60)
    p_vals = 0.5 / (1 - xs ** 2) ** 2 * (1 + xs ** 2)   # kernel grows
    v = validate_nehari(NehariFunction.tabulated(xs, p_vals))
    assert not v.kernel_nonincreasing
    assert not v.ok


def test_odd_and_negative_callables_rejected():
    # Every weight is a NehariFunction, evaluated on |x|: even bit for bit.
    xs = np.linspace(-0.999, 0.999, 201)
    tab = NehariFunction.tabulated(np.linspace(0.0, 0.9, 10),
                                   1.0 + np.linspace(0.0, 0.9, 10))
    for p in (NehariFunction.constant(), NehariFunction.inverse_square(0.8),
              NehariFunction.half_strip(1.3), tab):
        assert np.array_equal(p(-xs), p(xs))
    v = validate_nehari(NehariFunction.tabulated(np.linspace(0.0, 0.9, 10),
                                                 -np.ones(10)))
    assert not v.positive


def _scipy_modules_after(code: str, *args: str) -> set[str]:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    src = str(Path(holocurve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code += ("\nprint(' '.join(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


@pytest.mark.parametrize("module", ["holocurve", "holocurve.cli"])
def test_import_leaves_scipy_unloaded(module):
    # Each scipy module is imported at the first call that needs it.
    assert _scipy_modules_after(f"import sys, {module}") == set()


_RUN_MAIN = """
import contextlib, io, sys
from pathlib import Path
from holocurve.cli import main
out = Path(sys.argv[1])
for i, (command, text) in enumerate(RUNS):
    (out / f"{i}.cfg").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(out / f"{i}.cfg"), "--output", str(out)])
    assert code == 0, (command, code)
"""

_GRID = "grid.n_r = 20\ngrid.n_theta = 8\n"


def _scipy_modules_after_main(runs, tmp_path) -> set[str]:
    """The scipy modules loaded once cli.main has run each (command, config
    text) of `runs` in a fresh interpreter; every run must exit 0."""
    return _scipy_modules_after(f"RUNS = {runs!r}" + _RUN_MAIN, str(tmp_path))


def test_jet_algebra_subcommands_load_no_scipy(tmp_path):
    runs = [("check-criterion", _GRID),
            ("reproduce-example", "example.which = 1\n" + _GRID),
            ("reproduce-example", "example.which = 2\n" + _GRID),
            ("verify-identities", "")]
    assert _scipy_modules_after_main(runs, tmp_path) == set()


def test_injectivity_loads_neither_integrate_nor_optimize(tmp_path):
    # The pair search is a numpy sweep: not even scipy.spatial loads.
    runs = [("injectivity", "injectivity.samples = 500\n")]
    assert _scipy_modules_after_main(runs, tmp_path) == set()


def test_ode_subcommands_load_neither_integrate_nor_optimize(tmp_path):
    # The profile and phase ODEs run on holocurve's own Runge-Kutta solver,
    # and the covering bracket is numpy quadrature: no scipy module loads.
    runs = [("extremal-profile", "profile.samples = 17\n"),
            ("boundary", "curve.kind = example2\n"
             "nehari.kind = inverse_square\nboundary.rays = 2\n"
             "boundary.s_points = 3\nboundary.ring_samples = 64\n"),
            ("covering", "covering.radii = 0.3\ncovering.resolution = 20\n")]
    assert _scipy_modules_after_main(runs, tmp_path) == set()


# Nondecreasing and admissible; the old not-a-knot spline had slope -0.139
# at 0, so p(|x|) had a kink there and covering rejected the table.
_RISING_TABLE = ("nehari.kind = tabulated\nnehari.table_x = 0,0.3,0.6,0.9\n"
                 "nehari.table_p = 2.4,2.4,2.45,2.5\n")


def test_tabulated_runs_load_no_scipy(tmp_path):
    # A table is interpolated by numpy Hermite cubics: scipy.interpolate,
    # once loaded by every tabulated run, stays unloaded too.
    runs = [("extremal-profile", _RISING_TABLE + "profile.samples = 17\n"),
            ("check-criterion", _RISING_TABLE + _GRID),
            ("boundary", _RISING_TABLE + "curve.kind = example2\n"
             "boundary.rays = 2\nboundary.s_points = 3\n"
             "boundary.ring_samples = 64\n")]
    assert _scipy_modules_after_main(runs, tmp_path) == set()


def _random_tables(shape, count=40):
    """Tables of 4 to 12 nodes on [0, 0.9) of the given shape."""
    rng = np.random.default_rng(["rising", "falling", "any",
                                 "plateaus"].index(shape))
    for _ in range(count):
        n = int(rng.integers(4, 13))
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.02, 0.08, n - 1))])
        p = (rng.integers(1, 4, n).astype(float) if shape == "plateaus"
             else rng.uniform(0.1, 5.0, n))
        yield x, {"rising": np.sort(p), "falling": np.sort(p)[::-1]}.get(
            shape, p)


@pytest.mark.parametrize("shape", ["rising", "falling", "any", "plateaus"])
def test_table_interpolant_is_monotone_hermite(shape):
    from scipy.interpolate import PchipInterpolator   # reference only
    for x, p in _random_tables(shape):
        w = NehariFunction.tabulated(x, p)
        tol = 1e-15 * np.max(np.abs(p))
        assert np.array_equal(w(x), p)
        # slope 0 at x = 0: the even extension is C^1 across the axis
        h = 1e-9
        assert abs(w(h) - w(0.0)) / h < 1e-4
        ref = PchipInterpolator(x, p)
        for i in range(x.size - 1):
            t = np.linspace(x[i], x[i + 1], 101)
            v = w(t)
            # each piece stays between its end values
            assert np.all(v >= min(p[i], p[i + 1]) - tol)
            assert np.all(v <= max(p[i], p[i + 1]) + tol)
            if i > 0:    # the same slopes as pchip away from x = 0
                assert np.max(np.abs(v - ref(t))) <= tol
        # clamped beyond the last node
        assert np.array_equal(w(np.linspace(x[-1], 0.999, 7)),
                              np.full(7, w(x[-1])))


def test_tabulated_input_validation():
    xs = np.linspace(0.0, 0.9, 10)
    ps = np.ones_like(xs)
    with pytest.raises(ValueError):
        NehariFunction.tabulated(xs + 0.01, ps)          # x[0] != 0
    with pytest.raises(ValueError):
        NehariFunction.tabulated(xs[::-1], ps)           # not increasing
    with pytest.raises(ValueError):
        NehariFunction.tabulated(np.append(xs, 1.0), np.append(ps, 1.0))
    with pytest.raises(ValueError):
        NehariFunction.tabulated(xs[:3], ps[:3])         # too few nodes


def test_kernel_matches_weight_for_all_kinds():
    ts = np.linspace(0.0, 6.0, 30)
    xs = np.tanh(ts)
    tab = NehariFunction.tabulated(np.linspace(0, 0.999, 80),
                                   np.pi ** 2 / 4 * np.ones(80))
    for p in (NehariFunction.constant(), NehariFunction.inverse_square(0.8),
              NehariFunction.half_strip(1.3), tab):
        want = (1 - xs ** 2) ** 2 * np.asarray(p(xs), float)
        got = np.asarray(p.kernel(ts), float)
        assert np.max(np.abs(got - want)) < 1e-10


def test_scaled_weight():
    p = NehariFunction.inverse_square().scaled(0.5)
    assert abs(p(0.0) - 0.5) < 1e-15
    assert p.factor == 0.5


# ---------------------------------------------------------------------------
# zero counting and extremality
# ---------------------------------------------------------------------------

def test_disconjugacy_counts():
    assert disconjugacy_count(NehariFunction.constant()) == 0
    assert disconjugacy_count(NehariFunction.inverse_square()) == 0
    assert disconjugacy_count(NehariFunction.half_strip()) == 0
    assert disconjugacy_count(NehariFunction.constant(1.05)) >= 1
    # k^2-scaled constant weight: the solution vanishing at the left
    # endpoint is ~ sin(k pi (x+1)/2) with k-1 interior zeros; its
    # right-endpoint zero migrates just inside for the principal solution
    # of the truncated window and may or may not be resolved, hence the +1
    for k, interior in ((4.0, 1), (9.0, 2), (100.0, 9)):
        n = disconjugacy_count(NehariFunction.constant(k))
        assert interior <= n <= interior + 1, (k, n)


def test_extremality_margins():
    # the window |t| <= 120 resolves the critical scale to ~ (pi/240)^2
    assert abs(extremality_margin(NehariFunction.constant()) - 1.0) < 5e-4
    assert abs(extremality_margin(NehariFunction.inverse_square()) - 1.0) < 5e-4
    assert abs(extremality_margin(NehariFunction.half_strip()) - 1.0) < 5e-4
    assert abs(extremality_margin(NehariFunction.constant(0.5)) - 2.0) < 1e-3
    assert abs(extremality_margin(NehariFunction.inverse_square(0.5)) - 2.0) < 1e-3


# A table of the constant weight: the interpolant of constant data is constant
# and clamped beyond its last node, so it is pi^2/4 on all of (-1, 1), but a
# table's margin is bisected, never read off its factor.
def _constant_table(factor=1.0):
    return NehariFunction.tabulated(np.linspace(0.0, 0.9, 10),
                                    np.full(10, np.pi ** 2 / 4), factor)


def _count_solves(monkeypatch):
    import holocurve.nehari as nehari

    ends, original = [], nehari.solve_ivp

    def solve(*args, **kwargs):
        sol = original(*args, **kwargs)
        ends.append(sol.t[-1])
        return sol

    monkeypatch.setattr(nehari, "solve_ivp", solve)
    return ends


def _bisected_margin(p):
    """The largest k with disconjugacy_count(k p) == 0, bisected to 1e-4 in
    a doubling bracket from [1, 4]: the search extremality_margin ran on
    every kind before closed kinds had their exact margin."""
    def disconjugate(k):
        return disconjugacy_count(p.scaled(k)) == 0

    lo, hi = 1.0, 4.0
    while disconjugate(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if disconjugate(mid) else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind,factor,bits", [
    ("constant", 1.0, "0x1.0003000000000p+0"),
    ("constant", 0.5, "0x1.ffff000000000p+0"),
    ("inverse_square", 1.0, "0x1.0009000000000p+0"),
    ("inverse_square", 0.5, "0x1.000b800000000p+1"),
    ("half_strip", 1.0, "0x1.0003000000000p+0"),
    ("half_strip", 0.5, "0x1.ffff000000000p+0"),
])
def test_extremality_margin_bits(kind, factor, bits):
    # The margin is exactly 1/factor.  The zero count, bisected, still
    # gives the bits the margin had: a midpoint within the step 1e-4, plus
    # the window's resolution (pi/240)^2 of the critical scale, of 1/factor.
    p = NehariFunction(kind, factor)
    assert extremality_margin(p) == 1.0 / factor
    assert _bisected_margin(p) == float.fromhex(bits)
    assert abs(float.fromhex(bits) - 1.0 / factor) \
        <= (np.pi / 240.0) ** 2 / factor + 1e-4


@pytest.mark.parametrize("kind", ["constant", "inverse_square",
                                  "half_strip"])
@pytest.mark.parametrize("factor", [1.0, 0.9, 0.5, 0.05, 1e-7, 1e-300])
def test_closed_margin_is_exact_without_a_solve(kind, factor, monkeypatch):
    # At factor 1 each closed kind's u0 vanishes at +-1, so its margin is
    # 1/factor.  Admitting the weight and reading its margin solve nothing.
    solves = _count_solves(monkeypatch)
    p = NehariFunction(kind, factor)
    assert validate_nehari(p).ok
    assert extremality_margin(p) == 1.0 / factor
    assert solves == []


def test_tabulated_margin_bits():
    # The bisection's lower end, the largest k known to be disconjugate:
    # every midpoint tried, down to 1 + 3/2^15, oscillates, so it stays 1.
    assert extremality_margin(_constant_table()) \
        == float.fromhex("0x1.0000000000000p+0")


@pytest.mark.parametrize("factor,margin", [(1.0, 1.022705078125),
                                           (0.5, 2.045440673828125)])
def test_rising_table_margin_bits(factor, margin):
    # Each oscillating solve ends at the first step end past its zero; the
    # count reads as it would at the zero, so every bisection step, and the
    # margin's bits, are those of a solve stopped on the zero.
    p = NehariFunction.tabulated([0.0, 0.3, 0.6, 0.9],
                                 [2.4, 2.4, 2.45, 2.5], factor)
    assert extremality_margin(p) == margin


@pytest.mark.parametrize("factor,count", [(1.05, 1), (100.0, 10),
                                          (1e150, 64)])
def test_constant_zero_counts_are_pinned(factor, count):
    from holocurve.nehari import _phase_zeros

    p = NehariFunction.constant(factor)
    assert disconjugacy_count(p) == count
    # The phase solve alone, without Sturm's shortcut at 1e150: it stops
    # past theta = 64 pi and the count is clamped there.
    assert _phase_zeros(p, 64) == count


def test_oscillating_margin_solve_stops_at_its_first_zero(monkeypatch):
    ends = _count_solves(monkeypatch)
    extremality_margin(_constant_table())
    # k = 1 is disconjugate and runs to the window's end; the bracket end
    # k = 4 and every midpoint above the margin 1.00005 oscillate, and each
    # of their solves ends at the first zero, far inside |t| <= 120.
    assert ends[0] == 120.0
    assert len(ends) == 17 and max(ends[1:]) < 10.0


def test_undecided_table_count_is_a_numerical_failure(monkeypatch,
                                                      tmp_path, capsys):
    # A table whose zero count moves between rtol 1e-10 and 1e-12 is
    # neither admitted nor rejected: exit 5, naming both counts.
    import holocurve.nehari as nehari
    from holocurve.cli import main

    monkeypatch.setattr(nehari, "_phase_zeros",
                        lambda p, max_zeros, rtol: int(rtol < 1e-11))
    with pytest.raises(NumericalError, match="0 at rtol 1e-10, 1 at 1e-12"):
        validate_nehari(_constant_table(0.9))
    cfg = tmp_path / "tab.cfg"
    cfg.write_text("nehari.kind = tabulated\nnehari.table_x = 0,0.3,0.6,0.9\n"
                   "nehari.table_p = 2,2,2,2\ngrid.n_r = 4\n")
    assert main(["check-criterion", str(cfg), "--output",
                 str(tmp_path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "zero count of tabulated(factor=1) is undecided" \
        in err
    assert not (tmp_path / "scan.csv").exists()


def test_decided_table_count_agrees_at_both_tolerances():
    for p in (_constant_table(0.9), _constant_table(1.2)):
        counts = {disconjugacy_count(p, rtol) for rtol in (1e-10, 1e-12)}
        assert counts == {validate_nehari(p).zero_count}


def test_extremality_margin_guards():
    for p in (NehariFunction.constant(1.2), _constant_table(1.2)):
        with pytest.raises(ValueError):   # already oscillates
            extremality_margin(p)
    # margins above the first bracket [1, 4]: the bracket doubles
    m = extremality_margin(_constant_table(0.25))
    assert abs(m - 4.0) < 2e-3
    assert extremality_margin(_constant_table(0.05)) == 20.0
    with pytest.raises(NumericalError):   # margin 1e7 > 2^20
        extremality_margin(_constant_table(1e-7))
    with pytest.raises(NumericalError):   # 1/factor overflows
        extremality_margin(NehariFunction.constant(1e-310))


@pytest.mark.parametrize("kind", ["constant", "inverse_square",
                                  "half_strip"])
@pytest.mark.parametrize("factor", [0.25, 0.5, 0.9, 1.1, 2.0, 4.0])
def test_exact_rule_agrees_with_the_zero_count(kind, factor):
    # The phase count is the independent oracle of the rule factor <= 1.
    p = NehariFunction(kind, factor)
    assert (disconjugacy_count(p) == 0) == (factor <= 1.0)
    assert validate_nehari(p).disconjugate == (factor <= 1.0)


def test_factor_just_above_one_is_rejected_with_a_zero():
    # The window |t| <= 120 holds no zero of inverse_square at 1.00016, and
    # validate_nehari used to admit it; the count it reports is at least 1.
    p = NehariFunction.inverse_square(1.00016)
    assert disconjugacy_count(p) == 0
    v = validate_nehari(p)
    assert not v.ok and v.zero_count == 1
    assert v.messages == ("u'' + p u = 0 oscillates (1 interior zero(s))",)


def test_hille_weight_is_rejected():
    # Hille's exp(2i artanh z) meets the criterion of inverse_square at
    # factor 2 with equality, yet is not injective: it takes the same value
    # at x = 0 and x = tanh(pi).  Its weight is not disconjugate.
    curve, p = hille_curve(1.0), NehariFunction.inverse_square(2.0)
    report = holocurve.scan(curve, p, holocurve.GridSpec(n_r=20, n_theta=8))
    assert report.verdict == "holds-with-equality"
    ends = holocurve.eval_curve(curve, np.tanh([0.0, np.pi])).val[0]
    assert abs(ends[0] - ends[1]) < 1e-12
    assert not validate_nehari(p).ok


def test_exponential_weight_is_rejected():
    # e^{az}, a = 1.05 pi, has |S| = a^2/2 = 2 p for the constant weight at
    # factor 1.05^2, and takes the same value at +-i pi/a in the disk.
    a = 1.05 * np.pi
    curve = HoloCurve((ExponentialComponent(1.0, a),))
    p = NehariFunction.constant(1.1025)
    report = holocurve.scan(curve, p, holocurve.GridSpec(n_r=20, n_theta=8))
    assert report.verdict != "fails"
    vals = holocurve.eval_curve(curve, np.array([1j, -1j]) * np.pi / a).val
    assert abs(vals[0, 0] - vals[0, 1]) < 1e-12
    assert not validate_nehari(p).ok


# ---------------------------------------------------------------------------
# extremal profiles vs closed forms
# ---------------------------------------------------------------------------

def test_constant_profile_closed_forms(profile_constant):
    pr = profile_constant
    assert np.max(np.abs(pr.u0(XS) - np.cos(np.pi * XS / 2))) < 1e-10
    assert np.max(np.abs(pr.Phi(XS) - 2 / np.pi * np.tan(np.pi * XS / 2))) < 1e-9
    assert np.max(np.abs(pr.U(XS) - np.cosh(np.pi * XS / 2))) < 1e-10
    assert np.max(np.abs(pr.Psi(XS) - 2 / np.pi * np.tanh(np.pi * XS / 2))) < 1e-10
    a_closed = (np.pi ** 2 / 4 * np.tan(np.pi * XS / 2) ** 2
                + np.pi * np.tan(np.pi * XS / 2) / (2 * XS))
    assert np.max(np.abs(pr.A(XS) - a_closed) / a_closed) < 1e-9
    # limit value (2/pi) tanh(pi/2) = 0.58387731..., minus the analytic
    # tail integral over the last eps = 1e-6 of the domain
    x_end = pr.xs[-1]
    assert abs(pr.Psi(x_end) - 2 / np.pi * np.tanh(np.pi * x_end / 2)) < 1e-10


def test_inverse_square_profile_closed_forms(profile_inverse_square):
    pr = profile_inverse_square
    at = np.arctanh(XS)
    assert np.max(np.abs(pr.u0(XS) - np.sqrt(1 - XS ** 2))) < 1e-10
    assert np.max(np.abs(pr.Phi(XS) - at)) < 1e-10
    assert np.max(np.abs(pr.U(XS) - np.sqrt(1 - XS ** 2) * np.cosh(np.sqrt(2) * at))) < 1e-9
    assert np.max(np.abs(pr.Psi(XS) - np.tanh(np.sqrt(2) * at) / np.sqrt(2))) < 1e-10
    p_vals = 1.0 / (1 - XS ** 2) ** 2
    assert np.max(np.abs(pr.A(XS) - p_vals) / p_vals) < 1e-9
    assert abs(pr.Psi(1 - 1e-6) - 1 / np.sqrt(2)) < 1e-7
    # the associated radial metric has constant curvature -4
    k = -2.0 * (pr.A(XS) + pr.p(XS)) / pr.PhiP(XS) ** 2
    assert np.max(np.abs(k + 4.0)) < 1e-8


def test_half_strip_profile_closed_forms(profile_half_strip):
    pr = profile_half_strip
    assert np.max(np.abs(pr.u0(XS) - (1 - XS ** 2))) < 1e-10
    phi_closed = XS / (2 * (1 - XS ** 2)) + 0.25 * np.log((1 + XS) / (1 - XS))
    assert np.max(np.abs(pr.Phi(XS) - phi_closed)) < 1e-9
    gap = pr.A(XS) - 2.0 / (1 - XS ** 2)
    want = 4 * XS ** 2 / (1 - XS ** 2) ** 2
    assert np.max(np.abs(gap - want) / (1 + want)) < 1e-9


# Closed forms near x = 1 built from 1 - x, so the references themselves
# keep full relative precision up to the profile's end 1 - 1e-6.
def _closed_u0_phi(kind, x):
    y = 1.0 - x
    if kind == "constant":
        s = 0.5 * np.pi * y
        return np.sin(s), 2.0 / (np.pi * np.tan(s))
    artanh = 0.5 * (np.log1p(x) - np.log(y))
    if kind == "inverse_square":
        return np.sqrt(y * (1.0 + x)), artanh
    q = y * (1.0 + x)
    return q, x / (2.0 * q) + 0.5 * artanh


@pytest.mark.parametrize("kind,u0_err,phi_err", [
    ("constant", 7.3e-11, 7.2e-11),
    ("inverse_square", 1.3e-11, 7.2e-13),
    ("half_strip", 2.0e-10, 2.0e-10),
])
def test_profile_relative_error_up_to_the_end(kind, u0_err, phi_err,
                                              request):
    # On the whole sample grid, up to x = 1 - 1e-6 where u0 ~ 1e-6, within
    # 1.5 times the errors of the DOP853 solve.
    prof = request.getfixturevalue(f"profile_{kind}")
    u0, phi = _closed_u0_phi(kind, prof.xs)
    assert np.max(np.abs(prof.u0(prof.xs) / u0 - 1.0)) < 1.5 * u0_err
    assert np.max(np.abs(prof.Phi(prof.xs[1:]) / phi[1:] - 1.0)) \
        < 1.5 * phi_err


def test_profile_A_small_radius_series(profile_constant):
    # A(0+) -> p(0); the series branch and the ODE branch must join smoothly
    rs = np.array([1e-8, 1e-6, 5e-5, 2e-4, 1e-3])
    a = profile_constant.A(rs)
    assert np.max(np.abs(a - np.pi ** 2 / 4)) < 1e-5
    assert abs(a[0] - np.pi ** 2 / 4) < 1e-12


@pytest.mark.parametrize("weight,p2,c2", [
    (NehariFunction.constant(0.5), 0.0, 4.0 / 3.0 * (np.pi ** 2 / 8) ** 2),
    (NehariFunction.inverse_square(), 4.0, 2.0),     # A = p = (1-r^2)^-2
    (NehariFunction.half_strip(), 4.0, 6.0),         # A - p = 4 r^2 + ...
], ids=["constant", "inverse_square", "half_strip"])
def test_profile_A_series_is_exact_through_r_squared(weight, p2, c2):
    # p''(0) is exact (2 factor c (2 - m) for p = factor c (1-x^2)^(m-2)),
    # and A = p(0) + (8 p(0)^2 + p''(0)) r^2 / 6 below r = 1e-4; the old
    # series had p''(0)/3, reading 8/3 for the inverse-square c2 = 2.
    prof = extremal_profile(weight, n_samples=17)
    assert prof._p2_at_0 == p2
    p0 = float(weight(0.0))
    for r in (2e-5, 5e-5, 0.99e-4):
        assert abs((prof.A(r) - p0) / r ** 2 - c2) < 1e-6 * c2


@pytest.mark.parametrize("values", [[2.4, 2.4, 2.45, 2.5],
                                    [1.0, 1.09, 1.36, 1.81]])
def test_table_A_is_continuous_at_the_series_switch(values):
    # A's series takes over below r = 1e-4.  The old spline's slope -0.139
    # at 0 in the first table put an O(r) term into A, which the series
    # lacks: 2.3999990 below the switch against 2.3999931 above it.
    w = NehariFunction.tabulated([0.0, 0.3, 0.6, 0.9], values)
    prof = extremal_profile(w, n_samples=17)
    below, above = prof.A(0.99e-4), prof.A(1.01e-4)
    assert abs(below - above) <= 1e-8 * above
    # p''(0) is the first Hermite piece's; p(h) - p(0) = p''(0) h^2/2 + O(h^3)
    h = 1e-4
    assert prof._p2_at_0 == pytest.approx(2.0 * (w(h) - w(0.0)) / h ** 2,
                                          rel=1e-3, abs=1e-6)


def test_phi_inverse_round_trip(profile_constant):
    s = np.array([0.1, 0.5, 1.5, 4.0, 20.0])
    x = profile_constant.phi_inverse(s)
    assert np.max(np.abs(profile_constant.Phi(x) - s)) < 1e-9


@pytest.mark.parametrize("kind", ["constant", "inverse_square",
                                  "half_strip"])
def test_phi_inverse_is_accurate_up_to_the_profile_end(kind):
    # Phi grows like 1/(1-x) or log(1/(1-x)) near x = 1; a uniform-x
    # interpolation polished by two clipped Newton steps missed by up to
    # 2e5 there.
    prof = extremal_profile(NehariFunction(kind))
    s_end = float(prof.Phi(prof.xs[-1]))
    s = np.concatenate([np.linspace(0.0, s_end, 1001),
                        s_end * (1.0 - np.logspace(-12, -1, 100))])
    x = prof.phi_inverse(s)
    assert np.all((x >= 0.0) & (x <= prof.xs[-1]))
    assert np.all(np.abs(prof.Phi(x) - s) <= 1e-9 * s)


def test_oscillating_weight_profile_raises():
    # u0 = cos(sqrt(1.5) pi x / 2) vanishes at 1/sqrt(1.5) = 0.8165, where
    # Phi' = u0^-2 has a pole: the steps collapse there before u0 reads <= 0.
    with pytest.raises(NumericalError, match=r"step size below 10 ulp at "
                       r"t = \S+ on \[0\.0, 0\.999999\]$") as info:
        extremal_profile(NehariFunction.constant(1.5))
    t = float(str(info.value).split()[8])
    assert abs(t - 1.0 / np.sqrt(1.5)) < 1e-12


def test_too_strong_weight_fails_at_the_zero_of_u0():
    # No stop condition: a weight too strong for a profile fails with the
    # step-size error at u0's zero 1/sqrt(1.2) = 0.91287...
    with pytest.raises(NumericalError, match=r"step size below 10 ulp at "
                       r"t = 0\.91287\d* on \[0\.0, 0\.999999\]$") as info:
        extremal_profile(NehariFunction.constant(1.2))
    t = float(str(info.value).split()[8])
    assert abs(t - 1.0 / np.sqrt(1.2)) < 1e-12


def test_tabulated_boundary_lambda_is_zero():
    # The interpolant is clamped at its last node, below 1, so
    # (1-x^2)^2 p -> 0.
    tab = NehariFunction.tabulated(np.linspace(0.0, 0.95, 12),
                                   2.0 / (1.0 - np.linspace(0.0, 0.95, 12)))
    assert tab.boundary_lambda == 0.0


@pytest.mark.parametrize("kind", ["constant", "inverse_square", "half_strip"])
def test_huge_weight_zero_count_saturates(kind):
    # The phase would cross ~1e75 multiples of pi; the count stops at 64.
    # The inverse-square kernel is 1e150 already where the phase solve
    # starts, so Sturm comparison has to decide it without a solve.
    v = validate_nehari(NehariFunction(kind, 1e150))
    assert not v.disconjugate and v.zero_count == 64
    assert "64+ interior zero(s)" in v.messages[0]


def test_boundary_exponents():
    cases = [
        (NehariFunction.constant(), 0.0, 2.0, 1.0),
        (NehariFunction.inverse_square(), 1.0, 1.0, 0.0),
        (NehariFunction.half_strip(), 0.0, 2.0, 1.0),
        (NehariFunction.inverse_square(0.5), 0.5, 1.0 + np.sqrt(0.5), None),
    ]
    for p, lam, mu, holder in cases:
        assert abs(p.boundary_lambda - lam) < 1e-6
        assert abs(p.mu - mu) < 1e-6
        if holder is not None:
            assert abs(p.holder_exponent - holder) < 1e-6


# ---------------------------------------------------------------------------
# completeness <-> extremality, Moebius compatibility
# ---------------------------------------------------------------------------

def test_completeness_probe_matches_extremality():
    # Factor 1 is extremal and diverges; every factor below it is not, up
    # to 0.99, where the probe's old rule Phi(1 - 1e-6) > 5 said it was.
    extremal = [NehariFunction.constant(), NehariFunction.inverse_square(),
                NehariFunction.half_strip()]
    shrunk = [NehariFunction(kind, k)
              for kind in ("constant", "inverse_square", "half_strip")
              for k in (0.3, 0.5, 0.7, 0.9, 0.95, 0.99)]
    for p in extremal:
        assert completeness_probe(p)["diverging"]
    for p in shrunk:
        assert not completeness_probe(p)["diverging"]


_PROBE_FACTORS = [1e-150, 1e-20, 0.05, 0.5, 0.9, 0.99, 1 - 2 ** -40,
                  1 - 2 ** -53, 1.0]


def _mp_phi(kind, k, x):
    """Phi(x) at 60 digits from the textbook forms tan(a x)/a,
    tanh(b artanh x)/b and x/(2(1-x^2)) + artanh(x)/2."""
    import mpmath

    with mpmath.workdps(60):
        k, x = mpmath.mpf(k), mpmath.mpf(x)
        t = mpmath.atanh(x)
        if kind == "constant":
            a = mpmath.sqrt(k) * mpmath.pi / 2
            return mpmath.tan(a * x) / a
        if kind == "inverse_square":
            b = mpmath.sqrt(1 - k)
            return mpmath.tanh(b * t) / b if b else t
        return x / (2 * (1 - x * x)) + t / 2


@pytest.mark.parametrize("kind,factor", [
    (kind, k) for kind in ("constant", "inverse_square")
    for k in _PROBE_FACTORS] + [("half_strip", 1.0)])
def test_probe_closed_forms_against_mpmath(kind, factor, monkeypatch):
    # Near x = 1 the closed forms keep full precision: within 1e-15
    # relative of 60 digits at the same double x = 1 - d, with no solve.
    solves = _count_solves(monkeypatch)
    probe = completeness_probe(NehariFunction(kind, factor))
    assert solves == []
    assert list(probe) == ["phi_values", "diverging"]
    assert probe["diverging"] == (factor == 1.0)
    for d, got in probe["phi_values"].items():
        want = _mp_phi(kind, factor, 1.0 - d)
        assert abs(got - want) <= 1e-15 * want, (d, got, want)


@pytest.mark.parametrize("factor", _PROBE_FACTORS[:-1])
def test_half_strip_below_one_takes_its_values_from_one_solve(
        factor, monkeypatch):
    solves = _count_solves(monkeypatch)
    p = NehariFunction.half_strip(factor)
    probe = completeness_probe(p)
    assert not probe["diverging"]
    assert solves == [1.0 - 1e-8]
    prof = extremal_profile(p, eps=1e-8, n_samples=17)
    assert probe["phi_values"] == {d: float(prof.Phi(1.0 - d))
                                   for d in (1e-4, 1e-6, 1e-8)}


def test_probe_closed_forms_match_the_solve():
    # Where Phi(1) is finite, the profile solve to 1 - 1e-8 agrees with the
    # closed forms to its own accuracy, about 2e-8 relative at 1 - 1e-8.
    for p in (NehariFunction.constant(0.9),
              NehariFunction.inverse_square(0.99)):
        prof = extremal_profile(p, eps=1e-8, n_samples=17)
        for d, val in completeness_probe(p)["phi_values"].items():
            assert abs(float(prof.Phi(1.0 - d)) / val - 1.0) < 3e-8


def test_probe_at_the_double_below_one_does_not_diverge():
    # The largest factor below 1: its margin 1/factor is the double above
    # 1 (1 + 2^-53 + 2^-106 rounds up), and Phi(1) is finite.
    for kind in ("constant", "inverse_square", "half_strip"):
        p = NehariFunction(kind, 1 - 2 ** -53)
        assert extremality_margin(p) == 1 + 2 ** -52
        assert not completeness_probe(p)["diverging"]


@pytest.mark.parametrize("table", [
    ([0, 0.3, 0.6, 0.9], [2, 2, 2, 2], 1.0),
    (np.linspace(0.0, 0.9, 10), np.full(10, np.pi ** 2 / 4), 0.9),
], ids=["two", "constant-0.9"])
def test_table_probe_decides_from_u0_at_one(table, monkeypatch):
    # One profile solve to 1 - 1e-8 for the values, then u0(1) at rtol
    # 1e-10 and 1e-12 for the verdict.
    solves = _count_solves(monkeypatch)
    p = NehariFunction.tabulated(*table)
    probe = completeness_probe(p)
    assert not probe["diverging"]
    assert solves == [1.0 - 1e-8, 1.0, 1.0]
    prof = extremal_profile(p, eps=1e-8, n_samples=17)
    assert probe["phi_values"] == {d: float(prof.Phi(1.0 - d))
                                   for d in (1e-4, 1e-6, 1e-8)}


def test_extremal_table_probe_is_undecided():
    # The constant table at factor 1 has u0 = cos(pi x/2), so u0(1) = 0:
    # both solves return rounding-level values, which decide nothing.
    with pytest.raises(NumericalError, match=r"undecided: u0\(1\) = \S+ at "
                       r"rtol 1e-10, \S+ at 1e-12"):
        completeness_probe(_constant_table())


def test_probe_rejects_a_closed_kind_above_one():
    for kind in ("constant", "inverse_square", "half_strip"):
        with pytest.raises(ValueError, match="not disconjugate"):
            completeness_probe(NehariFunction(kind, 1.05))


def test_mobius_weight_check_invariant_weight_exact():
    for rho in (0.2, 0.5, 0.85):
        res = mobius_weight_check(NehariFunction.inverse_square(),
                                  DiskMobius(rho=rho, theta=0.3))
        assert res["max_abs_rel_slack"] == 0.0


def test_mobius_weight_check_closed_form_minima():
    for rho in (0.2, 0.4, 0.75):
        res_c = mobius_weight_check(NehariFunction.constant(),
                                    DiskMobius(rho=rho, theta=1.0))
        assert res_c["min_rel_slack"] >= 0.0
        assert abs(res_c["min_rel_slack"] - (1 - (1 - rho ** 2) ** 2)) < 1e-10
        assert abs(res_c["argmin_x"]) < 2e-2
        res_h = mobius_weight_check(NehariFunction.half_strip(),
                                    DiskMobius(rho=rho, theta=0.0))
        assert abs(res_h["min_rel_slack"] - rho ** 2) < 1e-10


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_profile_csv_deterministic(profile_inverse_square, tmp_path):
    # Each path's directory does not exist yet: the writer creates it.
    paths = [tmp_path / name / "profile.csv" for name in ("a", "b")]
    for path in paths:
        write_profile_csv(profile_inverse_square, path)
    text = paths[0].read_text()
    assert text == paths[1].read_text()
    assert text.splitlines()[0] == "x,u0,Phi,PhiP,U,Psi,A,p"

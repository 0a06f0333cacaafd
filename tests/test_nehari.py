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
from holocurve.errors import NumericalError
from holocurve.jets import DiskMobius
from holocurve.nehari import (NehariFunction, completeness_probe,
                              disconjugacy_count, extremal_profile,
                              extremality_margin,
                              mobius_weight_check, richardson_lambda,
                              validate_nehari, write_profile_csv)

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


def test_import_leaves_the_spline_module_unloaded():
    # CubicSpline is imported when a tabulated weight is built, not before.
    src = str(Path(holocurve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, holocurve; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
    runs = [("injectivity", "injectivity.samples = 500\n")]
    loaded = _scipy_modules_after_main(runs, tmp_path)
    assert "scipy.spatial" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize"}


def test_ode_subcommands_load_neither_integrate_nor_optimize(tmp_path):
    # The profile and phase ODEs run on holocurve's own Runge-Kutta solver.
    runs = [("extremal-profile", "profile.samples = 17\n"),
            ("boundary", "curve.kind = example2\n"
             "nehari.kind = inverse_square\nboundary.rays = 2\n"
             "boundary.s_points = 3\nboundary.ring_samples = 64\n")]
    assert _scipy_modules_after_main(runs, tmp_path) == set()
    runs = [("covering", "covering.radii = 0.3\ncovering.resolution = 20\n")]
    loaded = _scipy_modules_after_main(runs, tmp_path)
    assert "scipy.sparse.csgraph" in loaded
    assert not loaded & {"scipy.integrate", "scipy.optimize"}


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


@pytest.mark.parametrize("kind,factor,bits", [
    ("constant", 1.0, "0x1.0003000000000p+0"),
    ("constant", 0.5, "0x1.ffff000000000p+0"),
    ("inverse_square", 1.0, "0x1.0009000000000p+0"),
    ("inverse_square", 0.5, "0x1.000b800000000p+1"),
    ("half_strip", 1.0, "0x1.0003000000000p+0"),
    ("half_strip", 0.5, "0x1.ffff000000000p+0"),
])
def test_extremality_margin_bits(kind, factor, bits):
    # Stopping each phase solve at its first zero leaves every bisection
    # step, and so every bit of the margin, as the full-window count had it.
    assert extremality_margin(NehariFunction(kind, factor)) \
        == float.fromhex(bits)


def test_oscillating_margin_solve_stops_at_its_first_zero(monkeypatch):
    import holocurve.nehari as nehari

    ends, original = [], nehari.solve_ivp

    def solve(*args, **kwargs):
        sol = original(*args, **kwargs)
        ends.append(sol.t[-1])
        return sol

    monkeypatch.setattr(nehari, "solve_ivp", solve)
    extremality_margin(NehariFunction.constant())
    # k = 1 is disconjugate and runs to the window's end; the bracket end
    # k = 4 and every midpoint above the margin 1.00005 oscillate, and each
    # of their solves ends at the first zero, far inside |t| <= 120.
    assert ends[0] == 120.0
    assert len(ends) == 17 and max(ends[1:]) < 10.0


def test_extremality_margin_guards():
    with pytest.raises(ValueError):
        extremality_margin(NehariFunction.constant(1.2))   # already oscillates
    # margins above the first bracket [1, 4]: the bracket doubles
    m = extremality_margin(NehariFunction.inverse_square(0.25))
    assert abs(m - 4.0) < 2e-3
    assert extremality_margin(NehariFunction.constant(0.05)) \
        == 20.000030517578125
    with pytest.raises(NumericalError):   # margin 1e7 > 2^20
        extremality_margin(NehariFunction.constant(1e-7))


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
    k = pr.metric_curvature(XS)
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
    with pytest.raises(NumericalError):
        extremal_profile(NehariFunction.constant(1.5))


def test_tabulated_boundary_lambda_is_zero():
    # The spline is clamped at its last node, below 1, so (1-x^2)^2 p -> 0.
    tab = NehariFunction.tabulated(np.linspace(0.0, 0.95, 12),
                                   2.0 / (1.0 - np.linspace(0.0, 0.95, 12)))
    assert tab.boundary_lambda == 0.0 == richardson_lambda(tab)


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
        assert abs(richardson_lambda(p) - lam) < 1e-6
        assert abs(p.mu - mu) < 1e-6
        if holder is not None:
            assert abs(p.holder_exponent - holder) < 1e-6


# ---------------------------------------------------------------------------
# completeness <-> extremality, Moebius compatibility
# ---------------------------------------------------------------------------

def test_completeness_probe_matches_extremality():
    extremal = [NehariFunction.constant(), NehariFunction.inverse_square(),
                NehariFunction.half_strip()]
    shrunk = [NehariFunction.constant(0.5), NehariFunction.inverse_square(0.7),
              NehariFunction.half_strip(0.3)]
    for p in extremal:
        assert completeness_probe(p)["diverging"]
    for p in shrunk:
        assert not completeness_probe(p)["diverging"]


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
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_profile_csv(profile_inverse_square, buf1)
    write_profile_csv(profile_inverse_square, buf2)
    text = buf1.getvalue()
    assert text == buf2.getvalue()
    assert text.splitlines()[0] == "x,u0,Phi,PhiP,U,Psi,A,p"
    path = tmp_path / "profile.csv"
    write_profile_csv(profile_inverse_square, path)
    assert path.read_text() == text

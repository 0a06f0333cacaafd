"""The twelve headline acceptance checks, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each test prints its line before asserting, so a failing criterion still
reports itself.  Tolerances of the form tol*(1+|value|) behave absolutely
for small values and relatively for large ones.
"""

import time

import numpy as np

import holocurve as hc
from _reference import radial_comparison_margin, second_form_sq_fd
from holocurve.ahlfors import make_speed_curvature
from holocurve.cli import main as cli_main
from holocurve.criterion import second_derivative_norm
from holocurve.jets import ExponentialComponent, MoebiusComponent
from holocurve.oracle import default_suite_curves
from holocurve.sampling import disk_samples
from holocurve.schwarzian import conformal_data, second_form_sq_lagrange


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {num}: {detail}"


def _rand_z(rng, r_max=0.9) -> complex:
    r = r_max * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


# ---------------------------------------------------------------------------

def test_01_example1_equality_on_full_grid(ex1):
    t0 = time.perf_counter()
    report = hc.scan(ex1, hc.NehariFunction.constant(),
                     hc.GridSpec(n_r=200, n_theta=64, r_max=0.999))
    dt = time.perf_counter() - t0
    worst = report.max_abs_margin
    ok = (worst <= 1e-6 and report.verdict == "holds-with-equality"
          and dt < 5.0)
    _verdict(1, ok, f"example1 equality: max |margin| = {worst:.2e} over "
             f"{report.n_points} grid points in {dt:.2f}s")


def test_02_single_component_classical_reduction():
    rng = np.random.default_rng(202)
    P = np.polynomial.polynomial
    worst = 0.0
    n_cases = 0

    def record(curve, z, classical):
        nonlocal worst, n_cases
        gen = complex(conformal_data(curve.eval(np.array([z]))).schwarzian[0])
        worst = max(worst, abs(gen - classical) / (1.0 + abs(classical)))
        n_cases += 1

    for _ in range(334):                     # Moebius maps: S = 0 exactly
        a = complex(*rng.uniform(0.5, 1.5, 2))
        b = complex(*rng.uniform(-0.5, 0.5, 2))
        d = complex(*rng.uniform(1.3, 3.0, 2))
        if abs(a * d - b) < 1e-2:
            a = a + 1.0
        curve = hc.HoloCurve((MoebiusComponent(a, b, 1.0, d),))
        record(curve, _rand_z(rng), 0.0)

    for _ in range(333):                     # a e^{bz}: S = -b^2 / 2
        amp = complex(*rng.uniform(0.5, 2.0, 2))
        rate = complex(*rng.uniform(0.2, 2.0, 2))
        curve = hc.HoloCurve((ExponentialComponent(amp, rate),))
        record(curve, _rand_z(rng), -0.5 * rate * rate)

    for _ in range(333):                     # cubics with |p'| > 0.5 on the disk
        c0 = complex(*rng.uniform(-0.5, 0.5, 2))
        c2 = complex(*rng.uniform(-0.5, 0.5, 2)) / 4.0
        c3 = complex(*rng.uniform(-0.5, 0.5, 2)) / 8.0
        coeffs = np.array([c0, 1.0, c2, c3])
        z = _rand_z(rng)
        p1 = P.polyval(z, P.polyder(coeffs))
        p2 = P.polyval(z, P.polyder(coeffs, 2))
        p3 = P.polyval(z, P.polyder(coeffs, 3))
        classical = p3 / p1 - 1.5 * (p2 / p1) ** 2
        record(hc.polynomial_curve([coeffs]), z, classical)

    ok = n_cases == 1000 and worst <= 1e-12
    _verdict(2, ok, f"classical reduction over {n_cases} cases: "
             f"worst |generalized - classical| / (1+|v|) = {worst:.2e}")


def test_03_second_form_equals_half_curvature(ex1, ex2):
    worst_closed = 0.0
    for curve in (ex1, ex2):
        z = disk_samples(500, r_max=0.995, seed=31)
        jet = curve.eval(z)
        want = 0.5 * np.abs(conformal_data(jet).curvature)
        dev = np.abs(second_form_sq_lagrange(jet) - want) / (1.0 + want)
        worst_closed = max(worst_closed, float(np.max(dev)))

    worst_fd = 0.0
    for curve in (ex1, ex2):
        z = disk_samples(250, r_max=0.98, seed=32)
        want = 0.5 * np.abs(conformal_data(curve.eval(z)).curvature)
        for k, z0 in enumerate(z):
            fd = second_form_sq_fd(curve, complex(z0))
            worst_fd = max(worst_fd,
                           abs(fd - want[k]) / (1.0 + want[k]))

    ok = worst_closed <= 1e-12 and worst_fd <= 1e-6
    _verdict(3, ok, f"|II(V,V)|^2 = |K|/2: closed-form route {worst_closed:.2e}"
             f" (tol 1e-12), finite-difference route {worst_fd:.2e} (tol 1e-6)")


def test_04_s1_three_routes_agree():
    paths = [hc.PlaneCurve.diameter(0.0), hc.PlaneCurve.circle(0.3),
             hc.PlaneCurve.circle(0.6)]
    worst, where = 0.0, ""
    for curve in default_suite_curves():
        for path in paths:
            t_lo, t_hi = path.t_range()
            speed, kappa = make_speed_curvature(curve, path)
            for frac in (0.12, 0.37, 0.5, 0.81):
                t = float(t_lo + frac * (t_hi - t_lo))
                a = hc.s1_of_composed_curve(curve, path, t)
                b = hc.s1_via_curvature(curve, path, t)
                c = hc.s1_from_speed_curvature(speed, kappa, t)
                dev = max(abs(a - b), abs(a - c)) / (1.0 + abs(a))
                if dev > worst:
                    worst, where = dev, f"{curve.label}/{path.kind}"
    ok = worst <= 1e-5
    _verdict(4, ok, f"three-route S1 agreement: worst deviation = "
             f"{worst:.2e} at {where} (tol 1e-5)")


def test_05_disconjugacy_calibration():
    t0 = time.perf_counter()
    n_crit = hc.disconjugacy_count(hc.NehariFunction.constant())
    n_above = hc.disconjugacy_count(hc.NehariFunction.constant(1.05))
    m_const = hc.extremality_margin(hc.NehariFunction.constant())
    m_inv = hc.extremality_margin(hc.NehariFunction.inverse_square())
    dt = time.perf_counter() - t0
    ok = (n_crit == 0 and n_above >= 1
          and abs(m_const - 1.0) <= 1e-3 and abs(m_inv - 1.0) <= 1e-3
          and dt < 10.0)
    _verdict(5, ok, f"disconjugacy: count(pi^2/4) = {n_crit}, "
             f"count(1.05 pi^2/4) = {n_above}, margins = {m_const:.6f} / "
             f"{m_inv:.6f} in {dt:.2f}s")


def test_06_profile_closed_forms(profile_constant, profile_inverse_square):
    dev_phi = abs(profile_inverse_square.Phi(0.5) - 0.5 * np.log(3.0))
    dev_psi = abs(profile_constant.Psi(0.99)
                  - 2.0 / np.pi * np.tanh(0.99 * np.pi / 2.0))
    rs = np.arange(1, 10) * 0.1
    dev_a = float(np.max(np.abs(profile_inverse_square.A(rs)
                                - 1.0 / (1.0 - rs ** 2) ** 2)))
    ok = dev_phi <= 1e-8 and dev_psi <= 1e-6 and dev_a <= 1e-8
    _verdict(6, ok, f"profile closed forms: |Phi(.5)-ln(3)/2| = {dev_phi:.2e},"
             f" |Psi(.99)-closed| = {dev_psi:.2e}, max |A-p| = {dev_a:.2e}")


def test_07_covering_bound_consistency(ex1, profile_constant):
    radii = (0.3, 0.5, 0.7, 0.9)
    worst_slack = np.inf
    times = []
    for curve in (hc.identity_curve(), hc.normalize(ex1)):
        t0 = time.perf_counter()
        phi2 = second_derivative_norm(curve)
        for r in radii:
            bound = float(hc.covering_bound(profile_constant, phi2, r))
            lower, _ = hc.intrinsic_min_distance(curve, r, resolution=200)
            worst_slack = min(worst_slack, lower - bound)
        times.append(time.perf_counter() - t0)
    ok = worst_slack >= -2e-3 and max(times) < 30.0
    _verdict(7, ok, f"covering bound: worst (lower - bound) = "
             f"{worst_slack:.2e} >= -2e-3; per-curve time "
             f"{max(times):.2f}s")


def test_08_radial_comparison_margin(ex1, ex2, profile_constant,
                                     profile_inverse_square):
    worst = np.inf
    for curve, prof in ((ex1, profile_constant),
                        (ex2, profile_inverse_square)):
        z = disk_samples(1000, r_max=0.99, seed=8)
        worst = min(worst,
                    float(np.min(radial_comparison_margin(curve, prof, z))))
    ok = worst >= -1e-8
    _verdict(8, ok, f"radial comparison margin over 10^3-point samples: "
             f"min = {worst:.2e} >= -1e-8")


def test_09_radial_convexity(ex1, ex2, profile_constant,
                             profile_inverse_square):
    worst = np.inf
    for curve, prof in ((ex1, profile_constant),
                        (ex2, profile_inverse_square)):
        diag = hc.boundary_diagnostics(curve, prof)   # 32 rays x 100 s-points
        worst = min(worst, diag.worst_radial_convexity)
    ok = worst >= -1e-6
    _verdict(9, ok, f"radial convexity on 32 rays x 100 points: "
             f"min omega'' = {worst:.2e} >= -1e-6")


def test_10_strip_estimate_constants():
    cs = (0.01, 0.05, 0.1)
    fits = [hc.strip_constants_check(c, n_samples=10000) for c in cs]
    ok = True
    spreads = {}
    for name in ("A", "B", "C"):
        vals = [getattr(f, name) for f in fits]
        ok = ok and all(np.isfinite(v) and v > 0 for v in vals)
        spreads[name] = max(vals) / min(vals)
        ok = ok and spreads[name] <= 2.0
    # the c -> 0 fits must land on the analytic suprema of the two ratios
    ok = ok and abs(fits[0].A - 81.0 / 32.0) <= 0.05 * (81.0 / 32.0)
    ok = ok and abs(fits[0].B - 3.1056276620) <= 0.05 * 3.1056276620
    _verdict(10, ok, "strip constants positive with spreads "
             + ", ".join(f"{k} x{v:.3f}" for k, v in spreads.items())
             + f"; A(0.01) = {fits[0].A:.4f}, B(0.01) = {fits[0].B:.4f}")


def test_11_chain_rules_over_identity_suite():
    report = hc.identity_suite()
    recs = {r.name: r for r in report.records}
    analytic = recs["schwarzian_disk_mobius_chain_rule"].worst_dev
    fd = recs["s1_target_mobius_invariance"].worst_dev
    ok = analytic <= 1e-8 and fd <= 1e-4
    _verdict(11, ok, f"chain rules: precomposition (analytic) dev = "
             f"{analytic:.2e} (tol 1e-8), range-Moebius (FD) dev = "
             f"{fd:.2e} (tol 1e-4)")


def test_12_injectivity_witness(ex1, ex2, tmp_path, capsys):
    clean = True
    for curve in (ex1, ex2):
        rep = hc.injectivity_scan(curve, n_samples=10000, min_sep=0.05)
        clean = clean and not rep.collision_found
    cfg = tmp_path / "z2.cfg"
    cfg.write_text("curve.kind = z_squared\n"
                   "injectivity.samples = 10000\n"
                   "injectivity.min_sep = 0.05\n"
                   "injectivity.r_min = 0.3\n"
                   "injectivity.symmetrize = true\n")
    code = cli_main(["injectivity", str(cfg)])
    capsys.readouterr()                       # swallow the CLI's own output
    ok = clean and code == 4
    _verdict(12, ok, f"injectivity: examples clean over 10^4 samples = "
             f"{clean}, z^2 annulus fixture exit code = {code} (want 4)")

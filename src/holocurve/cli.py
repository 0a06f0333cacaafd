"""Config-file driven command line interface.

    holocurve SUBCOMMAND CONFIG [--seed N] [--output DIR]

Subcommands: check-criterion, extremal-profile, covering, verify-identities,
injectivity, reproduce-example, boundary.

The config format is flat ``section.key = value`` lines (``#`` comments);
unknown keys are rejected with their line number.  All numeric output uses
17 significant digits and artifact files are written with deterministic
content: re-running a command with the same config yields byte-identical
results.

Exit codes: 0 success / criterion holds, 1 criterion or bound violated,
2 configuration error, 3 identity check failure, 4 collision found,
5 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._table import write_csv
from .criterion import (GridSpec, boundary_diagnostics, check_boundary_rays,
                        check_covering, covering_bound,
                        intrinsic_min_distance, normalize, scan,
                        second_derivative_norm, write_scan_csv)
from .errors import ConfigError, NumericalError
from .fixtures import (EXAMPLE1_C, EXAMPLE2_C, example1_curve,
                       example1_e2sigma, example1_schwarzian,
                       example1_wronskian_sq, example2_curve,
                       example2_reduced_slack, strip_constants_check,
                       z_squared_curve)
from .jets import (DiskMobius, HoloCurve, identity_curve, polynomial_curve,
                   precompose_disk_mobius, radial_pair_curve, scale_curve,
                   strip_curve, tan_truncation_curve)
from .nehari import (NehariFunction, completeness_probe, extremal_profile,
                     extremality_margin, validate_nehari, write_profile_csv)
from .oracle import (boundary_trace, check_boundary_ring, identity_suite,
                     injectivity_scan)

__all__ = ["parse_config", "run", "main", "RunConfig"]

# key -> (type, default).  Types: int, float, str, bool; _coerce calls the
# type on the text, but reads a bool from its words.
_SCHEMA = {
    "run.seed": (int, 0),
    "run.output": (str, "."),
    "curve.kind": (str, "identity"),
    "curve.coeffs": (str, ""),
    "curve.c": (float, None),               # unset: the kind's default
    "curve.k": (float, 0.7),
    "curve.stretch": (float, 1.2),
    "curve.degree": (int, 41),
    "curve.mobius_rho": (float, 0.0),
    "curve.mobius_theta": (float, 0.0),
    "curve.scale": (float, 1.0),
    "curve.normalize": (bool, False),
    "nehari.kind": (str, "constant"),
    "nehari.factor": (float, 1.0),
    "nehari.table_x": (str, ""),
    "nehari.table_p": (str, ""),
    "grid.n_r": (int, 200),
    "grid.n_theta": (int, 64),
    "grid.r_max": (float, 0.999),
    "grid.refine": (int, 0),
    "tol.equality": (float, None),          # unset: automatic
    "profile.eps": (float, 1e-6),
    "profile.samples": (int, 1025),
    "covering.radii": (str, "0.3,0.6,0.9"),
    "covering.resolution": (int, 200),
    "injectivity.samples": (int, 10000),
    "injectivity.min_sep": (float, 0.05),
    "injectivity.r_min": (float, 0.0),
    "injectivity.r_max": (float, 0.9999),
    "injectivity.symmetrize": (bool, False),
    "example.which": (int, 1),
    "example.c_values": (str, "0.01,0.05,0.1"),
    "boundary.rays": (int, 32),
    "boundary.s_points": (int, 100),
    "boundary.r_cap": (float, 0.99),
    "boundary.ring_offset": (float, 1e-3),
    "boundary.ring_samples": (int, 2048),
}

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _coerce(key: str, raw: str, line: int):
    tag, _ = _SCHEMA[key]
    try:
        if tag is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return tag(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r} "
                          f"as {tag.__name__}", line=line) from None


@dataclass
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        if key not in _SCHEMA:
            raise KeyError(key)
        return self.options.get(key, _SCHEMA[key][1])


def parse_config(text: str, command: str = "check-criterion") -> RunConfig:
    """Parse flat ``section.key = value`` text into a RunConfig.

    Raises ConfigError (with the offending line number) for unknown keys,
    malformed lines, or unparsable values.
    """
    options = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line!r}",
                              line=lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key {key!r}",
                              line=lineno)
        if key in options:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        options[key] = _coerce(key, raw_val.strip(), lineno)
    return RunConfig(command=command, options=options)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _parse_complex_list(text: str) -> list[complex]:
    try:
        return [complex(tok.strip().replace("i", "j"))
                for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid curve.coeffs: {exc}") from exc


def _float_list(cfg: RunConfig, key: str) -> list[float]:
    try:
        return [float(v) for v in cfg[key].split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


def _c(cfg: RunConfig, default: float) -> float:
    """curve.c, or `default` where it is unset."""
    return default if cfg["curve.c"] is None else cfg["curve.c"]


def _polynomial(cfg: RunConfig) -> HoloCurve:
    groups = [g for g in cfg["curve.coeffs"].split(";") if g.strip()]
    if not groups:
        raise ConfigError("curve.kind=polynomial needs curve.coeffs")
    return polynomial_curve([_parse_complex_list(g) for g in groups])


# curve.kind -> the builder of its curve from the config.
_CURVES = {
    "identity": lambda cfg: identity_curve(),
    "polynomial": _polynomial,
    "example1": lambda cfg: example1_curve(_c(cfg, EXAMPLE1_C)),
    "example2": lambda cfg: example2_curve(_c(cfg, EXAMPLE2_C)),
    "z_squared": lambda cfg: z_squared_curve(),
    "tan_truncation": lambda cfg: tan_truncation_curve(cfg["curve.stretch"],
                                                       cfg["curve.degree"]),
    "radial_pair": lambda cfg: radial_pair_curve(cfg["curve.k"]),
    "strip": lambda cfg: strip_curve(),
}


def build_curve(cfg: RunConfig) -> HoloCurve:
    kind = cfg["curve.kind"]
    if kind not in _CURVES:
        raise ConfigError(f"unknown curve.kind {kind!r} "
                          f"(choose from {', '.join(_CURVES)})")
    curve = _CURVES[kind](cfg)
    if cfg["curve.mobius_rho"] != 0.0 or cfg["curve.mobius_theta"] != 0.0:
        curve = precompose_disk_mobius(
            curve, DiskMobius(cfg["curve.mobius_rho"],
                              cfg["curve.mobius_theta"]))
    if cfg["curve.scale"] != 1.0:
        curve = scale_curve(curve, cfg["curve.scale"])
    return normalize(curve) if cfg["curve.normalize"] else curve


def build_weight(cfg: RunConfig) -> NehariFunction:
    if cfg["nehari.kind"] == "tabulated":
        weight = NehariFunction.tabulated(_float_list(cfg, "nehari.table_x"),
                                          _float_list(cfg, "nehari.table_p"),
                                          factor=cfg["nehari.factor"])
    else:
        weight = NehariFunction(cfg["nehari.kind"], cfg["nehari.factor"])
    validation = validate_nehari(weight)
    if not validation.ok:
        raise ConfigError("; ".join(validation.messages))
    return weight


def _profile(cfg: RunConfig, weight: NehariFunction):
    return extremal_profile(weight, eps=cfg["profile.eps"],
                            n_samples=cfg["profile.samples"])


def _grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(n_r=cfg["grid.n_r"], n_theta=cfg["grid.n_theta"],
                    r_max=cfg["grid.r_max"], refine=cfg["grid.refine"])


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns an exit code)
# ---------------------------------------------------------------------------

def _cmd_check_criterion(cfg: RunConfig) -> int:
    weight = build_weight(cfg)
    curve = build_curve(cfg)
    grid = _grid(cfg)
    csv_path = Path(cfg["run.output"]) / "scan.csv"
    # Staged block by block next to scan.csv, which appears only once the
    # scan has succeeded.
    report = scan(curve, weight, grid, tol_eq=cfg["tol.equality"],
                  table=csv_path.with_name("scan.csv.part"))
    write_scan_csv(report, csv_path)
    print(f"curve = {report.curve_label}")
    print(f"weight = {weight.label}")
    print(f"n_points = {report.n_points}")
    print(f"verdict = {report.verdict}")
    print(f"min_margin = {_fmt(report.min_margin)}")
    print(f"argmin_re = {_fmt(report.argmin_z.real)}")
    print(f"argmin_im = {_fmt(report.argmin_z.imag)}")
    print(f"tol_eq = {_fmt(report.tol_eq)}")
    print(f"equality_count = {report.equality_count}")
    print(f"scan_csv = {csv_path}")
    return 1 if report.verdict == "fails" else 0


def _cmd_extremal_profile(cfg: RunConfig) -> int:
    weight = build_weight(cfg)
    profile = _profile(cfg, weight)
    margin = extremality_margin(weight)
    probe = completeness_probe(weight)
    csv_path = Path(cfg["run.output"]) / "profile.csv"
    write_profile_csv(profile, csv_path)
    print(f"weight = {weight.label}")
    print(f"lambda = {_fmt(weight.boundary_lambda)}")
    print(f"mu = {_fmt(weight.mu)}")
    print(f"holder_exponent = {_fmt(weight.holder_exponent)}")
    print(f"extremality_margin = {_fmt(margin)}")
    for delta, val in probe["phi_values"].items():
        print(f"phi_at_1_minus_{delta:g} = {_fmt(val)}")
    print(f"diverging = {str(probe['diverging']).lower()}")
    print(f"psi_end = {_fmt(profile.Psi(profile.xs[-1]))}")
    print(f"profile_csv = {csv_path}")
    return 0


def _cmd_covering(cfg: RunConfig) -> int:
    radii = _float_list(cfg, "covering.radii")
    resolution = cfg["covering.resolution"]
    if not radii:
        raise ConfigError("covering.radii lists no radius")
    for r in radii:
        check_covering(r, resolution)
    weight = build_weight(cfg)
    curve = normalize(build_curve(cfg))
    profile = _profile(cfg, weight)
    phi2 = second_derivative_norm(curve)
    rows = []
    for r in radii:
        h = float(covering_bound(profile, phi2, r))
        lower, upper = intrinsic_min_distance(curve, r, resolution=resolution)
        if not np.isfinite(lower - h) or not np.isfinite(upper):
            raise NumericalError(f"covering bracket at r = {r:g} is "
                                 f"[{lower}, {upper}] (bound = {h})")
        rows.append((r, h, lower, upper, lower - h))
    # The distance lies in [lower, upper]: upper < bound is a violation,
    # lower >= bound confirms the bound, anything between decides nothing.
    violated = any(upper < h for _, h, _, upper, _ in rows)
    for r, h, lower, upper, _ in rows:
        if not violated and lower < h:
            raise NumericalError(
                f"covering bracket inconclusive at r = {_fmt(r)}: lower = "
                f"{_fmt(lower)}, upper = {_fmt(upper)}, bound = {_fmt(h)}")
    csv_path = Path(cfg["run.output"]) / "covering.csv"
    write_csv(csv_path, ("r", "bound", "lower", "upper", "slack"),
              list(zip(*rows)))
    print(f"curve = {curve.label}")
    print(f"normalized_second_deriv = {_fmt(phi2)}")
    for r, h, lower, upper, slack in rows:
        print(f"r = {_fmt(r)}: bound = {_fmt(h)}, lower = {_fmt(lower)}, "
              f"upper = {_fmt(upper)}, slack = {_fmt(slack)}")
    print(f"covering_csv = {csv_path}")
    print(f"verdict = {'violated' if violated else 'consistent'}")
    return 1 if violated else 0


def _cmd_verify_identities(cfg: RunConfig) -> int:
    report = identity_suite(seed=cfg["run.seed"])
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        print(f"{status} {rec.name}: worst_dev = {_fmt(rec.worst_dev)} "
              f"(tol {_fmt(rec.tol)}) at {rec.where}")
    print(f"verdict = {'ok' if report.ok else 'identity-failure'}")
    return 0 if report.ok else 3


def _cmd_injectivity(cfg: RunConfig) -> int:
    curve = build_curve(cfg)
    report = injectivity_scan(
        curve, n_samples=cfg["injectivity.samples"],
        min_sep=cfg["injectivity.min_sep"], seed=cfg["run.seed"],
        r_min=cfg["injectivity.r_min"], r_max=cfg["injectivity.r_max"],
        symmetrize=cfg["injectivity.symmetrize"])
    print(f"curve = {report.curve_label}")
    print(f"n_samples = {report.n_samples}")
    print(f"min_sep = {_fmt(report.min_sep)}")
    print(f"min_image_distance = {_fmt(report.min_image_distance)}")
    z1, z2 = report.pair
    print(f"pair_z1 = {_fmt(z1.real)} {_fmt(z1.imag)}")
    print(f"pair_z2 = {_fmt(z2.real)} {_fmt(z2.imag)}")
    print(f"collision = {str(report.collision_found).lower()}")
    return 4 if report.collision_found else 0


def _cmd_reproduce_example(cfg: RunConfig) -> int:
    which = cfg["example.which"]
    if which == 1:
        return _reproduce_example1(cfg)
    if which == 2:
        return _reproduce_example2(cfg)
    raise ConfigError(f"example.which must be 1 or 2, got {which}")


def _reproduce_example1(cfg: RunConfig) -> int:
    c = _c(cfg, EXAMPLE1_C)
    curve = example1_curve(c)
    weight = NehariFunction.constant()
    report = scan(curve, weight, _grid(cfg))
    xs = np.linspace(-0.999, 0.999, 201)
    abs_s = np.abs(example1_schwarzian(xs, c))
    curv = 1.5 * example1_wronskian_sq(c) / example1_e2sigma(xs, c) ** 2
    csv_path = Path(cfg["run.output"]) / "example1_table.csv"
    write_csv(csv_path,
              ("x", "abs_schwarzian", "curv_term", "criterion_sum", "bound"),
              (xs, abs_s, curv, abs_s + curv,
               np.full(len(xs), np.pi ** 2 / 2.0)))
    print(f"curve = {curve.label}")
    print(f"verdict = {report.verdict}")
    print(f"min_margin = {_fmt(report.min_margin)}")
    print(f"max_abs_margin = {_fmt(report.max_abs_margin)}")
    print(f"equality_count = {report.equality_count} / {report.n_points}")
    print(f"table_csv = {csv_path}")
    ok = report.verdict == "holds-with-equality" \
        and report.equality_count == report.n_points
    print(f"equality_everywhere = {str(ok).lower()}")
    return 0 if ok else 1


def _reproduce_example2(cfg: RunConfig) -> int:
    c = _c(cfg, EXAMPLE2_C)
    curve = example2_curve(c)
    # The strip fits validate example.c_values before anything is written.
    fits = [strip_constants_check(cv, seed=cfg["run.seed"])
            for cv in _float_list(cfg, "example.c_values")]
    weight = NehariFunction.inverse_square()
    grid = _grid(cfg)
    # Two passes over the grid's blocks: the slack's range, then the sum of
    # the blocks' histograms on it, the whole grid's histogram bit for bit.
    lo, hi = np.inf, -np.inf
    for _, z in grid.blocks():
        slack = example2_reduced_slack(c, z)
        lo, hi = np.minimum(lo, np.min(slack)), np.maximum(hi, np.max(slack))
    hist = 0
    for _, z in grid.blocks():
        counts, edges = np.histogram(example2_reduced_slack(c, z), bins=24,
                                     range=(lo, hi))
        hist = hist + counts
    min_slack = float(lo)
    report = scan(curve, weight, grid)
    csv_path = Path(cfg["run.output"]) / "example2_slack_hist.csv"
    write_csv(csv_path, ("bin_lo", "bin_hi", "count"),
              (edges[:-1], edges[1:], hist))
    print(f"curve = {curve.label}")
    print(f"verdict = {report.verdict}")
    print(f"min_margin = {_fmt(report.min_margin)}")
    print(f"min_reduced_slack = {_fmt(min_slack)}")
    print(f"hist_csv = {csv_path}")
    for sc in fits:
        print(f"c = {sc.c:g}: A = {_fmt(sc.A)}, B = {_fmt(sc.B)}, "
              f"C = {_fmt(sc.C)} (n = {sc.n_used})")
    ok = report.verdict != "fails" and min_slack > -1e-9
    return 0 if ok else 1


def _cmd_boundary(cfg: RunConfig) -> int:
    check_boundary_rays(cfg["boundary.rays"], cfg["boundary.s_points"],
                        cfg["boundary.r_cap"])
    check_boundary_ring(cfg["boundary.ring_offset"],
                        cfg["boundary.ring_samples"])
    weight = build_weight(cfg)
    curve = build_curve(cfg)
    profile = _profile(cfg, weight)
    diag = boundary_diagnostics(curve, profile, n_rays=cfg["boundary.rays"],
                                n_s=cfg["boundary.s_points"],
                                r_cap=cfg["boundary.r_cap"])
    trace = boundary_trace(curve, ring_offset=cfg["boundary.ring_offset"],
                           n_samples=cfg["boundary.ring_samples"])
    print(f"curve = {curve.label}")
    print(f"critical_points = {len(diag.critical_points)}")
    for zc, g in diag.critical_points:
        print(f"  z = {_fmt(zc.real)} {_fmt(zc.imag)} (|grad| = {_fmt(g)})")
    print(f"worst_radial_convexity = {_fmt(diag.worst_radial_convexity)}")
    if diag.distortion is None:
        print("distortion_fit = infeasible")
    else:
        print(f"distortion_a = {_fmt(diag.distortion['a'])}")
        print(f"distortion_b = {_fmt(diag.distortion['b'])}")
    print(f"lambda = {_fmt(weight.boundary_lambda)}")
    print(f"mu = {_fmt(weight.mu)}")
    print(f"holder_exponent = {_fmt(weight.holder_exponent)}")
    print(f"ring_min_gap = {_fmt(trace['min_gap'])}")
    print(f"ring_pair_theta = {_fmt(trace['theta1'])} {_fmt(trace['theta2'])}")
    print(f"ring_real_axis_gap = {_fmt(trace['real_axis_gap'])}")
    return 0


_DISPATCH = {
    "check-criterion": _cmd_check_criterion,
    "extremal-profile": _cmd_extremal_profile,
    "covering": _cmd_covering,
    "verify-identities": _cmd_verify_identities,
    "injectivity": _cmd_injectivity,
    "reproduce-example": _cmd_reproduce_example,
    "boundary": _cmd_boundary,
}


def run(cfg: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    if cfg.command not in _DISPATCH:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return _DISPATCH[cfg.command](cfg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="holocurve",
        description="Numerical verification toolkit for injectivity "
                    "criteria of holomorphic curves on the unit disk.")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed")
    parser.add_argument("--output", default=None, help="override run.output")
    args = parser.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        cfg = parse_config(text, command=args.command)
        if args.seed is not None:
            cfg.options["run.seed"] = args.seed
        if args.output is not None:
            cfg.options["run.output"] = args.output
        # Every non-finite value reaches a check that raises, so the one
        # line below is the message; numpy's warnings would only precede it.
        with np.errstate(all="ignore"):
            return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 belongs to a computed verdict; any other failure exits 5.
        print(f"numerical failure: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

"""holocurve: numerical verification toolkit for injectivity criteria of
holomorphic curves on the unit disk.

Library layout:

    jets        order-3 jet algebra, curve models, disk automorphisms
    schwarzian  conformal data (metric, Schwarzian, curvature)
    ahlfors     real S1 of composed curves and its invariances
    nehari      weight functions, disconjugacy, extremal profiles
    criterion   grid scans, covering bounds, boundary diagnostics
    oracle      identity cross-checks and injectivity sampling
    fixtures    built-in extremal examples and designed fixtures
    cli         config-file driven command line interface

`import holocurve` loads no module, numpy included: each name below, and
each of these modules, is imported on first use (SPEC 1 lazy loading).
"""
import importlib

_EXPORTS = {
    "ahlfors": ("PlaneCurve", "RealCurveSample", "s1_direct",
                "s1_from_speed_curvature", "s1_mobius_invariance_check",
                "s1_of_composed_curve", "s1_via_curvature"),
    "criterion": ("BoundaryDiagnostics", "CriterionReport", "GridSpec",
                  "boundary_diagnostics", "boundary_trace", "covering_bound",
                  "intrinsic_min_distance", "normalize", "scan",
                  "weight_ratio", "write_scan_csv"),
    "errors": ("ConfigError", "DomainError", "HolocurveError",
               "NumericalError", "VanishingTangentError"),
    "fixtures": ("StripConstants", "example1_curve", "example2_curve",
                 "example2_reduced_slack", "example2_zeta",
                 "strip_constants_check", "z_squared_curve"),
    "jets": ("CurveJet", "DiskMobius", "HoloCurve", "Jet3", "eval_curve",
             "identity_curve", "polynomial_curve", "precompose_disk_mobius",
             "radial_pair_curve", "scale_curve", "strip_curve",
             "tan_truncation_curve"),
    "nehari": ("ExtremalProfile", "NehariFunction", "NehariValidation",
               "completeness_probe", "disconjugacy_count", "extremal_profile",
               "extremality_margin", "validate_nehari", "write_profile_csv"),
    "oracle": ("IdentityReport", "InjectivityReport", "identity_suite",
               "injectivity_scan"),
    "schwarzian": ("ConformalData", "conformal_data"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:            # a module itself, imported on first use
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value         # later lookups skip __getattr__
    return value


def __dir__():
    return __all__ + ["__version__"]

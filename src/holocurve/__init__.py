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
"""
from .ahlfors import (PlaneCurve, RealCurveSample, s1_direct,
                      s1_from_speed_curvature, s1_mobius_invariance_check,
                      s1_of_composed_curve, s1_via_curvature)
from .criterion import (BoundaryDiagnostics, CriterionReport, GridSpec,
                        boundary_diagnostics, boundary_trace, covering_bound,
                        intrinsic_min_distance, normalize,
                        radial_comparison_margin, scan, weight_ratio,
                        write_scan_csv)
from .errors import (ConfigError, DomainError, HolocurveError, NumericalError,
                     VanishingTangentError)
from .fixtures import (StripConstants, example1_curve, example2_curve,
                       example2_equality_defect, example2_reduced_slack,
                       example2_zeta, hille_curve, strip_constants_check,
                       z_squared_curve)
from .jets import (CurveJet, DiskMobius, HoloCurve, Jet3, eval_curve,
                   exponential_curve, identity_curve, polynomial_curve,
                   precompose_disk_mobius, radial_pair_curve, scale_curve,
                   strip_curve, tan_truncation_curve)
from .nehari import (ExtremalProfile, NehariFunction, NehariValidation,
                     completeness_probe, disconjugacy_count,
                     extremal_profile, extremality_margin,
                     mobius_weight_check, validate_nehari, write_profile_csv)
from .oracle import (IdentityReport, InjectivityReport, identity_suite,
                     injectivity_scan)
from .schwarzian import (ConformalData, classical_schwarzian, conformal_data,
                         criterion_lhs)

__version__ = "0.1.0"

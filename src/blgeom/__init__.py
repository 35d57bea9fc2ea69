"""blgeom: metrics, ellipsoids and conformal invariants of Minkowski norm fields."""

from .errors import (BlgeomError, ConstructionError, DefinitenessError,
                     InputError, NumericalFailure, QuadratureFailure,
                     TransportAccuracyError, UnsupportedDimensionError)
from .invariants import (FingerprintComparison, Quermassintegrals,
                         compare_fingerprints, fingerprint_point,
                         isotropy_defect, orthonormalize, quermassintegrals,
                         roundness)
from .manifold import (BerwaldReport, FinslerStructure, FlatnessReport,
                       MetricField, TransportResult, berwald_defect, bl_field,
                       conformal_factor, conformal_rescale, constant_structure,
                       default_loops, default_probes, fingerprint_cloud,
                       holonomy_angle, is_locally_minkowski,
                       l1_l2_interpolation, parallel_transport, rectangle_loop,
                       rigid_motion, rotor_structure, smoothstep, square_gauge)
from .metric import (BLMetric, MomentResult, bl_metric,
                     bl_metric_converged, relative_qf_deviation,
                     sampled_moment)
from .norms import (Euclidean, LinearImage, LpNorm, MinkowskiNorm,
                    PolytopeGauge, QuarticAxial, ValidationReport, WeightedSum,
                    rescale, validate)
from .quadrature import (SphericalQuadrature, auto_quadrature, ball_volume,
                         circle_panels, circle_trapezoid, sphere_orthant_gauss,
                         sphere_product_gauss)
from .specio import (load_norm, load_structure, norm_from_spec,
                     structure_from_spec)

__version__ = "0.1.0"

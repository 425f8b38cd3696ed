"""Torsion thresholds of Floer cohomology and displacement energy bounds.

The exact layers (novikov, valmat, toric, polydisk) compute over the
Novikov ring with rational exponents; hamlab checks the analytic
identities behind the bounds numerically.
"""

from .errors import (ConstraintViolated, EmptyInterior, FiberOnBoundary,
                     NotAComplex, PrecisionExhausted, StepFailure,
                     TorsionLabError, UnboundedDomain)
from .novikov import NovikovElement, divide_exact, from_text, parse, to_text
from .polydisk import MODES, PolydiskSpec, polydisk_bound
from .rationals import INFINITE, as_level, format_level, is_infinite, rational
from .toric import (MomentModel, ThresholdSearch, boundary_covector,
                    cylinder_factor, facet_areas, floer_cohomology,
                    model_from_factors, model_from_json,
                    optimize_threshold, potential, product,
                    projective_factor, sphere_factor, torsion_threshold_at)
from .valmat import (ChainComplex, ModuleDecomposition, NovikovMatrix,
                     SmithNormalForm, b_count, decompose,
                     intersection_bound, smith_normal_form,
                     torsion_threshold)

__version__ = "0.1.0"

__all__ = [
    "ChainComplex",
    "ConstraintViolated",
    "EmptyInterior",
    "FiberOnBoundary",
    "INFINITE",
    "MODES",
    "ModuleDecomposition",
    "MomentModel",
    "NotAComplex",
    "NovikovElement",
    "NovikovMatrix",
    "PolydiskSpec",
    "PrecisionExhausted",
    "SmithNormalForm",
    "StepFailure",
    "ThresholdSearch",
    "TorsionLabError",
    "UnboundedDomain",
    "as_level",
    "b_count",
    "boundary_covector",
    "cylinder_factor",
    "decompose",
    "divide_exact",
    "facet_areas",
    "floer_cohomology",
    "format_level",
    "from_text",
    "intersection_bound",
    "is_infinite",
    "model_from_factors",
    "model_from_json",
    "optimize_threshold",
    "parse",
    "polydisk_bound",
    "potential",
    "product",
    "projective_factor",
    "rational",
    "smith_normal_form",
    "sphere_factor",
    "torsion_threshold",
    "torsion_threshold_at",
    "to_text",
    "__version__",
]

"""Numerical Hofer-geometry laboratory on the plane R^2.

Closed-form Hamiltonians and their Hofer norms, elongation profiles,
RK4 flows and the gauge transformation, strip quadrature, and the four
verification suites behind the action and energy estimates.
"""

from .fields import HamiltonianField, HoferNorms, hofer_norms
from .flow import flow, gauge_plus
from .profiles import ElongationProfile, rho_k, rho_plus
from .spaces import EuclideanSpace, euclidean_plane
from .strips import StripMap, energy_functional, pullback_area
from .verify import (
    DifferenceHamiltonian,
    run_suite,
    suite_actiondiff,
    suite_energy,
    suite_hat,
    suite_hofer,
    verify_actiondiff,
    verify_energy_identity,
)

__all__ = [
    "DifferenceHamiltonian",
    "ElongationProfile",
    "EuclideanSpace",
    "HamiltonianField",
    "HoferNorms",
    "StripMap",
    "energy_functional",
    "euclidean_plane",
    "flow",
    "gauge_plus",
    "hofer_norms",
    "pullback_area",
    "rho_k",
    "rho_plus",
    "run_suite",
    "suite_actiondiff",
    "suite_energy",
    "suite_hat",
    "suite_hofer",
    "verify_actiondiff",
    "verify_energy_identity",
]

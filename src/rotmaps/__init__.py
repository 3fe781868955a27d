"""Rotation maps of regular graphs.

Build consistent rotation maps for standard families, compose them over
Cartesian (box) products cloud by cloud, read maps off adjacency matrices,
solve for consistent labelings of arbitrary regular graphs, and export the
dart shift permutation that a coined walk's move step uses.
"""

from .adjacency import (
    AdjacencyMatrix,
    ProductPropertyReport,
    Spectrum,
    adjacency_from_rotation,
    cartesian_adjacency,
    product_property_check,
    rotation_from_adjacency,
    spectrum,
    spectrum_deviation,
    sum_spectra,
)
from .core import (
    RotationMatrix,
    ValidationReport,
    Violation,
    is_consistent,
    to_full_form,
    validate,
)
from .exceptions import (
    ConvergenceError,
    InconsistentInputWarning,
    InvalidRotationMapError,
    MalformedInputError,
    ParameterError,
    RegularityError,
    RotmapsError,
    SearchBudgetExceededError,
)
from .families import (
    complete,
    complete_bipartite,
    cycle,
    generalized_petersen,
    hypercube,
    k2,
)
from .product import cartesian_rotation
from .shift import ShiftPermutation, build_shift, verify_unitary
from .solver import solve_backtracking, solve_matching

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "ConvergenceError",
    "InconsistentInputWarning",
    "InvalidRotationMapError",
    "MalformedInputError",
    "ParameterError",
    "ProductPropertyReport",
    "RegularityError",
    "RotationMatrix",
    "RotmapsError",
    "SearchBudgetExceededError",
    "ShiftPermutation",
    "Spectrum",
    "ValidationReport",
    "Violation",
    "adjacency_from_rotation",
    "build_shift",
    "cartesian_adjacency",
    "cartesian_rotation",
    "complete",
    "complete_bipartite",
    "cycle",
    "generalized_petersen",
    "hypercube",
    "is_consistent",
    "k2",
    "product_property_check",
    "rotation_from_adjacency",
    "solve_backtracking",
    "solve_matching",
    "spectrum",
    "spectrum_deviation",
    "sum_spectra",
    "to_full_form",
    "validate",
    "verify_unitary",
]

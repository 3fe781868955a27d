"""Exception and warning types shared across the package."""

__all__ = ["RotmapsError", "MalformedInputError", "InvalidRotationMapError", "ParameterError",
           "RegularityError", "ConvergenceError", "SearchBudgetExceededError",
           "InconsistentInputWarning"]


class RotmapsError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(RotmapsError, ValueError):
    """A table, matrix, or file does not have the required shape or values."""


class InvalidRotationMapError(RotmapsError, ValueError):
    """An operation needed a structurally valid rotation map and got violations."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class ParameterError(RotmapsError, ValueError):
    """A family parameter, size, search budget or tolerance outside its admissible domain."""


class RegularityError(RotmapsError, ValueError):
    """The adjacency matrix is not regular, or has no edges where a positive degree is required."""


class ConvergenceError(RotmapsError, RuntimeError):
    """The LAPACK eigensolver (``np.linalg.eigvalsh``) failed to converge."""


class SearchBudgetExceededError(RotmapsError, RuntimeError):
    """The backtracking search ran out of its node budget before finishing."""

    def __init__(self, message, nodes_explored):
        super().__init__(message)
        self.nodes_explored = int(nodes_explored)


class InconsistentInputWarning(UserWarning):
    """A valid but inconsistent rotation map was supplied; the result's consistency is not guaranteed."""

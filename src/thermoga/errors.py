"""Exception types shared across the package."""


class InvalidSizeError(ValueError):
    """System size below the minimum the operation supports."""


class DegenerateDisorderError(ValueError):
    """Coupling parameters under which every configuration is a ground state."""


class DimensionMismatchError(ValueError):
    """Inputs whose lengths or shapes do not agree."""


class SizeCapError(ValueError):
    """Exhaustive operation requested above its hard size cap."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class InsufficientDataError(ValueError):
    """Not enough data points inside the requested window."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget.

    Carries the last iterate so callers can inspect how close it got.
    """

    def __init__(self, message, m=None, q=None, residual=None, iterations=None):
        super().__init__(message)
        self.m = m
        self.q = q
        self.residual = residual
        self.iterations = iterations


class OracleInconsistencyError(RuntimeError):
    """A trajectory undercuts the exact ground state; data and oracle disagree."""

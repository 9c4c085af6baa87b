"""Exception types shared across the package."""

__all__ = ["ParameterError", "ConvergenceError", "NumericalRangeError"]


class ParameterError(ValueError):
    """Raised when deformation parameters, physical scales, or function
    arguments fall outside their admissible domain."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative computation (series summation, adaptive
    quadrature, distribution truncation) fails to reach the requested
    tolerance within its budget."""


class NumericalRangeError(ArithmeticError):
    """Raised when a value cannot be represented in the requested form,
    e.g. a linear-scale result that overflows double precision."""

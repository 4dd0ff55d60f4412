"""Shared exception types for exact evaluations."""


class PoleError(ValueError):
    """A formula was evaluated at a pole of one of its coefficients."""


class DegeneratePointError(ValueError):
    """An evaluation point violates a genericity requirement (repeated variables)."""


class ParameterError(ValueError):
    """A parameter lies outside the domain of the operation."""


class OutOfBoxError(ValueError):
    """A partition or plane partition does not fit the required bounding box."""


class IdentityError(ArithmeticError):
    """Two exact routes to the same quantity disagreed."""


class PrecisionError(ArithmeticError):
    """A truncated-series computation ran out of working precision."""

"""Shared exception types for numerical contract violations."""


class SingularToTolerance(ArithmeticError):
    """A matrix required to be positive definite is not, or has a pivot at or
    below tolerance."""


class NonFinite(ValueError):
    """An input or result contains NaN or infinity."""

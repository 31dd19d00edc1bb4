"""Exceptions shared across the package."""


class CapacityError(ValueError):
    """A size cap was exceeded (book size, atom count, dimension, trial count)."""


class NullConditionError(ArithmeticError):
    """Conditioning event has (numerically) zero probability, so the update is undefined."""

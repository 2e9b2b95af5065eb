"""Exception types shared across the package.

All of these derive from ValueError so callers that only care about
"bad input" can catch one base class.
"""


class NormalizationError(ValueError):
    """A state vector, density matrix, or parameter pair is not normalized."""


class DimensionError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


class RangeError(ValueError):
    """A real parameter lies outside its documented domain."""

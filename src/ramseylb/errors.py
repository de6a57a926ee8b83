"""Exception hierarchy for the package.

ParameterError and its subclasses map to CLI exit status 2,
ResourceCapError to exit status 3.
"""


class RamseyLBError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(RamseyLBError):
    """An argument violates a documented precondition."""


class DimensionError(ParameterError):
    """Vectors or matrices with mismatched lengths or moduli."""


class CapacityError(ParameterError):
    """More elements requested than the population contains."""


class FormatError(ParameterError):
    """Malformed coloring or certificate text."""


class ResourceCapError(RamseyLBError):
    """An explicit enumeration, search node or bound size cap was exceeded."""

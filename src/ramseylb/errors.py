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


def _require_ints(**values: object) -> None:
    """Raise ParameterError for the first value that is not exactly an
    int; a float, a Fraction or a bool is refused before any check or
    arithmetic reads it."""
    for name, value in values.items():
        if type(value) is not int:
            raise ParameterError(f"{name}={value!r} must be an int")


def _require_node_cap(cap: object) -> None:
    """Raise ParameterError unless a search node cap is an int >= 1."""
    _require_ints(cap=cap)
    if cap < 1:
        raise ParameterError(f"node cap {cap} must be positive")

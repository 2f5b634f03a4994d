"""Typed exceptions shared across the package."""


class PartitionGFError(Exception):
    """Base class for all errors raised by this package."""


class OrderTooLarge(PartitionGFError):
    """A series was asked for coefficients beyond its guaranteed order."""


class InvalidExponent(PartitionGFError):
    """A q-exponent that must be positive was zero or negative."""


class InternalError(PartitionGFError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class InvalidDistance(PartitionGFError):
    """A distance vector was empty or had an entry that is not an integer >= 1."""


class OutOfRange(PartitionGFError):
    """Arguments violate a theorem hypothesis (e.g. total distance t <= k)."""


class TooLarge(PartitionGFError):
    """An input exceeds a route's documented size cap (CLI exit code 2)."""


class InsufficientSamples(PartitionGFError):
    """A residue class has fewer sample points than degree + 1."""


class InconsistentSamples(PartitionGFError):
    """Extra sample points contradict the interpolated polynomial."""


class NonConstantLeading(PartitionGFError):
    """Residue classes disagree on the top-degree coefficient."""


class NotFound(PartitionGFError):
    """A requested fixture file does not exist."""


class ParseError(PartitionGFError):
    """Malformed b-file content."""


class NetworkError(PartitionGFError):
    """A remote fetch failed."""


class EmptyOverlap(PartitionGFError):
    """A cross-check had no indices in common with the computed values."""

"""Exception types shared across the package.

Everything raised on purpose derives from SubexpError so callers (and the CLI
runner) can distinguish modeling errors from genuine bugs.
"""


class SubexpError(Exception):
    """Base class for all deliberate failures."""


class NotConvergent(SubexpError):
    """A requested limit (mean, truncation limit) does not exist."""


class QuadratureNotConverged(SubexpError):
    """A doubling tail integral did not settle at the requested tolerance."""


class TargetOutOfRange(SubexpError):
    """Requested long-run mean lies outside the attainable mean interval."""


class DimensionTooLarge(SubexpError):
    """Direction nets are capped at dimension 4."""


class NonLattice(SubexpError):
    """Atom values are not integer multiples of the stated quantum."""


class StateSpaceTooLarge(SubexpError):
    """Dynamic program would exceed the documented state-count guard."""


class TooLargeForBruteForce(SubexpError):
    """Instance exceeds the brute-force oracle's enumeration limits."""


class NonFiniteVerdict(SubexpError):
    """A row would pass or fail a tolerance on an infinite or NaN value."""


class SchemaError(SubexpError, ValueError):
    """Configuration document violates the schema; message carries the field path."""

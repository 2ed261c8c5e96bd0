"""Exception hierarchy shared across the package."""


class MsvolError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MsvolError, ValueError):
    """A parameter is outside its admissible range."""


class DimensionMismatch(MsvolError, ValueError):
    """Array shapes are inconsistent with the model dimension."""


class NotPositiveDefinite(MsvolError):
    """A matrix required to be positive definite is not."""


class DataError(MsvolError):
    """Base class for ingestion failures."""


class ParseError(DataError):
    """A cell of the input file could not be parsed as a number."""


class MissingValue(DataError):
    """The input contains a missing (NaN/empty) entry."""


class NonPositiveLevel(DataError):
    """A price level is zero or negative, so its log-return is undefined."""

"""Exception types shared across the package.

The distinction that matters operationally: ``ResourceGuardError`` means
"refused, too big for this code path" and maps to exit code 2 in the CLI;
everything else is a plain usage error.
"""


class GcdClusterError(Exception):
    """Base class for package-specific errors."""


class OutOfRangeError(GcdClusterError, ValueError):
    """A query exceeds what the prime table (or another structure) covers."""


class ResourceGuardError(GcdClusterError, RuntimeError):
    """An operation was refused because it would be unreasonably expensive."""


class DegenerateThresholdError(GcdClusterError, ArithmeticError):
    """A threshold denominator is zero or negative; no finite bound exists."""

"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: ConfigurationError -> 2,
SolverError -> 3, any other WfGibbsError -> 1; a failed validation
comparison also exits 1. Everything else is a bug.
"""


class WfGibbsError(Exception):
    """Base class for all library errors."""


class ConfigurationError(WfGibbsError):
    """Invalid user-supplied configuration (grid, potential, config file)."""


class UsageError(WfGibbsError):
    """A precondition of an operation was violated by the caller."""


class SolverError(WfGibbsError):
    """An iterative solver failed to converge, or an exact evaluation left
    the range of doubles.

    Carries the best residual reached, when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnreachableTargetError(SolverError):
    """<q> stopped approaching the requested expectation value: it is not
    reachable on the configured grid."""


class CoverageError(WfGibbsError):
    """An effective-potential table does not cover the thermally relevant
    range for a requested inverse temperature."""

    def __init__(self, message, beta=None):
        super().__init__(message)
        self.beta = beta


class TruncationError(ConfigurationError):
    """Basis truncation too small for the requested inverse temperature."""

"""Exception hierarchy shared by all modules: one base and four leaves.

The CLI maps the leaves onto process exit codes: ConfigurationError -> 2,
SolverError -> 3, UsageError and CoverageError -> 1; a failed validation
comparison also exits 1. Everything else is a bug.
"""


class WfGibbsError(Exception):
    """Base class for all library errors."""


class ConfigurationError(WfGibbsError):
    """Invalid user-supplied configuration (grid, potential, config file,
    or a basis truncation too small for the requested inverse temperature)."""


class UsageError(WfGibbsError):
    """A precondition of an operation was violated by the caller."""


class SolverError(WfGibbsError):
    """An iterative solver failed to converge or its target is out of
    reach, an exact evaluation left the range of doubles, or a worker
    process ended without a result.

    Carries the best residual reached, when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CoverageError(WfGibbsError):
    """No effective-potential table, or none that fits in memory, covers
    the thermally relevant range for a requested inverse temperature."""

    def __init__(self, message, beta=None):
        super().__init__(message)
        self.beta = beta

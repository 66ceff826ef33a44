"""Exception types shared across the library.

The CLI maps these onto exit codes: config problems exit 2, unreachable
targets exit 3, tripped numerical guards exit 4.
"""


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class InfeasibleMeanError(ValueError):
    """No distribution in the requested family has the requested mean."""


class UnreachableTargetError(RuntimeError):
    """The target delta stays out of reach over the whole search bracket."""


class GridTooCoarseError(RuntimeError):
    """Discretization error of a loss grid exceeds the allowed budget."""


class MemoryBudgetError(RuntimeError):
    """A composed loss grid would exceed the cell budget."""


class NoAdmissibleEps1Error(RuntimeError):
    """No eps1 in the search range satisfies the bound's admissibility condition."""

"""Exception types shared across the package.

Everything that signals bad input data derives from ``DataError`` so the
CLI can map it to a single exit code; solver non-convergence is kept
separate because it indicates a numerical failure, not a user mistake.
"""


class HierDPError(Exception):
    """Base class for all errors raised by this package."""


class DataError(HierDPError):
    """Invalid input data or arguments (CLI exit code 3)."""


# hierarchy ingestion / validation

class MissingRoot(DataError):
    pass


class DuplicateId(DataError):
    pass


class OrphanNode(DataError):
    pass


class LevelMismatch(DataError):
    pass


class NegativeCount(DataError):
    pass


class InvalidSpec(DataError):
    pass


# closed forms and their arguments

class DomainError(DataError):
    """Argument outside the domain of a closed-form expression."""


class LengthMismatch(DataError):
    pass


# allocator

class NoPositiveWeight(DomainError):
    """Weight vector with no positive entry; nothing to optimize."""


class ConvergenceFailure(HierDPError):
    """Solver failed to meet its stationarity/feasibility tolerances
    (CLI exit code 4). Carries iteration diagnostics in the message."""


# release engine

class AllocationMismatch(DataError):
    pass


class UnreleasedLevel(DataError):
    """Operation requires noisy values at every level of the tree."""


# downstream allocation

class ZeroTotal(DataError):
    pass


class DegenerateWeights(DataError):
    pass


class InvalidSplit(DataError):
    pass

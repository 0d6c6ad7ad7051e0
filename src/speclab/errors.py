"""Exception types shared across the package.

Every error raised on a contract violation derives from SpeclabError so
callers (and the CLI) can distinguish domain failures from programming
bugs.  Names state the violated precondition.
"""


class SpeclabError(Exception):
    """Base class for all domain errors."""


class IndexOutOfRange(SpeclabError):
    """A vertex index falls outside 0..n-1 for the host graph."""


class NotAnEdge(SpeclabError):
    """An operation required an existing edge between two distinct vertices."""


class SizeLimitExceeded(SpeclabError):
    """A construction or operation exceeded its supported size bound."""


class MalformedGraph6(SpeclabError):
    """A byte string is not a valid graph6 encoding."""


class InvalidSpec(SpeclabError):
    """A family spec has a bad kind, or missing or out-of-range parameters."""


class UnsupportedFamily(SpeclabError):
    """No closed-form spectral radius is known for the requested family."""


class EmptyGraph(SpeclabError):
    """Spectral quantities of the 0-vertex graph are undefined."""


class ConvergenceFailure(SpeclabError):
    """Power iteration failed to reach the residual tolerance within max_iter."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class Disconnected(SpeclabError):
    """An operation requires a connected graph."""


class PatternTooLarge(SpeclabError):
    """Minor-search patterns are capped at 12 vertices."""


class OverlappingSets(SpeclabError):
    """Vertex sets required to be disjoint overlap."""


class PreconditionFailed(SpeclabError):
    """A checked operation precondition does not hold for the supplied input."""


class BudgetExhausted(PreconditionFailed):
    """The node budget ran out before a precondition could be settled."""


class VerificationFailed(SpeclabError):
    """A verification pass found a claim that does not hold."""

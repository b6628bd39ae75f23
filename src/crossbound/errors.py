"""Exception types shared across the package."""


class CrossboundError(Exception):
    """Base class for all package errors."""


class GraphFormatError(CrossboundError):
    """Malformed input text for a graph format."""


class DuplicateEdgeError(GraphFormatError):
    """An edge-list input repeats an edge; duplicates are rejected, not deduped."""


class MissingEdgeError(CrossboundError):
    """An operation referenced an edge that is not in the graph."""


class NotACycleError(CrossboundError):
    """A vertex sequence was expected to be a simple cycle but is not."""


class NonPlanarError(CrossboundError):
    """A planar embedding was requested for a non-planar graph.

    ``witness`` holds the edges of a Kuratowski (K5 or K3,3) subdivision
    when the planarity test produced one, else None.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(CrossboundError):
    """An exhaustive search ran out of its configured budget.

    ``established`` carries whatever partial fact the search did prove
    (e.g. a lower bound that is now known to hold).
    """

    def __init__(self, message, established=None):
        super().__init__(message)
        self.established = established


class NotCriticalError(CrossboundError):
    """A graph asked to be certified as k-crossing-critical is not."""


class InductionFallbackError(CrossboundError):
    """The delete/contract induction left a graph outside its own hypotheses."""

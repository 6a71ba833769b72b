"""Exception types shared across the library."""


class TopologyError(ValueError):
    """An input family or relation violates a structural axiom."""


class MissingEmptyOrFull(TopologyError):
    """The open family lacks the empty set or the full ground set."""


class NotClosedUnderUnion(TopologyError):
    """Two opens whose union is missing.  The pair is kept as a witness."""

    def __init__(self, u: int, v: int, message: str = ""):
        self.witness = (u, v)
        super().__init__(message or f"union of opens {u:#b} and {v:#b} is not open")


class NotClosedUnderIntersection(TopologyError):
    """Two opens whose intersection is missing.  The pair is kept as a witness."""

    def __init__(self, u: int, v: int, message: str = ""):
        self.witness = (u, v)
        super().__init__(
            message or f"intersection of opens {u:#b} and {v:#b} is not open"
        )


class NotAPreorder(TopologyError):
    """The relation is not reflexive or not transitive."""


class GroundSetTooLarge(TopologyError):
    """The ground set exceeds what a sweep or mask representation supports."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget."""


class DocumentError(ValueError):
    """A space or map document is structurally malformed."""

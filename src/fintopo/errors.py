"""Exception types shared across the library."""


class TopologyError(ValueError):
    """An input family or relation violates a structural axiom."""


class MissingEmptyOrFull(TopologyError):
    """The open family lacks the empty set or the full ground set."""


class _OpenPairError(TopologyError):
    """Two opens that break a closure axiom.  The pair is kept as a witness."""

    _template = ""

    def __init__(self, u: int, v: int, message: str = ""):
        self.witness = (u, v)
        super().__init__(message or self._template.format(u, v))

    def __reduce__(self):
        # args holds only the message, so pickling spells out the pair
        return type(self), (*self.witness, str(self))


class NotClosedUnderUnion(_OpenPairError):
    """Two opens whose union is missing."""

    _template = "union of opens {:#b} and {:#b} is not open"


class NotClosedUnderIntersection(_OpenPairError):
    """Two opens whose intersection is missing."""

    _template = "intersection of opens {:#b} and {:#b} is not open"


class NotAPreorder(TopologyError):
    """The relation is not reflexive or not transitive."""


class GroundSetTooLarge(TopologyError):
    """The ground set exceeds what a sweep or mask representation supports."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget."""


class DocumentError(ValueError):
    """A space or map document is structurally malformed."""

"""Exception hierarchy shared across the package.

The leaf classes map onto the CLI exit codes: structural and domain
problems exit with 2, capacity problems with 3, and a violated internal
invariant (an exact chain identity that failed to hold) with 5.  I/O
failures are reported with the interpreter's own OSError family and exit
with 4.
"""


class FillboundError(Exception):
    """Base class for all library errors."""


class StructuralError(FillboundError):
    """Malformed data: invalid indices, inconsistent dimensions, bad labels."""


class DomainError(FillboundError):
    """Well-formed data outside an operation's mathematical domain."""


class CapacityError(FillboundError):
    """An explicit enumeration or search budget was exceeded.

    When a search was interrupted, ``incumbent`` carries the best solution
    found so far (not certified optimal) and ``incumbent_cost`` its value.
    """

    def __init__(self, message, incumbent=None, incumbent_cost=None):
        super().__init__(message)
        self.incumbent = incumbent
        self.incumbent_cost = incumbent_cost


class InvariantError(FillboundError):
    """An exact identity that the algorithms guarantee did not hold.

    Raised by the checks on every run (e.g. ``boundary(E) == C`` after a
    fill); seeing it means a bug, not bad input.
    """

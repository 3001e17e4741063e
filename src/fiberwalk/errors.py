"""Exception hierarchy shared by all fiberwalk modules."""


class FiberwalkError(Exception):
    """Base class for all errors raised by fiberwalk."""


class InvalidStateError(FiberwalkError):
    """A state does not fit its state space (wrong arity or coordinate range)."""


class InvalidMoveError(FiberwalkError):
    """A move violates its construction invariants (overlap, degree mismatch)."""


class MoveNotApplicableError(FiberwalkError):
    """The move's negative part is not dominated by the table."""


class UnsupportedLevelsError(FiberwalkError):
    """An operation restricted to binary levels was called on wider levels."""


class InvalidPartitionError(FiberwalkError):
    """Vertex sets passed to a separation query overlap or are empty."""


class TooLargeError(FiberwalkError):
    """An enumeration exceeds its stated desk-scale budget."""


class FiberTooLargeError(TooLargeError):
    """Fiber enumeration hit its size cap before completing."""


class IncompatibleShapeError(FiberwalkError):
    """Objects over different state spaces or row sets were combined."""


class InvalidWitnessMoveError(FiberwalkError):
    """The move offered for a disconnection witness touches the prime's variables."""


class NoClosedFormError(FiberwalkError):
    """The graph is not one the closed-form families are written for."""


class InvalidInputError(FiberwalkError):
    """An input file is missing, unreadable, or not in its documented JSON format."""

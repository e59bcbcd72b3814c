"""Exception hierarchy for the scroll fiber-cone engine."""


class ScrollError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(ScrollError, ValueError):
    """An operation was called outside its stated precondition."""


class InvalidVertexError(PreconditionError):
    """A vertex (a, b) violates 1 <= a < b <= c."""


class UnsupportedRegimeError(PreconditionError):
    """The complex machinery requires c >= d + 4; smaller scrolls are
    handled by closed-form predictions and the rank oracle only."""


class DomainError(ScrollError, ValueError):
    """Objects from incompatible scrolls were combined."""


class StructuralError(ScrollError):
    """A vertex set does not carry the required tree structure."""


class CapacityError(ScrollError):
    """A work budget was exceeded.  Each budget is a module constant next to
    the layer it bounds, checked before that work starts or while it runs."""


class VerificationError(ScrollError):
    """A mathematical cross-check failed; results must not be trusted."""


class InternalError(ScrollError):
    """An invariant the construction guarantees was violated."""

"""Typed errors raised when an operation's documented contract is violated."""


class DomainError(Exception):
    """Base class for contract violations; the CLI maps these to exit code 4."""


class UnknownLabel(DomainError):
    """An infinite-index label was used without being declared in its context."""


class InadmissibleIndex(DomainError):
    """An index pair or truncation bound lies outside the interval kind's range."""


class TooFewMembers(DomainError):
    """A conjunction word needs at least two distinct conjuncts."""


class IncomparableMembers(DomainError):
    """Segments from different paradigms cannot be arranged by the induced order."""


class UnknownSentence(DomainError):
    """A sentence was used that does not belong to the declared language."""


class AxiomCollision(DomainError):
    """A supplied axiom set overlaps the atoms or conjunctions of a decomposition."""


class NotPerceived(DomainError):
    """A premise set strays outside the declared perceived set."""


class EmptySource(DomainError):
    """A behavior signature or observation needs a nonempty source set."""


class TagCollision(DomainError):
    """A sentence already carries the reserved tag suffix."""


class Unlimited(DomainError):
    """A value with a negative infinitesimal exponent has no standard part."""


class SizeLimit(DomainError, ValueError):
    """An exponential operation was asked for more than its documented size."""

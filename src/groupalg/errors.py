"""Exception types shared across the package."""


class GroupalgError(Exception):
    """Base class for all domain errors raised by groupalg."""


class UnknownLabel(GroupalgError):
    """A pair or map referenced an object label that was never declared."""


class UnknownObject(GroupalgError):
    """An object index is out of range for the groupoid."""


class NotClosed(GroupalgError):
    """A strict relation is not reflexive-on-support, symmetric and transitive.

    ``witness`` is the missing pair (labels) whose absence breaks closure.
    """

    def __init__(self, message: str, witness: tuple[str, str]):
        super().__init__(message)
        self.witness = witness


class NotRelationGroupoid(GroupalgError):
    """Operation needs a relation-derived groupoid (no isotropy beyond units)."""


class DomainMismatch(GroupalgError):
    """Bisection domains are incompatible for the requested operation."""


class NotTransitive(GroupalgError):
    """Operation needs a transitive groupoid (a single orbit)."""


class ShapeMismatch(GroupalgError):
    """Vector, matrix or function shapes do not match the groupoid data."""


class SystemInvalid(GroupalgError):
    """An inductive system failed its coherence checks."""


class UndefinedProduct(GroupalgError):
    """A partial product was evaluated outside its declared domain."""


class UsageError(GroupalgError):
    """A setting, such as the GROUPALG_TOL environment variable, is malformed."""


class FileFormatError(GroupalgError):
    """A data file is structurally malformed (schema level, not math level)."""

"""Exception hierarchy shared by all kreisslab modules."""


class KreisslabError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(KreisslabError):
    """Matrix shapes are inconsistent with the requested operation."""


class StabilityError(KreisslabError):
    """An operation requiring a Hurwitz matrix received an unstable one."""


class PreconditionError(KreisslabError):
    """An operation-specific precondition (other than stability) failed."""


class ArgumentError(PreconditionError):
    """A scalar argument lies outside its range; ``name`` names it."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name


class OversizeError(PreconditionError):
    """Input exceeds the dense desk-scale size supported by an operation."""


class NumericalError(KreisslabError):
    """An iterative kernel failed to converge within its iteration cap, or
    a value came out not finite."""


class ConsistencyError(KreisslabError):
    """A computed value violates one of its own certified bounds."""


class EnumerationError(KreisslabError):
    """A combinatorial sweep was requested beyond the supported size."""


class SynthesisError(KreisslabError):
    """Controller synthesis failed (e.g. no stabilizing initialization)."""


class IndeterminateError(KreisslabError):
    """A feasibility solver hit its iteration cap without a decision."""


class SchemaError(KreisslabError):
    """A problem or certificate file does not match the documented schema."""

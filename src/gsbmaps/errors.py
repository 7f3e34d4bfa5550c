"""Exception types shared across the package."""


class GsbError(Exception):
    """Base class for every error raised by this package."""


class ModelMismatchError(GsbError):
    """Operands belong to different Brauer group models."""


class PreconditionError(GsbError):
    """A documented hypothesis of an operation is violated by the inputs."""


class InstanceFormatError(GsbError):
    """An instance file or variety expression failed to parse or validate."""


class InvariantViolation(GsbError):
    """An internal consistency check failed; a bug, not bad input."""

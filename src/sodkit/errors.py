"""Exception types shared across the library."""


class SodkitError(Exception):
    """Base class for all library errors."""


class DimensionError(SodkitError):
    """Tensor extents do not satisfy an operation's shape contract."""


class TilingError(SodkitError):
    """A requested tiling plan is degenerate (non-positive stride)."""


class DomainError(SodkitError):
    """A scalar argument is outside its mathematical domain."""


class ParseError(SodkitError):
    """An input file violates its format contract."""

    def __init__(self, message, index=None):
        super().__init__(message if index is None else f"entry {index}: {message}")
        self.index = index


class TrainingError(SodkitError):
    """Training diverged (non-finite loss)."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class EvaluationError(SodkitError):
    """gradient_check's objective is non-finite at a perturbed point."""

"""Exception types shared across the library, and its whole-number rule."""

import contextlib
import sys


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


def _whole(name, value, least, error=DomainError) -> int:
    """value as an int, if it is a whole number >= least (0 or 1) and not a bool
    (numpy's counts once numpy is loaded, as none exists before); else error."""
    if not isinstance(value, (bool, getattr(sys.modules.get("numpy"), "bool_", bool))):
        with contextlib.suppress(TypeError, ValueError, OverflowError):  # None, "x", nan, inf
            if int(value) == value and value >= least:
                return int(value)
    sign = "positive" if least else "non-negative"
    raise error(f"{name} must be a {sign} integer, got {value!r}")

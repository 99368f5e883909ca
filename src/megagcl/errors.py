"""Exception types shared across the package, and the two rules that check
each setting where it enters, ``require_count`` and ``require_real``; both
raise ``ConfigError`` naming the setting."""

import math


class MegaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MegaError):
    """An operation received tensors whose shapes do not conform.

    Carries the operation kind and the offending shapes so callers (and
    error messages) can name exactly what went wrong.
    """

    def __init__(self, kind, shapes, detail=""):
        self.kind = kind
        self.shapes = [tuple(s) for s in shapes]
        msg = f"{kind}: incompatible shapes {self.shapes}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TapeError(MegaError):
    """Misuse of the differentiation tape (detached loss, off-tape parameter,
    non-differentiable gradients where differentiable ones are required)."""


class NumericError(MegaError):
    """A numeric failure: non-finite loss or gradient, zero-norm row where a
    direction is required, or a failed gradient check."""


class DataError(MegaError):
    """Malformed or missing input data (dataset files, parameter files)."""


class ConfigError(MegaError):
    """Invalid configuration or command-line usage."""


def require_count(name, value, least):
    """Raise ``ConfigError`` unless ``value`` is an int, not a bool, of at
    least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(
            f"{name} must be an int of at least {least}, got {value!r}")


def require_real(name, value, zero_ok):
    """Raise ``ConfigError`` unless ``value`` is an int or a float, not a
    bool, that is finite and above 0, or 0 too when ``zero_ok``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value)
            and (value > 0 or zero_ok and value == 0)):
        raise ConfigError(
            f"{name} must be an int or a float that is finite and "
            f"{'nonnegative' if zero_ok else 'positive'}, got {value!r}")

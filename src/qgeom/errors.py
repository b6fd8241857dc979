"""Exception hierarchy shared across the toolkit, and the one argument rule."""

import math


class QGeomError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidConstantError(QGeomError):
    """A fundamental constant is non-positive or non-finite."""


class InvalidSpinError(QGeomError):
    """Spin is negative or not a multiple of 1/2."""


class CapacityError(QGeomError):
    """Requested representation or dense view exceeds its dimension cap."""


class ShapeError(QGeomError):
    """State vector and representation dimensions disagree."""


class InvalidSeparationError(QGeomError):
    """Separation or radius argument is non-positive."""


class UndersamplingError(QGeomError):
    """Sample rate too low to resolve the coherence window."""


class InsufficientDurationError(QGeomError):
    """Time series too short for the requested operation."""


class InsufficientDataError(QGeomError):
    """Requested lag range exceeds what the series supports."""


class SegmentationError(QGeomError):
    """Invalid Welch segmentation parameters."""


class InvalidGridError(QGeomError):
    """Frequency grid is not non-negative and increasing."""


class InvalidBandError(QGeomError):
    """Frequency band is empty or inverted."""


class InvalidMassError(QGeomError):
    """Mass argument is non-positive."""


class InvalidInputError(QGeomError):
    """Generic invalid numeric input."""


def positive(name: str, value: float, error: type[QGeomError]) -> None:
    """Raise error unless value is positive and finite (NaN is neither)."""
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value!r}")

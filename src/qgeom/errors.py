"""The one domain error, the one argument rule and the one file rule of the toolkit.

Every refusal raises QGeomError, a ValueError whose message names the bad
argument or file; no subclass tells one refusal from another, the message does.
"""

import contextlib
import math
import sys

import numpy as np

# the most float64 values one array can hold: beyond it the byte count
# exceeds any address space, and numpy raises ValueError, not MemoryError
MAX_ARRAY_LEN = sys.maxsize // 8


class QGeomError(ValueError):
    """An input outside the model, or a result that float64 cannot hold."""


def positive(name: str, value) -> None:
    """Raise QGeomError unless value, a number or an array, is positive and
    finite (NaN is neither); an array is reported by its first entry that is not."""
    values = np.asarray(value)
    bad = values[~((0.0 < values) & (values < math.inf))]
    if bad.size:
        raise QGeomError(f"{name} must be positive and finite, got {bad[0].item()!r}")


@contextlib.contextmanager
def opened(path, mode: str = "r"):
    """Open path as UTF-8 text; an OSError from open, read, write or close,
    and text that is not UTF-8, become one QGeomError naming the path."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        verb = "read" if mode == "r" else "write"
        raise QGeomError(
            f"{path}: cannot {verb}: {getattr(exc, 'strerror', None) or exc}") from None

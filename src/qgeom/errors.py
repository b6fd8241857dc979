"""The one domain error and the one argument rule of the toolkit.

Every refusal raises QGeomError, a ValueError whose message names the bad
argument; no subclass tells one refusal from another, the message does.
"""

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
    if np.ndim(value):
        bad = np.extract(~((0.0 < value) & (value < math.inf)), value)
        if not bad.size:
            return
        value = bad[0].item()
    if not 0.0 < value < math.inf:
        raise QGeomError(f"{name} must be positive and finite, got {value!r}")

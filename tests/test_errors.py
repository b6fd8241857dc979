import math

import numpy as np
import pytest

from qgeom.errors import QGeomError, positive


@pytest.mark.parametrize("value, shown", [
    (-5.0, "-5.0"),
    (-5, "-5"),
    # a numpy scalar and a 0-d array read as the number they hold
    (np.float64("inf"), "inf"),
    (np.array(-5.0), "-5.0"),
    # an array is reported by its first entry that is not positive and finite
    (np.array([1.0, np.nan, -2.0]), "nan"),
    (np.array([3, -2]), "-2"),
    # a Python number is checked without numpy, and reads as its repr
    (math.nan, "nan"),
    pytest.param(math.inf, "inf", id="python-inf"),
    (-0.0, "-0.0"),
    (0, "0"),
])
def test_positive_refusal_names_the_value(value, shown):
    with pytest.raises(QGeomError) as exc:
        positive("x", value)
    assert str(exc.value) == f"x must be positive and finite, got {shown}"


@pytest.mark.parametrize("value", [1.0, 5e-324, 3, np.float64(2.0), np.array([1.0, 2.0]),
                                   np.array([])])
def test_positive_accepts(value):
    positive("x", value)

import math

import numpy as np
import pytest

from qgeom.bounds import compton_size
from qgeom.constants import codata_scale, derive_planck_scale
from qgeom.errors import QGeomError, positive

BEYOND = "an int beyond the float range"


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
    # an int that no float holds is named without its digits: str() refuses
    # an int of more than 4,300 digits
    pytest.param(10 ** 400, BEYOND, id="int-1e400"),
    pytest.param(10 ** 5000, BEYOND, id="int-1e5000"),
    pytest.param(-10 ** 400, BEYOND, id="int-minus-1e400"),
])
def test_positive_refusal_names_the_value(value, shown):
    with pytest.raises(QGeomError) as exc:
        positive("x", value)
    assert str(exc.value) == f"x must be positive and finite, got {shown}"


@pytest.mark.parametrize("value", [1.0, 5e-324, 3, np.float64(2.0), np.array([1.0, 2.0]),
                                   np.array([])])
def test_positive_accepts(value):
    positive("x", value)


@pytest.mark.parametrize("call, name", [
    (lambda: derive_planck_scale(hbar=10 ** 400), "hbar"),
    (lambda: compton_size(10 ** 400, codata_scale()), "mass"),
], ids=["derive_planck_scale", "compton_size"])
def test_callers_refuse_an_int_beyond_the_float_range(call, name):
    with pytest.raises(QGeomError) as exc:
        call()
    assert str(exc.value) == f"{name} must be positive and finite, got {BEYOND}"

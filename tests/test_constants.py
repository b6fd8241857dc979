import math

import pytest
from hypothesis import given, strategies as st

from qgeom.constants import derive_planck_scale
from qgeom.errors import QGeomError


def test_planck_length_anchor():
    s = derive_planck_scale(hbar=1.0546e-34, G=6.674e-11, c=2.998e8)
    assert s.planck_length == pytest.approx(1.616e-35, rel=5e-4)


def test_lambda_oracle():
    # oracle: published planck length divided by sqrt(4 pi), evaluated separately
    s = derive_planck_scale(hbar=1.0546e-34, G=6.674e-11, c=2.998e8)
    assert s.lam == pytest.approx(1.616e-35 / math.sqrt(4 * math.pi), rel=5e-4)
    assert s.lam == pytest.approx(4.559e-36, rel=5e-4)


def test_planck_mass_oracle():
    hbar, G, c = 1.0546e-34, 6.674e-11, 2.998e8
    s = derive_planck_scale(hbar=hbar, G=G, c=c)
    assert s.planck_mass == pytest.approx(math.sqrt(hbar * c / G), rel=1e-12)
    assert s.planck_mass == pytest.approx(2.176e-8, rel=5e-4)


def test_internal_consistency(scale):
    assert scale.planck_length == pytest.approx(
        math.sqrt(scale.hbar * scale.G / scale.c ** 3), rel=1e-12)
    assert scale.c * scale.planck_time / scale.planck_length == pytest.approx(1.0)
    assert scale.lam == pytest.approx(
        scale.planck_length / math.sqrt(4 * math.pi), rel=1e-12)
    assert all(v > 0 for v in (scale.hbar, scale.G, scale.c, scale.planck_length,
                               scale.planck_time, scale.planck_mass, scale.lam))


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_hbar_scaling(s):
    # multiplying hbar by s^2 multiplies planck_length by s
    base = derive_planck_scale(hbar=1.0, G=1.0, c=1.0)
    scaled = derive_planck_scale(hbar=s * s, G=1.0, c=1.0)
    assert scaled.planck_length == pytest.approx(s * base.planck_length, rel=1e-9)


@pytest.mark.parametrize("bad", [
    {"hbar": 0.0}, {"hbar": -1.0}, {"G": 0.0}, {"c": -3e8},
    {"G": float("nan")}, {"c": float("inf")},
])
def test_invalid_constants_rejected(bad):
    (name,) = bad
    with pytest.raises(QGeomError, match=f"^{name} must be positive and finite"):
        derive_planck_scale(**{"hbar": 1.0, "G": 1.0, "c": 1.0, **bad})

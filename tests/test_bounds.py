import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgeom import bounds
from qgeom.constants import derive_planck_scale
from qgeom.errors import QGeomError

M_ELECTRON = 9.109e-31
M_SUN = 1.989e30


def test_compton_size(scale):
    assert bounds.compton_size(M_ELECTRON, scale) == pytest.approx(
        scale.hbar / (M_ELECTRON * scale.c), rel=1e-14, abs=0.0)
    assert bounds.compton_size(M_ELECTRON, scale) == pytest.approx(3.862e-13, rel=1e-3, abs=0.0)
    assert bounds.compton_size(scale.planck_mass, scale) == pytest.approx(
        scale.planck_length, rel=1e-12, abs=0.0)
    assert bounds.compton_size(2.0, scale) == pytest.approx(
        bounds.compton_size(1.0, scale) / 2, rel=1e-14, abs=0.0)


def test_compton_full_convention(scale):
    assert bounds.compton_size(1.0, scale, reduced=False) == pytest.approx(
        2 * math.pi * bounds.compton_size(1.0, scale), rel=1e-14, abs=0.0)


def test_schwarzschild_radius(scale):
    assert bounds.schwarzschild_radius(M_SUN, scale) == pytest.approx(
        2 * scale.G * M_SUN / scale.c ** 2, rel=1e-14)
    assert bounds.schwarzschild_radius(M_SUN, scale) == pytest.approx(2.95e3, rel=2e-3)
    assert bounds.schwarzschild_radius(scale.planck_mass, scale) == pytest.approx(
        2 * scale.planck_length, rel=1e-12, abs=0.0)
    assert bounds.schwarzschild_radius(2.0, scale) == pytest.approx(
        2 * bounds.schwarzschild_radius(1.0, scale), rel=1e-14, abs=0.0)


def test_invalid_mass(scale):
    for fn in (bounds.compton_size, bounds.schwarzschild_radius):
        with pytest.raises(QGeomError, match="mass must be positive"):
            fn(0.0, scale)
        with pytest.raises(QGeomError, match="mass must be positive"):
            fn(-1.0, scale)


def test_intersection_scale(scale):
    # analytic oracle: r^2 = 2 hbar G / c^3
    oracle = math.sqrt(2 * scale.hbar * scale.G / scale.c ** 3)
    assert bounds.intersection_scale(scale) == pytest.approx(oracle, rel=1e-12, abs=0.0)
    ratio = bounds.intersection_scale(scale) / scale.planck_length
    assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)
    assert 1.0 <= ratio <= 2.0


def test_intersection_scale_full_convention(scale):
    # 2 pi hbar/(m c) = 2 G m/c^2 at r^2 = 4 pi hbar G / c^3
    oracle = math.sqrt(4 * math.pi * scale.hbar * scale.G / scale.c ** 3)
    assert bounds.intersection_scale(scale, reduced=False) == pytest.approx(
        oracle, rel=1e-12, abs=0.0)


def test_intersection_scale_at_large_G():
    # the crossing mass sqrt(hbar c / 2G) underflows to 0 here; the closed
    # form never forms it
    big_g = derive_planck_scale(G=1e300)
    assert bounds.intersection_scale(big_g) == 2.7978345174130506e+120
    assert bounds.intersection_scale(big_g) == math.sqrt(2.0) * big_g.planck_length


def test_intersection_scaling_laws():
    base = derive_planck_scale(hbar=1.0, G=1.0, c=1.0)
    assert base.planck_length == pytest.approx(1.0)
    assert bounds.intersection_scale(base) == pytest.approx(math.sqrt(2), rel=1e-12)
    g4 = derive_planck_scale(hbar=1.0, G=4.0, c=1.0)
    assert bounds.intersection_scale(g4) == pytest.approx(
        2 * bounds.intersection_scale(base), rel=1e-12)
    c4 = derive_planck_scale(hbar=1.0, G=1.0, c=4.0)
    assert bounds.intersection_scale(c4) == pytest.approx(
        bounds.intersection_scale(base) * 4.0 ** -1.5, rel=1e-12)


def test_classify_examples(scale):
    assert bounds.classify(M_ELECTRON, 1e-15, scale) == "forbidden_quantum"
    assert bounds.classify(1.0, 1.0, scale) == "classical_matter_side"
    assert bounds.classify(M_ELECTRON, 1e-10, scale) == "field_theory_side"
    below = bounds.classify(scale.planck_mass, scale.planck_length / 10, scale)
    assert below in ("forbidden_quantum", "forbidden_blackhole")
    assert bounds.classify(M_SUN, 1e2, scale) == "forbidden_blackhole"


def test_classify_invalid(scale):
    with pytest.raises(QGeomError, match="size must be positive"):
        bounds.classify(1.0, 0.0, scale)
    with pytest.raises(QGeomError, match="mass must be positive"):
        bounds.classify(-1.0, 1.0, scale)


@given(st.floats(min_value=-30, max_value=35), st.floats(min_value=-40, max_value=10))
def test_classify_exhaustive(log_m, log_s):
    scale = derive_planck_scale()
    regime = bounds.classify(10.0 ** log_m, 10.0 ** log_s, scale)
    assert regime in ("forbidden_quantum", "forbidden_blackhole",
                      "field_theory_side", "classical_matter_side")


def test_classify_metamorphic():
    # rescaling hbar by s^2 with inputs rescaled per the closed forms
    # (mass by s, lengths by s) preserves the regime
    base = derive_planck_scale(hbar=1.0, G=1.0, c=1.0)
    s = 7.0
    scaled = derive_planck_scale(hbar=s * s, G=1.0, c=1.0)
    for mass, size in ((0.1, 5.0), (10.0, 0.05), (3.0, 50.0), (0.01, 0.001)):
        assert (bounds.classify(mass, size, base)
                == bounds.classify(mass * s, size * s, scaled))


def test_unique_crossing(scale):
    masses = np.logspace(-20, 10, 1000)
    compton = bounds.compton_size(masses, scale)
    schwarzschild = bounds.schwarzschild_radius(masses, scale)
    # the Compton line falls and the Schwarzschild line rises
    assert np.all(np.diff(compton) < 0) and np.all(np.diff(schwarzschild) > 0)
    assert np.count_nonzero(np.diff(np.sign(compton - schwarzschild))) == 1


GRID = np.logspace(-30, 40, 1000)
LINES = {
    "compton_reduced": bounds.compton_size,
    "compton_full": lambda mass, scale: bounds.compton_size(mass, scale, reduced=False),
    "schwarzschild": bounds.schwarzschild_radius,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line", LINES.values(), ids=LINES)
def test_lines_elementwise_bitwise(line, scale):
    # one call on the whole grid gives the bits of one call per mass, a
    # Python float taking float arithmetic and the array numpy's, unwarned
    # alike where m c overflows (1e300, whose Compton size is 0.0)
    masses = np.concatenate([GRID, [M_SUN, 1e300, 5e-324]])
    per_mass = [line(float(m), scale) for m in masses]
    assert {type(size) for size in per_mass} == {float}
    assert line(masses, scale).tobytes() == np.array(per_mass).tobytes()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("line", LINES.values(), ids=LINES)
def test_lines_refuse_bad_entry(line, bad, scale):
    # an array with one bad mass fails with that mass's own message
    with pytest.raises(QGeomError, match="mass must be positive") as alone:
        line(bad, scale)
    masses = GRID.copy()
    masses[17] = bad
    with pytest.raises(QGeomError, match="mass must be positive") as in_array:
        line(masses, scale)
    assert str(in_array.value) == str(alone.value)

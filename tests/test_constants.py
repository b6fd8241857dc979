import hashlib
import math
import platform
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from exact_refs import planck_scale, relative_error, ulps
from qgeom.constants import _root_of_powers, codata_scale, derive_planck_scale
from qgeom.errors import QGeomError


def test_planck_length_anchor():
    s = derive_planck_scale(hbar=1.0546e-34, G=6.674e-11, c=2.998e8)
    assert s.planck_length == pytest.approx(1.616e-35, rel=5e-4, abs=0.0)


def test_lambda_oracle():
    # oracle: published planck length divided by sqrt(4 pi), evaluated separately
    s = derive_planck_scale(hbar=1.0546e-34, G=6.674e-11, c=2.998e8)
    assert s.lam == pytest.approx(1.616e-35 / math.sqrt(4 * math.pi), rel=5e-4, abs=0.0)
    assert s.lam == pytest.approx(4.559e-36, rel=5e-4, abs=0.0)


def test_planck_mass_oracle():
    hbar, G, c = 1.0546e-34, 6.674e-11, 2.998e8
    s = derive_planck_scale(hbar=hbar, G=G, c=c)
    assert s.planck_mass == pytest.approx(math.sqrt(hbar * c / G), rel=1e-12)
    assert s.planck_mass == pytest.approx(2.176e-8, rel=5e-4)


def test_internal_consistency(scale):
    assert scale.planck_length == pytest.approx(
        math.sqrt(scale.hbar * scale.G / scale.c ** 3), rel=1e-12, abs=0.0)
    assert scale.c * scale.planck_time / scale.planck_length == pytest.approx(1.0)
    assert scale.lam == pytest.approx(
        scale.planck_length / math.sqrt(4 * math.pi), rel=1e-12, abs=0.0)
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


@pytest.mark.parametrize("constants", [
    {"c": 1e200},                        # c ** 3 overflows
    {"c": 1e-200},                       # c ** 3 underflows to 0
    {"hbar": 1e308, "G": 1e308, "c": 1e-300},  # planck_length inf
    {"hbar": 1e-308, "G": 1e-308, "c": 1e300},  # planck_length 0
    {"hbar": 1e300, "G": 1e-300, "c": 1e100},  # planck_mass inf
    {"hbar": 5e-324, "G": 1e301, "c": 1e300},  # planck_length 0, planck_mass beyond its square
])
def test_planck_scale_out_of_float_range_rejected(constants):
    constants = {"hbar": 1.0, "G": 1.0, "c": 1.0, **constants}
    names = ", ".join(f"{k}={v!r}" for k, v in constants.items())
    with pytest.raises(QGeomError, match=f"of {re.escape(names)} must be positive and finite"):
        derive_planck_scale(**constants)


def test_planck_mass_beyond_its_square():
    # hbar c / G underflows to 0 at G = 1e300, but the mass itself is a float
    s = derive_planck_scale(G=1e300)
    assert s.planck_mass == pytest.approx(
        math.sqrt(s.hbar * s.c) / math.sqrt(s.G), rel=1e-12, abs=0.0)
    assert s.planck_mass > 0.0


@pytest.mark.parametrize("constants", [
    {"hbar": 1e300, "G": 1e300, "c": 1.0},    # hbar G overflows
    {"hbar": 1e-300, "G": 1e-300, "c": 1.0},  # hbar G underflows to 0
])
def test_planck_length_beyond_its_square(constants):
    # the length itself, 1e300 m or 1e-300 m, is a float
    s = derive_planck_scale(**constants)
    for name, value in planck_scale(**constants).items():
        assert relative_error(getattr(s, name), value) < 1e-13, name


def test_codata_scale_bits():
    # the one exact root keeps the CODATA scale's bits, as Python floats
    s = codata_scale()
    expected = {"planck_length": "0x1.57bd4b2a50ebcp-116",
                "planck_mass": "0x1.75e8983ac9fbap-26",
                "lam": "0x1.83de501898e37p-118",
                "planck_time": "0x1.33c927b402f5ap-144"}
    for name, bits in expected.items():
        value = getattr(s, name)
        assert type(value) is float, name
        assert value.hex() == bits, name


def test_planck_length_and_mass_within_ulps_of_exact_roots():
    # seeded log-uniform constants over 120 decades: each root within 1.5 ulp
    rng = np.random.default_rng(25)
    for hbar, G, c in (10.0 ** rng.uniform(-60.0, 60.0, size=(2000, 3))).tolist():
        s = derive_planck_scale(hbar=hbar, G=G, c=c)
        exact = planck_scale(hbar, G, c)
        for name in ("planck_length", "planck_mass"):
            assert ulps(getattr(s, name), exact[name]) <= 1.5, (hbar, G, c)


# sha256 of root.hex() + "\n" over the 4,000 roots below, recorded when
# the roots of arrays and of Python floats were one function with the same bits
ROOTS_SHA256 = "0c3bf6f03eaffd1452c60a8eba28ed0d02f0db224e7db5266297f7ba56d3a664"


def test_planck_roots_keep_their_recorded_bits():
    # every step is exact or correctly rounded (frexp, ldexp, integer powers,
    # one division, sqrt), so the bits are the same on every CPU and libm:
    # inf above the largest float and 0.0 below the smallest included
    rng = np.random.default_rng(34)
    roots = [_root_of_powers(triple, powers)
             for triple in (10.0 ** rng.uniform(-150.0, 150.0, size=(2000, 3))).tolist()
             for powers in ((1, 1, -3), (1, -1, 1))]
    assert all(type(root) is float for root in roots)
    assert (roots.count(math.inf), roots.count(0.0)) == (6, 8)
    digest = hashlib.sha256("".join(root.hex() + "\n" for root in roots).encode())
    assert digest.hexdigest() == ROOTS_SHA256


GLIBC_FMA_OFF = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable"

# reads hbar, G and c as hex floats, a triple a line; prints length and mass in hex
ROOTS_SCRIPT = """
import sys
from qgeom.constants import derive_planck_scale
for line in sys.stdin:
    s = derive_planck_scale(*map(float.fromhex, line.split()))
    print(s.planck_length.hex(), s.planck_mass.hex())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="GLIBC_TUNABLES selects libm variants on glibc only")
def test_planck_scale_bits_do_not_depend_on_libm_pow(python):
    # glibc picks an FMA variant of pow per CPU; here it is turned off for a
    # fresh interpreter, whose roots must keep the bits of this process
    rng = np.random.default_rng(12345)
    constants = (10.0 ** rng.uniform(-60.0, 60.0, size=(20000, 3))).tolist()
    roots = [derive_planck_scale(*triple) for triple in constants]
    proc = python("-c", ROOTS_SCRIPT, env={"GLIBC_TUNABLES": GLIBC_FMA_OFF},
                  input="".join(" ".join(map(float.hex, t)) + "\n" for t in constants))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{s.planck_length.hex()} {s.planck_mass.hex()}"
                                        for s in roots]

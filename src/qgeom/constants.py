"""Fundamental constants and the derived Planck scale.

All quantities are SI. Constants are injected rather than hard-coded so
that tests can use exact round numbers; :func:`codata_scale` supplies the
CODATA 2018 recommended values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import positive

# CODATA 2018 recommended values
HBAR_CODATA = 1.054571817e-34  # J s (exact by SI redefinition, truncated)
G_CODATA = 6.67430e-11         # m^3 kg^-1 s^-2
C_CODATA = 299792458.0         # m/s (exact)

SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class PlanckScale:
    """Fundamental constants plus the derived Planck-scale quantities.

    ``lam`` is the commutator scale of the position algebra,
    lam = planck_length / sqrt(4 pi). Immutable; safe to share across
    threads.
    """

    hbar: float
    G: float
    c: float
    planck_length: float
    planck_time: float
    planck_mass: float
    lam: float


def _root_of_powers(values, powers):
    """sqrt of the product of value ** power, elementwise, from the values'
    mantissas and binary exponents: no intermediate leaves the float range,
    and where the direct form's products are normal the bits are its own, but
    for a power's last bit: libm pow's is per CPU, while a mantissa's power here
    is exact and rounded once; 0.0 below the smallest float, inf above the largest."""
    num, den, e = 1.0, 1.0, 0
    for value, p in zip(values, powers):
        mant, exp = np.frexp(value)
        e += p * exp
        if abs(p) != 1:  # a scalar: an exact integer power, one correct division
            n, d = float(mant).as_integer_ratio()
            mant = n ** abs(p) / d ** abs(p)
        num, den = (num * mant, den) if p > 0 else (num, den * mant)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.ldexp(num / den, e % 2)), e // 2)


def derive_planck_scale(hbar: float = HBAR_CODATA,
                        G: float = G_CODATA,
                        c: float = C_CODATA) -> PlanckScale:
    """Derive the Planck scale from (hbar, G, c).

    planck_length = sqrt(hbar G / c^3), planck_time = planck_length / c,
    planck_mass = sqrt(hbar c / G), lam = planck_length / sqrt(4 pi). The
    length and mass are taken from the constants' mantissas and exponents,
    so hbar = G = 1e300, whose hbar G overflows, is accepted.

    Raises
    ------
    QGeomError
        If any input, or any derived quantity, is non-positive or
        non-finite; the latter message names the three constants.
    """
    for name, value in (("hbar", hbar), ("G", G), ("c", c)):
        positive(name, value)
    constants = f"hbar={hbar!r}, G={G!r}, c={c!r}"
    planck_length = float(_root_of_powers((hbar, G, c), (1, 1, -3)))
    planck_mass = float(_root_of_powers((hbar, G, c), (1, -1, 1)))
    derived = {
        "planck_length": planck_length,
        "planck_time": planck_length / c,
        "planck_mass": planck_mass,
        "lam": planck_length / SQRT_4PI,
    }
    for name, value in derived.items():
        positive(f"{name} of {constants}", value)
    return PlanckScale(hbar=hbar, G=G, c=c, **derived)


def codata_scale() -> PlanckScale:
    """Planck scale from the CODATA 2018 constants."""
    return derive_planck_scale()

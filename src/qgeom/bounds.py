"""Size/mass boundary diagram: quantum line, black-hole line, regimes.

The quantum line is realized as the reduced-Compton size hbar/(m c)
(convention flag ``reduced``; the 2*pi form is available), the black-hole
line as the Schwarzschild radius 2 G m / c^2. With these conventions the
two lines meet at sqrt(2) * planck_length. Both lines are elementwise:
a mass may be a number or a numpy array, and an array of masses gives the
array of their sizes, bitwise equal to the sizes of each mass alone.
"""

from __future__ import annotations

import math

from .constants import PlanckScale
from .errors import positive

FORBIDDEN_QUANTUM = "forbidden_quantum"
FORBIDDEN_BLACKHOLE = "forbidden_blackhole"
FIELD_THEORY_SIDE = "field_theory_side"
CLASSICAL_MATTER_SIDE = "classical_matter_side"


def compton_size(mass, scale: PlanckScale, reduced: bool = True):
    """Minimum size of a single quantum of the given mass-energy (m).

    Reduced form hbar/(m c) by default; reduced=False gives h/(m c).
    Where m c overflows (m above about 6e299 kg) the size is 0.0, the
    correctly rounded underflow of hbar/(m c). For a Python number this is
    float arithmetic, whose m c overflows to inf unwarned, so numpy is not
    imported; an array's overflow is silenced with numpy's errstate.
    """
    positive("mass", mass)
    if type(mass) in (int, float) and type(scale.c) in (int, float):
        size = scale.hbar / (mass * scale.c)
    else:
        import numpy as np
        with np.errstate(over="ignore"):
            size = scale.hbar / (mass * scale.c)
    return size if reduced else 2.0 * math.pi * size


def schwarzschild_radius(mass, scale: PlanckScale):
    """Black-hole radius 2 G m / c^2 (m)."""
    positive("mass", mass)
    return 2.0 * scale.G * mass / scale.c ** 2


def intersection_scale(scale: PlanckScale, reduced: bool = True) -> float:
    """Common length where the quantum and black-hole lines cross.

    Solves compton_size(m) = schwarzschild_radius(m) in closed form:
    sqrt(2 hbar G / c^3) = sqrt(2) * planck_length with the reduced
    convention, sqrt(4 pi) * planck_length with the full one.
    """
    factor = 1.0 if reduced else 2.0 * math.pi
    return math.sqrt(2.0 * factor) * scale.planck_length


def classify(mass: float, size: float, scale: PlanckScale,
             reduced: bool = True) -> str:
    """The one of the four regime constants that a (mass, size) pair lies in."""
    positive("size", size)
    lc = compton_size(mass, scale, reduced=reduced)
    rs = schwarzschild_radius(mass, scale)
    if size < lc and lc >= rs:
        return FORBIDDEN_QUANTUM
    if size < rs and rs > lc:
        return FORBIDDEN_BLACKHOLE
    if mass < scale.planck_mass:
        return FIELD_THEORY_SIDE
    return CLASSICAL_MATTER_SIDE

"""Size/mass boundary diagram: quantum line, black-hole line, regimes.

The quantum line is realized as the reduced-Compton size hbar/(m c)
(convention flag ``reduced``; the 2*pi form is available), the black-hole
line as the Schwarzschild radius 2 G m / c^2. With these conventions the
two lines meet at sqrt(2) * planck_length.
"""

from __future__ import annotations

import math

from .constants import PlanckScale
from .errors import InvalidInputError, InvalidMassError, positive

FORBIDDEN_QUANTUM = "forbidden_quantum"
FORBIDDEN_BLACKHOLE = "forbidden_blackhole"
FIELD_THEORY_SIDE = "field_theory_side"
CLASSICAL_MATTER_SIDE = "classical_matter_side"


def compton_size(mass: float, scale: PlanckScale, reduced: bool = True) -> float:
    """Minimum size of a single quantum of the given mass-energy (m).

    Reduced form hbar/(m c) by default; reduced=False gives h/(m c).
    """
    positive("mass", mass, InvalidMassError)
    size = scale.hbar / (mass * scale.c)
    return size if reduced else 2.0 * math.pi * size


def schwarzschild_radius(mass: float, scale: PlanckScale) -> float:
    """Black-hole radius 2 G m / c^2 (m)."""
    positive("mass", mass, InvalidMassError)
    return 2.0 * scale.G * mass / scale.c ** 2


def intersection_scale(scale: PlanckScale, reduced: bool = True) -> float:
    """Common length where the quantum and black-hole lines cross.

    Solves compton_size(m) = schwarzschild_radius(m); with the reduced
    convention the closed form is sqrt(2 hbar G / c^3) = sqrt(2) * planck_length.
    """
    factor = 1.0 if reduced else 2.0 * math.pi
    mass = math.sqrt(factor * scale.hbar * scale.c / (2.0 * scale.G))
    return schwarzschild_radius(mass, scale)


def classify(mass: float, size: float, scale: PlanckScale,
             reduced: bool = True) -> str:
    """The one of the four regime constants that a (mass, size) pair lies in."""
    positive("size", size, InvalidInputError)
    lc = compton_size(mass, scale, reduced=reduced)
    rs = schwarzschild_radius(mass, scale)
    if size < lc and lc >= rs:
        return FORBIDDEN_QUANTUM
    if size < rs and rs > lc:
        return FORBIDDEN_BLACKHOLE
    if mass < scale.planck_mass:
        return FIELD_THEORY_SIDE
    return CLASSICAL_MATTER_SIDE

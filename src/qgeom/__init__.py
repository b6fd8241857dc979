"""Macroscopic quantum-geometry toolkit.

Exact finite-dimensional realizations of the noncommutative position
algebra, closed-form and Monte Carlo predictions of the associated
transverse jitter in interferometers, and the Planck-scale size/mass
boundary diagram. SI units throughout.
"""

__version__ = "0.5.0"

from .constants import PlanckScale, codata_scale, derive_planck_scale

__all__ = ["PlanckScale", "codata_scale", "derive_planck_scale", "__version__"]

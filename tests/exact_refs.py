"""Exact references from the standard library alone, so that no test needs mpmath.

Decimal arithmetic at 50 significant digits: a float converts to a Decimal
exactly and every operation, sqrt included, is correctly rounded, so each
reference is good to about 1e-49 relative.
"""

import math
from decimal import Decimal, localcontext

DIGITS = 50
# pi to 60 digits, for lam = planck_length / sqrt(4 pi)
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def planck_scale(hbar: float, G: float, c: float) -> dict[str, Decimal]:
    """planck_length, planck_time, planck_mass and lam of the given float constants."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        h, g, v = Decimal(hbar), Decimal(G), Decimal(c)
        length = (h * g / v ** 3).sqrt()
        return {"planck_length": length, "planck_time": length / v,
                "planck_mass": (h * v / g).sqrt(), "lam": length / (4 * PI).sqrt()}


def relative_error(value: float, exact: Decimal) -> float:
    """|value / exact - 1|."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(value) / exact - 1))


def ulps(value: float, exact: Decimal) -> float:
    """|value - exact| in units of ulp(value)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(Decimal(value) - exact) / Decimal(math.ulp(value)))

"""Finite-dimensional representations of the noncommutative position algebra.

The three position components are lam * J_i, where J_i are the standard
spin-j angular-momentum matrices in the J3 eigenbasis. There J3 is the
diagonal j, ..., -j, derived from the spin, and J+ has one superdiagonal,
which a representation stores; every operation is O(dim), and
[x_i, x_j] = i lam eps_ijk x_k holds to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PlanckScale
from .errors import QGeomError, positive

# Dense view: three complex dim x dim matrices, 256 MB each at the cap.
DIMENSION_CAP = 4001
BAND_CAP = 2_000_001


@dataclass(frozen=True)
class AlgebraRep:
    """x_i = lam * J_i (units m) for a single spin j, stored as one band: the
    J+ superdiagonal ``ladder``. The J3 diagonal ``m`` is derived from the spin."""

    spin: float
    dim: int
    lam: float
    ladder: np.ndarray

    @property
    def m(self) -> np.ndarray:
        """The J3 diagonal j, j - 1, ..., -j, built on each access: steps of exactly 1."""
        return self.spin - np.arange(self.dim)

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense Hermitian x1, x2, x3, built on each access; capped at DIMENSION_CAP."""
        if self.dim > DIMENSION_CAP:
            raise QGeomError(f"dense view of dim {self.dim} exceeds cap {DIMENSION_CAP}")
        jp = np.diag(self.ladder, 1).astype(complex)
        jm = jp.conj().T
        return (self.lam * 0.5 * (jp + jm), self.lam * (-0.5j) * (jp - jm),
                self.lam * np.diag(self.m).astype(complex))


def build_representation(spin: float, scale: PlanckScale) -> AlgebraRep:
    """Build x_i = lam * J_i via the ladder-operator construction.

    Basis ordering is descending J3 eigenvalue: m = j, j-1, ..., -j.
    """
    twice = 2.0 * spin
    if spin < 0 or not math.isfinite(twice) or round(twice) != twice:
        raise QGeomError(f"spin must be a non-negative multiple of 1/2, got {spin!r}")
    j = float(spin)
    dim = int(round(twice)) + 1
    if dim > BAND_CAP:
        raise QGeomError(f"dimension {dim} exceeds cap {BAND_CAP} (spin {spin})")
    m = j - np.arange(dim)
    # J+ couples |j, m> -> |j, m+1> with matrix element sqrt(j(j+1) - m(m+1))
    ladder = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    return AlgebraRep(spin=j, dim=dim, lam=scale.lam, ladder=ladder)


def commutator_residual(rep: AlgebraRep) -> float:
    """Worst relative violation of [x_i, x_j] = i lam eps_ijk x_k.

    Returns ||[x1, x2] - i lam x3|| / (lam ||x3||) in the Frobenius norm, the
    one relation the ladder can break; on the bands it reads diag [J+, J-] = 2 m.
    The other two pairs read (m_k - m_{k+1} - 1) ladder_k = 0, which holds
    exactly by construction, since m is derived from the spin. Zero for spin 0.

    The squared ladder j(j+1) - m(m+1) is rounded at the scale of j^2, so
    the residual grows as C j eps (eps the float64 machine epsilon): C <= 1
    measured on 350 spins up to 10^6, with 8.3e-14 at j = 10^3, 1.1e-12 at
    10^4 and 8.4e-11 at 10^6. It stays below 1e-12 only up to j ~ 9000.
    """
    if rep.dim == 1:
        return 0.0
    m = rep.m
    sq = np.concatenate(([0.0], rep.ladder ** 2, [0.0]))
    return float(np.linalg.norm(0.5 * np.diff(sq) - m) / np.linalg.norm(m))


def radial_observable(rep: AlgebraRep) -> float:
    """Radial observable <L> = lam * sqrt(j(j+1)); the Casimir is a scalar."""
    return rep.lam * math.sqrt(rep.spin * (rep.spin + 1.0))


def _polar(axis) -> tuple[float, float]:
    """Polar and azimuthal angles (theta, phi) of a unit 3-vector."""
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,) or not abs(np.linalg.norm(a) - 1.0) <= 1e-10:  # NaN fails too
        raise QGeomError(f"axis must be a unit 3-vector, got {axis!r}")
    return math.atan2(math.hypot(a[0], a[1]), a[2]), math.atan2(a[1], a[0])


def highest_weight_state(rep: AlgebraRep, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Eigenvector of (axis . x) with maximal eigenvalue, which is +j lam.

    Returns its normalized complex amplitudes in the J3 eigenbasis of rep.

    The spin coherent state (Arecchi, Courtens, Gilmore & Thomas 1972): at
    k = j - m, sqrt(C(2j, k)) cos(theta/2)^(2j-k) sin(theta/2)^k exp(-i m phi).
    """
    theta, phi = _polar(axis)
    n = rep.dim - 1
    k = np.arange(rep.dim, dtype=float)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(n - k[:-1]) - np.log(k[1:]))))
    with np.errstate(divide="ignore"):
        log_cos, log_sin = np.log(math.cos(theta / 2)), np.log(math.sin(theta / 2))
    # 0 * log 0 = 0: the end amplitudes along +z and -z are exactly one
    log_amp = (0.5 * log_binom
               + np.multiply(n - k, log_cos, out=np.zeros(rep.dim), where=k < n)
               + np.multiply(k, log_sin, out=np.zeros(rep.dim), where=k > 0))
    vec = np.exp(log_amp - log_amp.max()) * np.exp(-1j * phi * rep.m)
    return vec / np.linalg.norm(vec)


def _apply(rep: AlgebraRep, e: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(e . J) psi as one tridiagonal matvec, e . J = c J+ + c* J- + e3 J3."""
    c = 0.5 * (e[0] - 1j * e[1])
    out = e[2] * rep.m * psi
    out[:-1] += c * rep.ladder * psi[1:]
    out[1:] += c.conjugate() * rep.ladder * psi[:-1]
    return out


def transverse_variance_operator(rep: AlgebraRep, state: np.ndarray,
                                 axis=(0.0, 0.0, 1.0)) -> float:
    """Expectation <psi| x_perp^2 |psi> about the given axis, in m^2.

    x_perp^2 = (e1 . x)^2 + (e2 . x)^2 with e1, e2 perpendicular to the
    axis; for the highest-weight state this equals lam^2 j exactly.
    """
    theta, phi = _polar(axis)
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (rep.dim,):
        raise QGeomError(f"state dimension {psi.shape} does not match rep dim {rep.dim}")
    e1 = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                   -math.sin(theta)])
    e2 = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return rep.lam ** 2 * sum(np.vdot(v, v).real for v in
                              (_apply(rep, e1, psi), _apply(rep, e2, psi)))


def angular_variance_formula(L: float, scale: PlanckScale) -> float:
    """Directional variance lam / L (dimensionless) at separation L, formed only here."""
    positive("separation", L)
    return scale.lam / L


def transverse_variance_formula(L: float, scale: PlanckScale) -> float:
    """Transverse position variance lam * L (m^2) at separation L, formed only here."""
    positive("separation", L)
    return scale.lam * L


def state_count_continuum(R: float, scale: PlanckScale) -> float:
    """Continuum degree-of-freedom count 4 pi (R / planck_length)^2."""
    positive("radius", R)
    return 4.0 * math.pi * (R / scale.planck_length) ** 2


def state_count_discrete(max_spin: int) -> int:
    """Total eigenstate count over integer spins 0..j: sum(2j'+1) = (j+1)^2.

    Integer spins only; including half-integer spins would double the
    asymptotic count and break agreement with the continuum formula.
    """
    if not isinstance(max_spin, (int, np.integer)) or max_spin < 0:
        raise QGeomError(f"max_spin must be a non-negative integer, got {max_spin!r}")
    return (int(max_spin) + 1) ** 2

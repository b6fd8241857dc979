"""Interferometer observables of the geometric jitter.

Optical response is idealized as unity: output displacement equals the
geometric jitter. The cross-instrument correlation uses a linear overlap
factor gamma(d) = max(0, 1 - d / (2 min(L_a, L_b))), a placeholder causal
model whose paper-anchored endpoints are gamma(0) = 1 and gamma = 0 beyond
overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import transverse_variance_formula
from .constants import PlanckScale
from .errors import QGeomError, opened, positive
from .noise import analytic_psd, band_power

SNR_DETECT = 5.0
SNR_MARGINAL = 1.0


@dataclass(frozen=True)
class InterferometerConfig:
    """Apparatus geometry: arm length (m), location (m), label."""

    arm_length: float
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    label: str = ""

    def __post_init__(self):
        positive("arm length", self.arm_length)
        if len(self.position) != 3 or not all(map(math.isfinite, self.position)):
            raise QGeomError(
                f"position must be three finite numbers, got {self.position!r}")


@dataclass(frozen=True)
class DetectabilityReport:
    snr_proxy: float
    verdict: str


def load_config(path) -> InterferometerConfig:
    """Read an apparatus definition from a key-value file.

    Keys: label, arm_length_m, position_m (three comma-separated numbers).
    Lines starting with '#' are ignored. Any other key, a repeated key and
    a line without '=' are refused, so a misspelt key cannot leave its
    default in place.
    """
    with opened(path) as fh:
        text = fh.read()
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise QGeomError(f"{path}: not a key = value line: {line!r}")
        if key not in ("label", "arm_length_m", "position_m"):
            raise QGeomError(f"{path}: unknown key {key!r}")
        if key in fields:
            raise QGeomError(f"{path}: repeated key {key!r}")
        fields[key] = value.strip()
    try:
        return InterferometerConfig(
            arm_length=float(fields["arm_length_m"]),
            position=tuple(float(p) for p in fields.get("position_m", "0,0,0").split(",")),
            label=fields.get("label", ""))
    except KeyError:
        raise QGeomError(f"{path}: missing arm_length_m") from None
    except ValueError as exc:
        raise QGeomError(f"{path}: {exc}") from None


def predict_rms(config: InterferometerConfig, scale: PlanckScale) -> float:
    """RMS transverse jitter (m): the root of the algebra's variance lam * arm_length."""
    return math.sqrt(transverse_variance_formula(config.arm_length, scale))


def _check_grid(frequencies) -> np.ndarray:
    f = np.asarray(frequencies, dtype=float)
    if (f.ndim != 1 or len(f) == 0 or not np.all(np.isfinite(f)) or f[0] < 0.0
            or np.any(np.diff(f) <= 0.0)):
        raise QGeomError("frequency grid must be finite, non-negative and increasing")
    return f


def predict_output_psd(config: InterferometerConfig, frequencies,
                       scale: PlanckScale) -> np.ndarray:
    """Model output PSD (m^2/Hz) on the given grid; knee at c / (2 arm_length)."""
    f = _check_grid(frequencies)
    return analytic_psd(config.arm_length, f, scale)


def overlap_factor(a: InterferometerConfig, b: InterferometerConfig) -> float:
    """Correlation factor gamma(d) in [0, 1], vanishing at d = 2 min(L_a, L_b)."""
    d = math.dist(a.position, b.position)
    return max(0.0, 1.0 - d / (2.0 * min(a.arm_length, b.arm_length)))


def cross_spectrum(a: InterferometerConfig, b: InterferometerConfig,
                   frequencies, scale: PlanckScale) -> np.ndarray:
    """Cross-PSD gamma(d) * sqrt(S_a * S_b) (m^2/Hz); the auto-PSD at d = 0.

    The root is taken from the mantissas and exponents of S_a and S_b: the
    bits of sqrt(S_a * S_b) where that product is a normal float, finite
    where it overflows, and the auto-PSD's own bits for equal co-located arms.
    """
    f = _check_grid(frequencies)
    ma, ea = np.frexp(analytic_psd(a.arm_length, f, scale))
    mb, eb = np.frexp(analytic_psd(b.arm_length, f, scale))
    e = ea + eb
    return overlap_factor(a, b) * np.ldexp(np.sqrt(np.ldexp(ma * mb, e % 2)), e // 2)


def detectability(config: InterferometerConfig, floor: float,
                  band: tuple[float, float], integration_time: float,
                  scale: PlanckScale) -> DetectabilityReport:
    """Radiometer-style detectability against a flat instrument floor.

    snr_proxy = [noise.band_power over the band / (floor * bandwidth)]
    * sqrt(integration_time * bandwidth), formed as (power / floor)
    * sqrt(integration_time / bandwidth) so that floor * bandwidth and
    integration_time * bandwidth are never formed. power / floor can
    still overflow (a floor near 5e-324 m^2/Hz), and a proxy that is not
    finite is refused. Verdict: detect >= 5, marginal in [1, 5),
    exclude < 1.
    """
    f_lo, f_hi = band
    power = band_power(config.arm_length, f_lo, f_hi, scale)
    positive("floor", floor)
    positive("integration_time", integration_time)
    snr = power / floor * math.sqrt(integration_time / (f_hi - f_lo))
    if not math.isfinite(snr):
        raise QGeomError(
            f"snr_proxy of band power {power!r} m^2 over floor {floor!r} m^2/Hz "
            f"for {integration_time!r} s is not finite")
    if snr >= SNR_DETECT:
        verdict = "detect"
    elif snr >= SNR_MARGINAL:
        verdict = "marginal"
    else:
        verdict = "exclude"
    return DetectabilityReport(snr_proxy=snr, verdict=verdict)

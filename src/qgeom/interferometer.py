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
from pathlib import Path

import numpy as np

from .constants import PlanckScale
from .errors import InvalidBandError, InvalidGridError, InvalidInputError
from .noise import SpectrumEstimate, analytic_psd

SNR_DETECT = 5.0
SNR_MARGINAL = 1.0


@dataclass(frozen=True)
class InterferometerConfig:
    """Apparatus geometry: arm length (m), location (m), label."""

    arm_length: float
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    label: str = ""

    def __post_init__(self):
        if not (self.arm_length > 0.0) or not math.isfinite(self.arm_length):
            raise InvalidInputError(
                f"arm_length must be positive, got {self.arm_length!r}")


@dataclass(frozen=True)
class DetectabilityReport:
    signal_rms: float
    band: tuple[float, float]
    instrument_floor: float
    snr_proxy: float
    verdict: str


def load_config(path) -> InterferometerConfig:
    """Read an apparatus definition from a key-value file.

    Keys: label, arm_length_m, position_m (three comma-separated numbers).
    Lines starting with '#' are ignored.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: cannot read config: {exc}") from None
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        arm = float(fields["arm_length_m"])
        pos = tuple(float(p) for p in fields.get("position_m", "0,0,0").split(","))
    except KeyError:
        raise InvalidInputError(f"{path}: missing arm_length_m") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    if len(pos) != 3:
        raise InvalidInputError(
            f"{path}: position_m needs three comma-separated numbers")
    return InterferometerConfig(arm_length=arm, position=pos,
                                label=fields.get("label", ""))


def predict_rms(config: InterferometerConfig, scale: PlanckScale) -> float:
    """RMS transverse jitter sqrt(lam * arm_length) in meters."""
    return math.sqrt(scale.lam * config.arm_length)


def _check_grid(frequencies) -> np.ndarray:
    f = np.asarray(frequencies, dtype=float)
    if (f.ndim != 1 or len(f) == 0 or not np.all(np.isfinite(f)) or f[0] < 0.0
            or np.any(np.diff(f) <= 0.0)):
        raise InvalidGridError("frequency grid must be finite, non-negative and increasing")
    return f


def predict_output_psd(config: InterferometerConfig, frequencies,
                       scale: PlanckScale) -> SpectrumEstimate:
    """Model output PSD on the given grid; knee at c / (2 arm_length)."""
    f = _check_grid(frequencies)
    psd = analytic_psd(config.arm_length, f, scale)
    return SpectrumEstimate(frequencies=f, psd=np.asarray(psd),
                            segment_count=0, segment_length=0)


def overlap_factor(a: InterferometerConfig, b: InterferometerConfig) -> float:
    """Correlation factor gamma(d) in [0, 1], vanishing at d = 2 min(L_a, L_b)."""
    d = math.dist(a.position, b.position)
    return max(0.0, 1.0 - d / (2.0 * min(a.arm_length, b.arm_length)))


def cross_spectrum(a: InterferometerConfig, b: InterferometerConfig,
                   frequencies, scale: PlanckScale) -> SpectrumEstimate:
    """Cross-PSD gamma(d) * sqrt(S_a * S_b); equals the auto-PSD at d = 0."""
    f = _check_grid(frequencies)
    sa = np.asarray(analytic_psd(a.arm_length, f, scale))
    sb = np.asarray(analytic_psd(b.arm_length, f, scale))
    psd = overlap_factor(a, b) * np.sqrt(sa * sb)
    return SpectrumEstimate(frequencies=f, psd=psd,
                            segment_count=0, segment_length=0)


# Gauss-Legendre rule on [0, 1] for one sinc^2 piece; 24 nodes reach
# rounding on every piece (the nearest pole of sinc^2 in piece k is at
# x = -k, and sin^2 is entire)
_GL_T, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W
# periods integrated by quadrature at each end of a wide band, at most
# 2 * 64 * 24 nodes in all; past them x >= 64, where the k-th series term
# is at most (2k)! / (128 pi)^(2k) of the leading 1 / x
_EDGE_PIECES = 64
_SERIES_TERMS = 12


def _sinc2_periods(n1: int, n2: int) -> float:
    """Integral of sinc^2 over whole periods [n1, n2], n1 >= _EDGE_PIECES.

    sinc^2(x) = (1 - cos 2 pi x) / (2 pi^2 x^2). Integrating the cosine
    term by parts, sin(2 pi n) = 0 and cos(2 pi n) = 1 at integer ends,
    so its k-th term is (-1)^(k-1) (2k)! / (2 pi)^(2k) [x^-(2k+1)] exactly.
    """
    omega2 = (2.0 * math.pi) ** 2
    cos_term, coef = 0.0, 1.0
    for k in range(1, _SERIES_TERMS + 1):
        coef *= -(2 * k - 1) * (2 * k) / omega2
        cos_term -= coef * (float(n1) ** -(2 * k + 1) - float(n2) ** -(2 * k + 1))
    # the exact integers keep 1/n1 - 1/n2 free of cancellation
    return ((n2 - n1) / (n1 * n2) - cos_term) / (2.0 * math.pi ** 2)


def _sinc2_integral(a: float, b: float) -> float:
    """Integral of sinc^2(x) = (sin(pi x) / (pi x))^2 over [a, b], 0 <= a < b < inf.

    Gauss-Legendre on each piece between the zeros of sinc at the
    integers; a band of more than 2 * _EDGE_PIECES periods takes the
    whole periods in between in closed form, so the cost is bounded.
    """
    # exact integers: float offsets from them would round beyond 2**53
    k_lo, k_hi = math.floor(a), math.floor(b)
    if k_hi - k_lo < 2 * _EDGE_PIECES:
        k = k_lo + np.arange(k_hi - k_lo + 1.0)
        middle = 0.0
    else:
        n1, n2 = k_lo + _EDGE_PIECES, k_hi - _EDGE_PIECES + 1
        edge = np.arange(float(_EDGE_PIECES))
        k = np.r_[k_lo + edge, n2 + edge]
        middle = _sinc2_periods(n1, n2)
    # piece k spans x = k + t, t in [t0, t1]; taking the phase from t alone
    # keeps it exact however large k is
    t0, t1 = np.zeros(len(k)), np.ones(len(k))
    t0[0], t1[-1] = a - k_lo, b - k_hi
    t = t0[:, None] + (t1 - t0)[:, None] * _GL_T
    x = k[:, None] + t
    # sin(pi t) / (pi x); at x = 0 (a band end that underflows) it is 1
    ratio = np.sinc(t) * np.divide(t, x, out=np.ones_like(t), where=x > 0)
    return float((t1 - t0) @ (ratio ** 2 @ _GL_W)) + middle


def detectability(config: InterferometerConfig, floor: float,
                  band: tuple[float, float], integration_time: float,
                  scale: PlanckScale) -> DetectabilityReport:
    """Radiometer-style detectability against a flat instrument floor.

    snr_proxy = [integral of the model PSD over the band / (floor * bandwidth)]
    * sqrt(integration_time * bandwidth). Verdict: detect >= 5,
    marginal in [1, 5), exclude < 1.
    """
    f_lo, f_hi = band
    if not (0.0 <= f_lo < f_hi < math.inf):
        raise InvalidBandError(f"band must satisfy 0 <= f_lo < f_hi < inf, got {band!r}")
    if not (0.0 < floor < math.inf and 0.0 < integration_time < math.inf):
        raise InvalidInputError("floor and integration_time must be positive and finite")
    tau_c = 2.0 * config.arm_length / scale.c
    x_lo, x_hi = f_lo * tau_c, f_hi * tau_c
    if not math.isfinite(x_hi):
        raise InvalidBandError(f"band end {f_hi!r} Hz times 2L/c overflows")
    width = f_hi - f_lo
    # the model PSD is 2 lam L tau sinc^2(f tau); integrate it in x = f tau
    power = 2.0 * scale.lam * config.arm_length * _sinc2_integral(x_lo, x_hi)
    snr = power / (floor * width) * math.sqrt(integration_time * width)
    if snr >= SNR_DETECT:
        verdict = "detect"
    elif snr >= SNR_MARGINAL:
        verdict = "marginal"
    else:
        verdict = "exclude"
    return DetectabilityReport(signal_rms=predict_rms(config, scale),
                               band=(f_lo, f_hi), instrument_floor=floor,
                               snr_proxy=snr, verdict=verdict)

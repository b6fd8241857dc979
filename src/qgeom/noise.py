"""Holographic-noise time series: synthesis, autocorrelation, spectra.

The jitter process is a boxcar moving average of unit-variance white noise
with window tau_c = 2L/c (light round trip), rescaled so the process
variance is exactly lam*L. Its autocorrelation is the triangle
lam*L*max(0, 1 - |tau|/tau_c).

RNG is Philox (4x64, counter-based) via numpy; identical inputs give
bitwise-identical output on any platform. Ensemble stream k is derived
from (master_seed, k) with :func:`derive_stream_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import PlanckScale
from .errors import (
    InsufficientDataError,
    InsufficientDurationError,
    InvalidInputError,
    InvalidSeparationError,
    SegmentationError,
    UndersamplingError,
)


@dataclass(frozen=True)
class NoiseSeries:
    """Uniformly sampled transverse-displacement series (m)."""

    samples: np.ndarray
    sample_rate: float
    arm_length: float
    seed: int
    coherence_time: float

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.sample_rate


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided power spectral density on a uniform frequency grid."""

    frequencies: np.ndarray
    psd: np.ndarray
    segment_count: int
    segment_length: int


# Welch segments per FFT batch: bounds the batch's working memory to a few MB
_WELCH_BLOCK = 256

# Lag count below which autocorrelation takes one dot product per lag instead
# of an FFT; on a 2-vCPU Xeon the two costs cross between 350 and 750 lags
# for 1e5-2.5e6 samples
_ACF_DIRECT_LAGS = 512


def _check_seed(name: str, value: int, bits: int) -> int:
    if not 0 <= int(value) < 1 << bits:
        raise InvalidInputError(f"{name} must lie in [0, 2**{bits}), got {value!r}")
    return int(value)


def derive_stream_seed(master_seed: int, k: int) -> int:
    """Seed for ensemble member k: disjoint Philox keys from (master_seed, k)."""
    return _check_seed("master_seed", master_seed, 64) << 64 | _check_seed("k", k, 64)


def generate_timeseries(L: float, sample_rate: float, duration: float,
                        seed: int, scale: PlanckScale) -> NoiseSeries:
    """Synthesize a jitter series with variance lam*L and coherence window.

    The coherence window is the light round trip 2L/c; the sample
    rate must exceed 2c/L (at least 4 samples per window) and the duration
    must cover at least 10 windows. The seed is a 128-bit Philox key.
    Deterministic given all inputs.
    """
    seed = _check_seed("seed", seed, 128)
    if not (L > 0.0) or not math.isfinite(L):
        raise InvalidSeparationError(f"arm length must be positive, got {L!r}")
    if not (math.isfinite(sample_rate) and math.isfinite(duration)):
        raise InvalidInputError(f"sample rate and duration must be finite, "
                                f"got {sample_rate!r} and {duration!r}")
    tau_c = 2.0 * L / scale.c
    if sample_rate * tau_c < 4.0:
        raise UndersamplingError(
            f"sample rate {sample_rate} gives under 4 samples per coherence "
            f"window {tau_c:.3e} s; need rate > {4.0 / tau_c:.3e} Hz")
    if duration < 10.0 * tau_c:
        raise InsufficientDurationError(
            f"duration {duration} s under 10 coherence windows ({10 * tau_c:.3e} s)")
    n = int(round(sample_rate * duration))
    if n < 2:
        raise InsufficientDurationError("series must contain at least 2 samples")
    m = int(round(sample_rate * tau_c))
    rng = np.random.Generator(np.random.Philox(key=seed))
    white = rng.standard_normal(n + m - 1)
    # 'valid' convolution: every output sample averages a full window, so
    # the process is exactly stationary with variance lam*L
    kernel = np.full(m, math.sqrt(scale.lam * L / m))
    samples = np.convolve(white, kernel, mode="valid")
    return NoiseSeries(samples=samples, sample_rate=float(sample_rate),
                       arm_length=float(L), seed=seed,
                       coherence_time=tau_c)


def autocorrelation(series: NoiseSeries, max_lag: float):
    """Biased sample autocorrelation out to max_lag seconds.

    Returns (lags_s, acf) arrays for lags 0..k_max, k_max = round(max_lag *
    rate); acf[k] = sum(x0[i] * x0[i + k]) / n over the mean-removed series
    x0, so acf[0] is the biased sample variance. max_lag must be finite, at
    least 0 and at most a quarter of the duration.

    Fewer than _ACF_DIRECT_LAGS lags are computed directly, one dot product
    per lag, in O(n * k_max). Longer lag ranges use the FFT, zero-padded to
    the smallest power of two of at least n + k_max samples: the shortest
    padding at which the circular correlation does not wrap onto lags up to
    k_max. The two paths agree to rounding.
    """
    x = series.samples
    n = len(x)
    if not (math.isfinite(max_lag) and max_lag >= 0.0):
        raise InvalidInputError(f"max_lag must be finite and non-negative, got {max_lag!r}")
    if max_lag > series.duration / 4.0:
        raise InsufficientDataError(
            f"max_lag {max_lag} s exceeds a quarter of the {series.duration} s series")
    k_max = int(round(max_lag * series.sample_rate))
    x0 = x - x.mean()
    if k_max + 1 < _ACF_DIRECT_LAGS:
        acf = np.array([x0[:n - k] @ x0[k:] for k in range(k_max + 1)]) / n
    else:
        nfft = 1 << (n + k_max - 1).bit_length()
        spec = np.fft.rfft(x0, nfft)
        acf = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft)[: k_max + 1] / n
    lags = np.arange(k_max + 1) / series.sample_rate
    return lags, acf


def power_spectrum(series: NoiseSeries, segment_length: int,
                   overlap_fraction: float = 0.5) -> SpectrumEstimate:
    """Welch one-sided PSD with Hann windowing (Welch 1967).

    Each segment has its mean removed and is tapered by the periodic Hann
    window; the periodograms are averaged with density scaling and every
    bin but DC and Nyquist is doubled. segment_length must be a power of
    two, at least 2 and no longer than the series; overlap_fraction in
    [0, 1) defaults to 50%.
    """
    n = len(series.samples)
    if segment_length < 2 or segment_length & (segment_length - 1):
        raise SegmentationError(
            f"segment_length must be a power of two of at least 2, got {segment_length}")
    if segment_length > n:
        raise SegmentationError(
            f"segment_length {segment_length} exceeds series length {n}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise SegmentationError(
            f"overlap_fraction must lie in [0, 1), got {overlap_fraction}")
    step = segment_length - int(segment_length * overlap_fraction)
    segments = sliding_window_view(series.samples, segment_length)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    power = np.zeros(segment_length // 2 + 1)
    for start in range(0, len(segments), _WELCH_BLOCK):
        block = segments[start:start + _WELCH_BLOCK]
        spec = np.fft.rfft((block - block.mean(axis=1, keepdims=True)) * window, axis=1)
        power += (spec.real ** 2 + spec.imag ** 2).sum(axis=0)
    psd = power / (len(segments) * series.sample_rate * np.sum(window ** 2))
    psd[1:-1] *= 2.0
    freqs = np.fft.rfftfreq(segment_length, 1.0 / series.sample_rate)
    return SpectrumEstimate(frequencies=freqs, psd=psd,
                            segment_count=len(segments),
                            segment_length=segment_length)


def analytic_psd(L: float, f, scale: PlanckScale):
    """One-sided model PSD of the jitter process (m^2/Hz).

    2*lam*L*tau_c*sinc^2(f*tau_c) for f > 0 and lam*L*tau_c at f = 0, with
    the coherence window tau_c = 2L/c (standard one-sided convention, DC
    undoubled); integrates to the process variance lam*L over [0, inf).
    """
    if not (L > 0.0) or not math.isfinite(L):
        raise InvalidSeparationError(f"arm length must be positive, got {L!r}")
    tau_c = 2.0 * L / scale.c
    f_arr = np.asarray(f, dtype=float)
    base = scale.lam * L * tau_c * np.sinc(f_arr * tau_c) ** 2
    out = np.where(f_arr > 0.0, 2.0 * base, base)
    return float(out) if np.isscalar(f) or f_arr.ndim == 0 else out


def drift_velocity_scale(L: float, scale: PlanckScale) -> float:
    """RMS displacement over the one-way coherence time: c*sqrt(lam/L) (m/s)."""
    if not (L > 0.0) or not math.isfinite(L):
        raise InvalidSeparationError(f"arm length must be positive, got {L!r}")
    return scale.c * math.sqrt(scale.lam / L)

"""The holographic jitter model and its time series: synthesis, autocorrelation, spectra.

The model: variance lam*L (the algebra's transverse_variance_formula), coherence
window tau_c = 2L/c (:func:`coherence_time`), autocorrelation lam*L*max(0, 1 -
|tau|/tau_c), one-sided PSD :func:`analytic_psd` and its integral :func:`band_power`.
A series is a boxcar moving average of unit-variance white noise over
round(rate * tau_c) whole samples, rescaled to variance lam*L, so its window
is round(rate * tau_c) / rate: 7 samples for the modelled 6.67 at L = 40 m
and 2.5e7 Hz, up to 12.5% off at 4 samples per window (ROADMAP.md item 2).
The boxcar is one running sum over the white draws, O(n) whatever the
window: each window's sum is the last one, plus the sample that enters,
minus the one that leaves.

RNG is Philox (4x64, counter-based) via numpy. For one numpy version,
identical inputs give a bitwise-identical series and Welch PSD on every
CPU: neither calls BLAS. The tests check the series' bits under other
CPUs' OpenBLAS code (OPENBLAS_CORETYPE) and with numpy's AVX-512
dispatch off. The autocorrelation takes BLAS dot products, whose code
numpy's OpenBLAS picks from the CPU, so its bits are per CPU, to about
1e-14 of acf[0]. Ensemble stream k is derived from (master_seed, k)
with :func:`derive_stream_seed`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import angular_variance_formula, transverse_variance_formula
from .constants import PlanckScale
from .errors import MAX_ARRAY_LEN, QGeomError, positive


@dataclass(frozen=True)
class NoiseSeries:
    """Uniformly sampled transverse-displacement series (m)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        positive("sample rate", self.sample_rate)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class SpectrumEstimate:
    """Welch estimate of a one-sided PSD on a uniform frequency grid."""

    frequencies: np.ndarray
    psd: np.ndarray
    segment_count: int


# Values tapered and transformed at once. The estimate's working memory (the
# tile, its spectrum and its power rows) peaks at 1.89 MB at 4096 samples per
# segment, in a 2 MB L2, at 3.28 MB at 2 and at 2.95 MB at 65,536
# (tracemalloc, on a 2.5e6-sample series), whatever the series length;
# 2**15 and 2**17 timed the same within run-to-run spread
_WELCH_TILE = 2 ** 16

# Lag count below which autocorrelation takes one dot product per lag instead
# of an FFT; on a 2-vCPU Xeon the two costs cross between 350 and 750 lags
# for 1e5-2.5e6 samples
_ACF_DIRECT_LAGS = 512

# periods integrated by quadrature at each end of a wide band, at most
# 2 * 64 * 24 nodes in all; past them x >= 64, where the k-th series term
# is at most (2k)! / (128 pi)^(2k) of the leading 1 / x
_EDGE_PIECES = 64
_SERIES_TERMS = 12


def _check_seed(name: str, value: int, bits: int) -> int:
    if not 0 <= int(value) < 1 << bits:
        raise QGeomError(f"{name} must lie in [0, 2**{bits}), got {value!r}")
    return int(value)


def derive_stream_seed(master_seed: int, k: int) -> int:
    """Seed for ensemble member k: disjoint Philox keys from (master_seed, k)."""
    return _check_seed("master_seed", master_seed, 64) << 64 | _check_seed("k", k, 64)


def coherence_time(L: float, scale: PlanckScale) -> float:
    """Coherence window 2L/c (s) of an arm length L (m).

    L must be finite and at least the Planck length, and 2L/c must not
    overflow: with the CODATA constants, from 1.6e-35 m to about 9e307 m.
    """
    positive("arm length", L)
    if L < scale.planck_length:
        raise QGeomError(
            f"arm length {L!r} m is below the Planck length {scale.planck_length!r} m")
    tau_c = 2.0 * L / scale.c
    if tau_c == math.inf:
        raise QGeomError(f"arm length {L!r} m overflows 2L/c")
    return tau_c


def generate_timeseries(L: float, sample_rate: float, duration: float,
                        seed: int, scale: PlanckScale) -> NoiseSeries:
    """Synthesize a jitter series with variance lam*L and coherence window.

    The coherence window is the light round trip 2L/c, realized as
    round(rate * 2L/c) / rate since the series averages whole samples (see
    the module docstring). The sample rate must be at least 2c/L (4
    samples per window) and the duration must cover at least 10 windows,
    so a series has at least 40 samples.
    The seed is a 128-bit Philox key. Deterministic given all inputs, with
    the same bits on every CPU (see the module docstring). The running sum
    costs O(n); against exact window sums (math.fsum) its error was at most
    1.8e-13 of the series' standard deviation, up to 2**24 samples.
    """
    seed = _check_seed("seed", seed, 128)
    tau_c = coherence_time(L, scale)
    positive("sample rate", sample_rate)
    positive("duration", duration)
    if sample_rate * tau_c < 4.0:
        raise QGeomError(
            f"sample rate {sample_rate} gives under 4 samples per coherence "
            f"window {tau_c:.3e} s; need rate >= {4.0 / tau_c:.3e} Hz")
    if duration < 10.0 * tau_c:
        raise QGeomError(
            f"duration {duration} s under 10 coherence windows ({10 * tau_c:.3e} s)")
    if sample_rate * duration > MAX_ARRAY_LEN:
        raise QGeomError(
            f"sample rate {sample_rate!r} Hz times duration {duration!r} s exceeds "
            f"the largest array, {MAX_ARRAY_LEN} samples")
    n = int(round(sample_rate * duration))
    m = int(round(sample_rate * tau_c))
    steps = np.random.Generator(np.random.Philox(key=seed)).standard_normal(n + m - 1)
    # window i's sum is window i - 1's, plus the sample that enters, minus the
    # one that leaves; every output is a full window, so stationary at lam*L
    steps[m:] -= steps[:-m]
    sigma = math.sqrt(transverse_variance_formula(L, scale) / m)
    samples = np.cumsum(steps, out=steps)[m - 1:]
    samples *= sigma
    return NoiseSeries(samples=samples, sample_rate=float(sample_rate))


def autocorrelation(series: NoiseSeries, max_lag: float):
    """Biased sample autocorrelation out to max_lag seconds.

    Returns (lags_s, acf) arrays for lags 0..k_max, k_max = round(max_lag *
    rate); acf[k] = sum(x0[i] * x0[i + k]) / n over the mean-removed series
    x0, so acf[0] is the biased sample variance. max_lag must be finite, at
    least 0 and at most a quarter of the duration. A non-finite ACF is refused.

    Fewer than _ACF_DIRECT_LAGS lags are computed directly, one dot product
    per lag, in O(n * k_max). Longer lag ranges use the FFT, zero-padded to
    the smallest power of two of at least n + k_max samples: the shortest
    padding at which the circular correlation does not wrap onto lags up to
    k_max. The two paths agree to rounding.
    """
    x = series.samples
    n = len(x)
    if not (math.isfinite(max_lag) and max_lag >= 0.0):
        raise QGeomError(f"max_lag must be finite and non-negative, got {max_lag!r}")
    if max_lag > series.duration / 4.0:
        raise QGeomError(
            f"max_lag {max_lag} s exceeds a quarter of the {series.duration} s series")
    k_max = int(round(max_lag * series.sample_rate))
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = x - x.mean()
        if k_max + 1 < _ACF_DIRECT_LAGS:
            acf = np.array([x0[:n - k] @ x0[k:] for k in range(k_max + 1)]) / n
        else:
            nfft = 1 << (n + k_max - 1).bit_length()
            spec = np.fft.rfft(x0, nfft)
            acf = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, nfft)[: k_max + 1] / n
    if not np.isfinite(acf).all():
        raise QGeomError("autocorrelation of this series is not finite in float64")
    lags = np.arange(k_max + 1) / series.sample_rate
    return lags, acf


def power_spectrum(series: NoiseSeries, segment_length: int,
                   overlap_fraction: float = 0.5) -> SpectrumEstimate:
    """Welch one-sided PSD with Hann windowing (Welch 1967).

    Each segment has its mean removed and is tapered by the periodic Hann
    window; the periodograms are averaged with density scaling and every
    bin but DC and Nyquist is doubled. segment_length must be a power of
    two, at least 2 and no longer than the series; overlap_fraction in
    [0, 1) defaults to 50%. A PSD that float64 cannot hold (samples beyond
    about 1e150, or a rate near 0) is refused, as the model PSD is.

    The periodograms are summed in segment order, each added to one running
    sum, so the bits of the PSD do not depend on how the segments are
    grouped. They are transformed in tiles of at most _WELCH_TILE values,
    or of one segment where a segment is longer.
    """
    n = len(series.samples)
    if segment_length < 2 or segment_length & (segment_length - 1):
        raise QGeomError(
            f"segment_length must be a power of two of at least 2, got {segment_length}")
    if segment_length > n:
        raise QGeomError(f"segment_length {segment_length} exceeds series length {n}")
    if not 0.0 <= overlap_fraction < 1.0:
        raise QGeomError(f"overlap_fraction must lie in [0, 1), got {overlap_fraction}")
    step = segment_length - int(segment_length * overlap_fraction)
    segments = sliding_window_view(series.samples, segment_length)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    n_freq = segment_length // 2 + 1
    rows = max(1, min(_WELCH_TILE // segment_length, len(segments)))
    tapered = np.empty((rows, segment_length))
    # row 0 carries the running sum, so one sum over rows 0..k adds the
    # tile's squared spectra to it one segment at a time, in segment order
    power_rows = np.zeros((rows + 1, n_freq))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(segments), rows):
            tile = segments[lo:lo + rows]
            k = len(tile)
            np.subtract(tile, tile.mean(axis=1, keepdims=True), out=tapered[:k])
            tapered[:k] *= window
            # re and im interleaved, squared in place: re^2 + im^2 per bin
            parts = np.fft.rfft(tapered[:k], axis=1).view(np.float64)
            np.square(parts, out=parts)
            np.add(parts[:, 0::2], parts[:, 1::2], out=power_rows[1:k + 1])
            power_rows[0] = power_rows[:k + 1].sum(axis=0)
        psd = power_rows[0] / (len(segments) * series.sample_rate * np.sum(window ** 2))
        psd[1:-1] *= 2.0
    if not np.isfinite(psd).all():
        raise QGeomError("Welch PSD of this series is not finite in float64")
    freqs = np.fft.rfftfreq(segment_length, 1.0 / series.sample_rate)
    return SpectrumEstimate(frequencies=freqs, psd=psd, segment_count=len(segments))


def analytic_psd(L: float, f, scale: PlanckScale):
    """One-sided model PSD of the jitter process (m^2/Hz).

    2*lam*L*tau_c*sinc^2(f*tau_c) for f > 0 and lam*L*tau_c at f = 0, with
    the coherence window tau_c = 2L/c (standard one-sided convention, DC
    undoubled); integrates to the process variance lam*L over [0, inf).
    """
    tau_c = coherence_time(L, scale)
    f_arr = np.asarray(f, dtype=float)
    # where pi f tau_c or lam L tau_c (as L^2) overflows, the grid is refused
    with np.errstate(over="ignore", invalid="ignore"):
        base = transverse_variance_formula(L, scale) * tau_c * np.sinc(f_arr * tau_c) ** 2
        out = np.where(f_arr > 0.0, 2.0 * base, base)
    if not np.isfinite(out).all():
        raise QGeomError(
            f"model PSD of arm length {L!r} m is not finite on this frequency grid")
    return float(out) if np.isscalar(f) or f_arr.ndim == 0 else out


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre on [0, 1], built on first use so that importing noise
    # loads no numpy.polynomial; 24 nodes reach rounding on every sinc^2
    # piece (its nearest pole in piece k is at x = -k; sin^2 is entire)
    t, w = np.polynomial.legendre.leggauss(24)
    return 0.5 * (t + 1.0), 0.5 * w


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


def band_power(L: float, f_lo: float, f_hi: float, scale: PlanckScale) -> float:
    """Integral of :func:`analytic_psd` over [f_lo, f_hi] (m^2), 0 <= f_lo < f_hi < inf.

    In x = f * tau_c the PSD is 2 lam L sinc^2(x) dx, integrated by
    Gauss-Legendre on each piece between the zeros of sinc at the integers;
    a band of more than 2 * _EDGE_PIECES periods takes the whole periods in
    between in closed form, so the cost is bounded.
    """
    if not 0.0 <= f_lo < f_hi < math.inf:
        raise QGeomError(f"band must satisfy 0 <= f_lo < f_hi < inf, got {(f_lo, f_hi)!r}")
    tau_c = coherence_time(L, scale)
    a, b = f_lo * tau_c, f_hi * tau_c
    if not math.isfinite(b):
        raise QGeomError(f"band end {f_hi!r} Hz times 2L/c overflows")
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
    width = t1 - t0
    if k_lo == k_hi:
        # the rounded ends lose up to ulp(x) of the width (all of it below
        # the spacing of x); the frequencies give it to rounding
        width[0] = (f_hi - f_lo) * tau_c
    gl_t, gl_w = _gauss_legendre()
    t = t0[:, None] + width[:, None] * gl_t
    x = k[:, None] + t
    # sin(pi t) / (pi x); at x = 0 (a band end that underflows) it is 1
    ratio = np.sinc(t) * np.divide(t, x, out=np.ones_like(t), where=x > 0)
    integral = float(width @ (ratio ** 2 @ gl_w)) + middle
    return 2.0 * transverse_variance_formula(L, scale) * integral


def drift_velocity_scale(L: float, scale: PlanckScale) -> float:
    """RMS displacement over the one-way coherence time: c*sqrt(lam/L) (m/s),
    for L in the range of :func:`coherence_time`."""
    coherence_time(L, scale)
    return scale.c * math.sqrt(angular_variance_formula(L, scale))

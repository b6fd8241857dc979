import dataclasses
import math

import numpy as np
import pytest

from qgeom import noise
from qgeom.errors import (
    InsufficientDataError,
    InsufficientDurationError,
    InvalidGridError,
    InvalidInputError,
    InvalidSeparationError,
    SegmentationError,
    UndersamplingError,
)
from qgeom.noise import (
    NoiseSeries,
    analytic_psd,
    autocorrelation,
    band_power,
    coherence_time,
    derive_stream_seed,
    drift_velocity_scale,
    generate_timeseries,
    power_spectrum,
)

L40 = 40.0


@pytest.fixture(scope="module")
def series40(scale):
    # rate = 4c/L puts exactly 8 samples in the coherence window, so the
    # triangle ACF hits its half and zero points on the lag grid
    return generate_timeseries(L40, 4 * scale.c / L40, 0.05, seed=7, scale=scale)


def test_variance_single_seed(scale):
    series = generate_timeseries(L40, 2.5e7, 0.1, seed=7, scale=scale)
    target = scale.lam * L40
    assert target == pytest.approx(1.824e-34, rel=1e-3)
    assert np.var(series.samples) == pytest.approx(target, rel=0.05)


def test_rms_one_meter(scale):
    series = generate_timeseries(1.0, 4 * scale.c, 2e-7, seed=3, scale=scale)
    rms = float(np.sqrt(np.mean(series.samples ** 2)))
    assert rms == pytest.approx(2.135e-18, rel=0.10)


def test_determinism(scale):
    a = generate_timeseries(L40, 2.5e7, 0.01, seed=42, scale=scale)
    b = generate_timeseries(L40, 2.5e7, 0.01, seed=42, scale=scale)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = generate_timeseries(L40, 2.5e7, 0.01, seed=43, scale=scale)
    assert not np.array_equal(a.samples, c.samples)


def test_stream_seeds_distinct():
    seeds = {derive_stream_seed(7, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_stream_seed(7, 0) != derive_stream_seed(0, 7)


def test_seed_domain(scale):
    assert derive_stream_seed(2**64 - 1, 2**64 - 1) == 2**128 - 1
    for master, k in [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)]:
        with pytest.raises(InvalidInputError):
            derive_stream_seed(master, k)
    for seed in (-1, 2**128):
        with pytest.raises(InvalidInputError):
            generate_timeseries(L40, 2.5e7, 0.005, seed=seed, scale=scale)


def test_coherence_time_range(scale):
    lp = scale.planck_length
    assert coherence_time(lp, scale) == 2.0 * lp / scale.c
    assert coherence_time(8e307, scale) == 2.0 * 8e307 / scale.c
    with pytest.raises(InvalidSeparationError, match="below the Planck length"):
        coherence_time(lp / 2, scale)
    with pytest.raises(InvalidSeparationError, match="below the Planck length"):
        coherence_time(1e-310, scale)
    with pytest.raises(InvalidSeparationError, match="overflows 2L/c"):
        coherence_time(1e308, scale)
    for L in (0.0, -L40, math.nan, math.inf):
        with pytest.raises(InvalidSeparationError) as exc:
            coherence_time(L, scale)
        assert str(exc.value) == f"arm length must be positive and finite, got {L!r}"


def test_generation_preconditions(scale):
    with pytest.raises(UndersamplingError):
        generate_timeseries(L40, 1e6, 0.1, seed=0, scale=scale)
    with pytest.raises(InsufficientDurationError):
        generate_timeseries(L40, 2.5e7, 1e-6, seed=0, scale=scale)


def test_variance_ensemble_convergence(scale):
    target = scale.lam * L40
    variances = [
        np.var(generate_timeseries(L40, 2.5e7, 0.005,
                                   seed=derive_stream_seed(11, k),
                                   scale=scale).samples)
        for k in range(100)
    ]
    mean = np.mean(variances)
    sem = np.std(variances, ddof=1) / 10.0
    assert abs(mean - target) < 3 * sem


def test_acf_lag_zero_is_variance(series40, scale):
    _, acf = autocorrelation(series40, max_lag=coherence_time(L40, scale))
    assert acf[0] == pytest.approx(np.var(series40.samples), rel=1e-12)


def test_acf_triangle_shape(series40, scale):
    lags, acf = autocorrelation(series40, max_lag=2 * coherence_time(L40, scale))
    c0 = acf[0]
    half = int(round(series40.sample_rate * L40 / scale.c))
    full = 2 * half
    assert acf[half] / c0 == pytest.approx(0.5, abs=0.05)
    assert abs(acf[full]) < 0.05 * c0


def test_acf_max_lag_guard(series40):
    with pytest.raises(InsufficientDataError):
        autocorrelation(series40, max_lag=series40.duration / 2)


# n + crossover = 2**12 + 1: at k_max = crossover the FFT must pad to 2**13,
# and one sample less of padding would wrap lag n - 1 onto lag k_max
ACF_N = 2 ** 12 + 1 - noise._ACF_DIRECT_LAGS


@pytest.mark.parametrize("k_max", [
    0, noise._ACF_DIRECT_LAGS - 2, noise._ACF_DIRECT_LAGS - 1, noise._ACF_DIRECT_LAGS,
    ACF_N // 4])
def test_acf_matches_correlate(k_max):
    # both the direct-lag and the FFT path against an independent reference
    x = np.random.default_rng(8).normal(3.0, 1.0, ACF_N)
    series = NoiseSeries(samples=x, sample_rate=1.0)
    lags, acf = autocorrelation(series, max_lag=float(k_max))
    x0 = x - x.mean()
    reference = np.correlate(x0, x0, "full")[ACF_N - 1:ACF_N + k_max] / ACF_N
    np.testing.assert_array_equal(lags, np.arange(k_max + 1))
    np.testing.assert_allclose(acf, reference, rtol=0.0, atol=1e-12 * reference[0])


@pytest.mark.parametrize("max_lag", [-1e-6, math.nan, math.inf, -math.inf])
def test_acf_max_lag_invalid(max_lag):
    series = NoiseSeries(samples=np.random.default_rng(9).standard_normal(2500),
                         sample_rate=2.5e7)
    with pytest.raises(InvalidInputError):
        autocorrelation(series, max_lag=max_lag)


def test_white_noise_psd_flat(scale):
    rng = np.random.default_rng(5)
    sigma2 = 4.0
    fs = 1000.0
    series = NoiseSeries(samples=math.sqrt(sigma2) * rng.standard_normal(2 ** 16),
                         sample_rate=fs)
    est = power_spectrum(series, segment_length=1024)
    # one-sided white PSD is 2 sigma^2 / fs
    band = est.frequencies > 0
    assert np.mean(est.psd[band]) == pytest.approx(2 * sigma2 / fs, rel=0.05)


def test_psd_parseval(series40):
    est = power_spectrum(series40, segment_length=4096)
    df = est.frequencies[1] - est.frequencies[0]
    assert np.sum(est.psd) * df == pytest.approx(np.var(series40.samples), rel=0.05)


def test_psd_rolloff_band(series40, scale):
    # half-power knee of the 40 m process sits in the few-MHz range
    est = power_spectrum(series40, segment_length=4096)
    low = est.psd[(est.frequencies > 0) & (est.frequencies < 1e6)].mean()
    above = est.psd[(est.frequencies > 1e7)].mean()
    assert above < 0.5 * low
    knee = scale.c / (2 * L40)
    assert 1e6 < knee < 1e7


def test_psd_segmentation_errors(series40):
    with pytest.raises(SegmentationError):
        power_spectrum(series40, segment_length=1000)  # not a power of two
    with pytest.raises(SegmentationError):
        power_spectrum(series40, segment_length=1)  # no Hann taper of one sample
    with pytest.raises(SegmentationError):
        power_spectrum(series40, segment_length=2 ** 24)
    with pytest.raises(SegmentationError):
        power_spectrum(series40, segment_length=1024, overlap_fraction=1.0)


@pytest.mark.parametrize("segment_length", [256, 4096])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
def test_welch_matches_scipy(series40, segment_length, overlap):
    signal = pytest.importorskip("scipy.signal")
    series = dataclasses.replace(series40, samples=series40.samples[:300_001])
    est = power_spectrum(series, segment_length, overlap)
    noverlap = int(segment_length * overlap)
    freqs, psd = signal.welch(series.samples, fs=series.sample_rate, window="hann",
                              nperseg=segment_length, noverlap=noverlap,
                              detrend="constant", return_onesided=True,
                              scaling="density")
    np.testing.assert_array_equal(est.frequencies, freqs)
    np.testing.assert_allclose(est.psd, psd, rtol=1e-12, atol=0.0)
    step = segment_length - noverlap
    assert est.segment_count == 1 + (300_001 - segment_length) // step


def test_analytic_psd_values(scale):
    tau = 2 * L40 / scale.c
    assert analytic_psd(L40, 0.0, scale) == pytest.approx(
        scale.lam * L40 * tau, rel=1e-12)
    assert analytic_psd(L40, 0.0, scale) == pytest.approx(4.866e-41, rel=1e-3)
    for k in (1, 2, 5):
        assert analytic_psd(L40, k / tau, scale) == pytest.approx(0.0, abs=1e-60)


def test_analytic_psd_integral(scale):
    # Parseval: the one-sided PSD integrates to the process variance lam*L
    tau = 2 * L40 / scale.c
    f = np.linspace(0, 400 / tau, 4_000_001)
    psd = analytic_psd(L40, f, scale)
    integral = np.sum((psd[1:] + psd[:-1]) * np.diff(f)) / 2  # trapezoid rule
    assert integral == pytest.approx(scale.lam * L40, rel=1e-3)


@pytest.mark.filterwarnings("error")
def test_analytic_psd_refuses_overflow(scale):
    # pi * f * 2L/c overflows inside np.sinc, and 2 lam L 2L/c beyond 5e175 m
    with pytest.raises(InvalidGridError):
        analytic_psd(5.677e16, np.array([0.0, 1e300]), scale)
    with pytest.raises(InvalidGridError):
        analytic_psd(1e300, 0.0, scale)


@pytest.mark.filterwarnings("error")
def test_sample_total_beyond_any_array(scale):
    # refused before int() or numpy sees it: one overflows, one is 2.5e307 samples
    for rate, duration in ((1e308, 1e308), (2.5e7, 1e300)):
        with pytest.raises(InvalidInputError, match="largest array"):
            generate_timeseries(L40, rate, duration, 0, scale)


def test_band_power_total_is_variance(scale):
    # the closed-form tail makes the whole spectrum cheap; its power is lam*L
    assert band_power(L40, 0.0, 1e300, scale) == pytest.approx(scale.lam * L40, rel=1e-14)
    with pytest.raises(InvalidSeparationError):
        band_power(-L40, 1e6, 2e6, scale)


def test_welch_matches_analytic(scale):
    rate = 16 * scale.c / L40
    tau = 2 * L40 / scale.c
    psd_sum = None
    for k in range(20):
        series = generate_timeseries(L40, rate, 2e-3,
                                     seed=derive_stream_seed(21, k), scale=scale)
        est = power_spectrum(series, segment_length=4096)
        psd_sum = est.psd if psd_sum is None else psd_sum + est.psd
    welch = psd_sum / 20
    model = analytic_psd(L40, est.frequencies, scale)
    # compare band averages over 0.1/tau-wide bins; pointwise relative error
    # is ill-conditioned at the sinc zeros
    for k in range(1, 30):
        lo, hi = k * 0.1 / tau, (k + 1) * 0.1 / tau
        sel = (est.frequencies >= lo) & (est.frequencies < hi)
        assert welch[sel].mean() == pytest.approx(model[sel].mean(), rel=0.2)


def test_stationarity(scale):
    series = generate_timeseries(L40, 2.5e7, 0.05, seed=9, scale=scale)
    half = len(series.samples) // 2
    v1, v2 = np.var(series.samples[:half]), np.var(series.samples[half:])
    assert v1 == pytest.approx(v2, rel=0.10)


def test_drift_velocity(scale):
    v1 = drift_velocity_scale(1.0, scale)
    assert v1 == pytest.approx(2.135e-18 * scale.c, rel=1e-3)
    assert v1 == pytest.approx(6.4e-10, rel=0.01)
    assert drift_velocity_scale(scale.lam, scale) == pytest.approx(scale.c, rel=1e-12)
    assert drift_velocity_scale(100.0, scale) == pytest.approx(v1 / 10, rel=1e-12)

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qgeom import noise
from qgeom.errors import QGeomError
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


@pytest.mark.parametrize("rate, duration", [
    # a window of 4 samples over 2**21 of them, then windows of 7, 32 and 267
    (1.5e7, 2 ** 21 / 1.5e7), (2.5e7, 2e-3), (1.2e8, 2e-3), (1e9, 2e-3)])
def test_running_sum_against_exact_windows(rate, duration, scale):
    # each sample is its window's sum of white draws, correctly rounded by
    # math.fsum, scaled; the running sum's error is measured in series sigmas
    series = generate_timeseries(L40, rate, duration, seed=5, scale=scale)
    n, m = len(series.samples), round(rate * coherence_time(L40, scale))
    assert n >= 40_000 and (m == 4) == (n >= 2 ** 21)
    white = np.random.Generator(np.random.Philox(key=5)).standard_normal(n + m - 1)
    picked = np.unique(np.r_[0:m, np.linspace(0, n - 1, 2001).astype(int), n - m:n])
    exact = np.array([math.fsum(white[i:i + m].tolist()) for i in picked])
    exact *= math.sqrt(scale.lam * L40 / m)
    error = np.abs(series.samples[picked] - exact).max()
    assert error <= 1e-12 * math.sqrt(scale.lam * L40), error


# forced OpenBLAS kernels stand in for other CPUs; each needs these host
# features, in numpy's names
OPENBLAS_KERNELS = {"Prescott": ["SSE3"], "Nehalem": ["SSSE3", "SSE41", "SSE42"],
                    "Sandybridge": ["AVX"], "Haswell": ["AVX2", "FMA3"]}

# at L = 40 m, windows of 7, 12, 32 and 267 samples
WINDOW_RATES = (2.5e7, 4.5e7, 1.2e8, 1e9)

# prints the sha256 of the series at each of those rates, and of its Welch PSD
HASH_SCRIPT = f"""
import hashlib
from qgeom.constants import codata_scale
from qgeom.noise import generate_timeseries, power_spectrum
for rate in {WINDOW_RATES}:
    series = generate_timeseries(40.0, rate, 2e-3, 3, codata_scale())
    for bits in (series.samples, power_spectrum(series, segment_length=256).psd):
        print(hashlib.sha256(bits.tobytes()).hexdigest())
"""


def numpy_cpu():
    """numpy's dispatched optimizations and the host's features, as numpy reads them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


def run_python(python, script, **env):
    # a fresh interpreter, where the environment can still choose numpy's kernels
    return python("-c", script,
                  env={"OPENBLAS_CORETYPE": None, "NPY_DISABLE_CPU_FEATURES": None, **env})


@pytest.fixture(scope="module")
def default_hashes(python):
    proc = run_python(python, HASH_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("setting", [*OPENBLAS_KERNELS, "AVX-512 off"])
def test_series_bits_do_not_depend_on_cpu(setting, default_hashes, python, scale):
    # a BLAS call in synthesis or Welch would take these bits from the CPU's
    # kernel, as a dot product does from 12 samples on
    tau = coherence_time(L40, scale)
    assert [round(r * tau) for r in WINDOW_RATES] == [7, 12, 32, 267]
    dispatch, features = numpy_cpu()
    if setting in OPENBLAS_KERNELS:
        missing = [f for f in OPENBLAS_KERNELS[setting] if not features.get(f)]
        if missing:
            pytest.skip(f"OPENBLAS_CORETYPE={setting}: the host lacks {' '.join(missing)}")
        proc = run_python(python, HASH_SCRIPT, OPENBLAS_CORETYPE=setting)
    else:
        avx512 = [f for f in dispatch
                  if (f.startswith("AVX512") or f == "X86_V4") and features.get(f)]
        if not avx512:
            pytest.skip("AVX-512 off: numpy dispatches no AVX-512 path on this host")
        disabled = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
        refused = run_python(python, "import numpy", **disabled)
        if refused.returncode:
            pytest.skip(f"AVX-512 off: numpy refuses {disabled}: "
                        f"{refused.stderr.strip().splitlines()[-1]}")
        proc = run_python(python, HASH_SCRIPT, **disabled)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == default_hashes


def test_stream_seeds_distinct():
    seeds = {derive_stream_seed(7, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_stream_seed(7, 0) != derive_stream_seed(0, 7)


def test_seed_domain(scale):
    assert derive_stream_seed(2**64 - 1, 2**64 - 1) == 2**128 - 1
    for master, k, name in [(-1, 0, "master_seed"), (2**64, 0, "master_seed"),
                            (0, -1, "k"), (0, 2**64, "k")]:
        with pytest.raises(QGeomError, match=rf"^{name} must lie in \[0, 2\*\*64\)"):
            derive_stream_seed(master, k)
    for seed in (-1, 2**128):
        with pytest.raises(QGeomError, match=r"^seed must lie in \[0, 2\*\*128\)"):
            generate_timeseries(L40, 2.5e7, 0.005, seed=seed, scale=scale)


def test_coherence_time_range(scale):
    lp = scale.planck_length
    assert coherence_time(lp, scale) == 2.0 * lp / scale.c
    assert coherence_time(8e307, scale) == 2.0 * 8e307 / scale.c
    with pytest.raises(QGeomError, match="below the Planck length"):
        coherence_time(lp / 2, scale)
    with pytest.raises(QGeomError, match="below the Planck length"):
        coherence_time(1e-310, scale)
    with pytest.raises(QGeomError, match="overflows 2L/c"):
        coherence_time(1e308, scale)
    for L in (0.0, -L40, math.nan, math.inf):
        with pytest.raises(QGeomError, match="arm length must be positive") as exc:
            coherence_time(L, scale)
        assert str(exc.value) == f"arm length must be positive and finite, got {L!r}"


def test_generation_preconditions(scale):
    with pytest.raises(QGeomError, match="under 4 samples per coherence window"):
        generate_timeseries(L40, 1e6, 0.1, seed=0, scale=scale)
    with pytest.raises(QGeomError, match="under 10 coherence windows"):
        generate_timeseries(L40, 2.5e7, 1e-6, seed=0, scale=scale)
    # the smallest accepted pair: 4 samples per window over 10 windows
    tau = coherence_time(L40, scale)
    rate, duration = 4.0 / tau, 10.0 * tau
    for r, d in ((math.nextafter(rate, 0.0), duration),
                 (rate, math.nextafter(duration, 0.0))):
        with pytest.raises(QGeomError, match="under"):
            generate_timeseries(L40, r, d, seed=0, scale=scale)
    assert len(generate_timeseries(L40, rate, duration, seed=0, scale=scale).samples) >= 40


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
    with pytest.raises(QGeomError, match="max_lag .* exceeds a quarter of the"):
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k_max", [noise._ACF_DIRECT_LAGS - 2, noise._ACF_DIRECT_LAGS])
@pytest.mark.parametrize("bad", [math.nan, 1e200])
def test_acf_refuses_what_float64_cannot_hold(bad, k_max):
    # one NaN sample, or squares of 1e200 that overflow, on the direct-lag
    # and on the FFT path; neither warns
    x = np.random.default_rng(8).normal(3.0, 1.0, ACF_N)
    x[ACF_N // 2] = bad
    series = NoiseSeries(samples=x, sample_rate=1.0)
    with pytest.raises(QGeomError, match="^autocorrelation of this series is not finite"):
        autocorrelation(series, max_lag=float(k_max))


@pytest.mark.parametrize("max_lag", [-1e-6, math.nan, math.inf, -math.inf])
def test_acf_max_lag_invalid(max_lag):
    series = NoiseSeries(samples=np.random.default_rng(9).standard_normal(2500),
                         sample_rate=2.5e7)
    with pytest.raises(QGeomError, match="max_lag must be finite and non-negative"):
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
    with pytest.raises(QGeomError, match="segment_length must be a power of two"):
        power_spectrum(series40, segment_length=1000)  # not a power of two
    with pytest.raises(QGeomError, match="segment_length must be a power of two"):
        power_spectrum(series40, segment_length=1)  # no Hann taper of one sample
    with pytest.raises(QGeomError, match="segment_length 16777216 exceeds series length"):
        power_spectrum(series40, segment_length=2 ** 24)
    with pytest.raises(QGeomError, match="overlap_fraction must lie in"):
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


def welch_reference(series, segment_length, overlap_fraction):
    # this loop defines the bits of the PSD: one segment at a time, its
    # periodogram added to one running sum in segment order
    step = segment_length - int(segment_length * overlap_fraction)
    segments = sliding_window_view(series.samples, segment_length)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    power = np.zeros(segment_length // 2 + 1)
    for segment in segments:
        spec = np.fft.rfft((segment - segment.mean()) * window)
        power = power + (spec.real ** 2 + spec.imag ** 2)
    psd = power / (len(segments) * series.sample_rate * np.sum(window ** 2))
    psd[1:-1] *= 2.0
    return psd, len(segments)


def welch_cases(segment_length, overlap, counts):
    # a series of each segment count, with a partial segment left over
    step = segment_length - int(segment_length * overlap)
    for count in sorted(c for c in set(counts) if c > 0):
        n = segment_length + count * step - 1
        samples = np.random.default_rng(count).standard_normal(n)
        yield count, NoiseSeries(samples=samples, sample_rate=2.5e7)


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("segment_length", [2, 16, 256, 4096, 65536])
def test_welch_tiles_bitwise(segment_length, overlap):
    tile = max(1, noise._WELCH_TILE // segment_length)
    counts = [1, tile - 1, tile, tile + 1, 255, 256, 257, 513, 1219]
    # to bound the run time, at 65536 samples per segment only the counts of
    # up to 16 segments run; at the shorter lengths every count runs
    counts = [c for c in counts if min(c, 256) * segment_length <= 2 ** 20]
    for count, series in welch_cases(segment_length, overlap, counts):
        est = power_spectrum(series, segment_length, overlap)
        psd, segment_count = welch_reference(series, segment_length, overlap)
        assert est.segment_count == segment_count == count
        assert np.array_equal(est.psd, psd), (count, segment_length, overlap)


@pytest.mark.parametrize("tile", [1, 48, 2 ** 10, 2 ** 20])
def test_welch_bits_do_not_depend_on_tile(tile, monkeypatch):
    # one segment per tile too, and tiles that do not divide the count
    monkeypatch.setattr(noise, "_WELCH_TILE", tile)
    for segment_length in (16, 256):
        for count, series in welch_cases(segment_length, 0.5, [1, 255, 257, 513]):
            psd, _ = welch_reference(series, segment_length, 0.5)
            assert np.array_equal(power_spectrum(series, segment_length).psd, psd)


@pytest.mark.filterwarnings("error")
def test_welch_refuses_what_float64_cannot_hold():
    # squared spectra of +-1e200 overflow, and so does the density at the
    # smallest rate; neither warns
    alternating = NoiseSeries(samples=np.tile([1e200, -1e200], 32), sample_rate=1e6)
    slowest = NoiseSeries(samples=np.random.default_rng(4).standard_normal(64),
                          sample_rate=5e-324)
    for series in (alternating, slowest):
        with pytest.raises(QGeomError, match="^Welch PSD of this series is not finite"):
            power_spectrum(series, segment_length=16)
    for rate in (math.inf, 0.0, -1e6, math.nan):
        with pytest.raises(QGeomError, match="^sample rate must be positive and finite"):
            power_spectrum(NoiseSeries(samples=np.ones(64), sample_rate=rate), 16)


def test_welch_memory_bounded():
    # the untiled loop peaked at 25.4 MB here, four block-sized temporaries
    x = np.random.default_rng(11).standard_normal(2_500_000)
    series = NoiseSeries(samples=x, sample_rate=2.5e7)
    tracemalloc.start()
    try:
        power_spectrum(series, segment_length=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


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
    with pytest.raises(QGeomError, match="model PSD of arm length .* is not finite"):
        analytic_psd(5.677e16, np.array([0.0, 1e300]), scale)
    with pytest.raises(QGeomError, match="model PSD of arm length .* is not finite"):
        analytic_psd(1e300, 0.0, scale)


@pytest.mark.filterwarnings("error")
def test_sample_total_beyond_any_array(scale):
    # refused before int() or numpy sees it: one overflows, one is 2.5e307 samples
    for rate, duration in ((1e308, 1e308), (2.5e7, 1e300)):
        with pytest.raises(QGeomError, match="largest array"):
            generate_timeseries(L40, rate, duration, 0, scale)


def test_band_power_total_is_variance(scale):
    # the closed-form tail makes the whole spectrum cheap; its power is lam*L
    assert band_power(L40, 0.0, 1e300, scale) == pytest.approx(scale.lam * L40, rel=1e-14)
    with pytest.raises(QGeomError, match="arm length must be positive"):
        band_power(-L40, 1e6, 2e6, scale)


def test_stationarity(scale):
    series = generate_timeseries(L40, 2.5e7, 0.05, seed=9, scale=scale)
    half = len(series.samples) // 2
    v1, v2 = np.var(series.samples[:half]), np.var(series.samples[half:])
    assert v1 == pytest.approx(v2, rel=0.10)


def test_drift_velocity(scale):
    v1 = drift_velocity_scale(1.0, scale)
    assert v1 == pytest.approx(2.135e-18 * scale.c, rel=1e-3)
    assert v1 == pytest.approx(6.4e-10, rel=0.01)
    # v(L) sqrt(L / lam) = c at supported lengths; lam itself is below the
    # Planck length, which the arm-length rule refuses
    for L in (1.0, scale.planck_length):
        assert drift_velocity_scale(L, scale) * math.sqrt(L / scale.lam) == pytest.approx(
            scale.c, rel=1e-12)
    for L in (scale.lam, 1e-310):
        with pytest.raises(QGeomError, match="below the Planck length"):
            drift_velocity_scale(L, scale)
    assert drift_velocity_scale(100.0, scale) == pytest.approx(v1 / 10, rel=1e-12)

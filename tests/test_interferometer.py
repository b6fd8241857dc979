import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgeom import interferometer as itf
from qgeom.algebra import (build_representation, highest_weight_state,
                           transverse_variance_formula, transverse_variance_operator)
from qgeom.errors import QGeomError
from qgeom.noise import analytic_psd, band_power


# integral of sinc^2(x) over [f_lo tau, f_hi tau] for L = 40 m: mpmath at
# 60 digits, Si(2 pi x) / pi - sin^2(pi x) / (pi^2 x) (past 1e100 Hz the
# upper end is 1/2 to within 1e-290); the narrow bands agree with
# mpmath.quad to 1e-47. Bands inside one sinc^2 piece (x-width under 1)
# take the width from the frequencies, so their ends are the exact
# products f tau of the floats f and tau; for (0, 1e3) Hz these differ
# from the rounded ends by 8e-18. The wider bands use the float ends
SINC2_MPMATH = {
    (0.0, 5e6): "4.579148776079879905904315412065890511179e-1",
    (1e8, 1e10): "1.869134057685585312538473284676398622567e-3",
    (1e9, 1e12): "1.895647994884466331544210821296195043236e-4",
    (1e11, 1e11 + 1e3): "5.794338588601938463532519579474185607659e-15",
    (1e9, 1e9 + 1e3): "7.690128213670942626754434853326638672709e-11",
    (3.7e6, 3.7e6 + 1.0): "4.378138439624706435601078169781027175770e-11",
    (0.0, 1e3): "2.668512553200883619054769131573258044432e-4",
    (1e3, 1e20): "4.997331487446780131801762977125522290554e-1",
    (1e6, 1e300): "2.528565295535227664941201784425901735132e-1",
    (1e11, 100000000000.00002): "8.823997603819062227842043657628982411989e-23",
    (130567005798.4, 130567005798.40001): "2.600231148442451036571425174956724099997e-24",
}


WIDE_BANDS = [(1e8, 1e10), (1e9, 1e12)]
# one float of f apart: the x ends are one float apart, then the same float
NARROW_BANDS = [(1e11, 100000000000.00002), (130567005798.4, 130567005798.40001)]


def trapezoid(y, x):
    return np.sum((y[1:] + y[:-1]) * np.diff(x)) / 2


def snr_oracle(scale, band):
    # the snr_proxy of detectability(cfg40, 1e-41, band, 3600.0, scale)
    width = band[1] - band[0]
    power = 2 * scale.lam * 40.0 * float(SINC2_MPMATH[band])
    return power / (1e-41 * width) * math.sqrt(3600.0 * width)


@pytest.fixture
def cfg40():
    return itf.InterferometerConfig(arm_length=40.0, label="holo-40")


def test_predict_rms(scale, cfg40):
    assert itf.predict_rms(itf.InterferometerConfig(1.0), scale) == pytest.approx(
        2.135e-18, rel=1e-3)
    assert itf.predict_rms(cfg40, scale) == pytest.approx(1.350e-17, rel=1e-3)
    assert itf.predict_rms(cfg40, scale) == pytest.approx(
        math.sqrt(40) * 2.135e-18, rel=1e-3)


def test_rms_matches_variance_formula(scale, cfg40):
    assert itf.predict_rms(cfg40, scale) ** 2 == pytest.approx(
        transverse_variance_formula(40.0, scale), rel=1e-14)


# the chain's relative bound: 1.3e-15 was measured along (0.6, 0, 0.8) and
# 4.4e-16 along z; the highest-weight state's exp and log are per CPU
CHAIN_REL = 1e-14


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8)])
def test_paper_chain_operator_to_interferometer(axis, scale):
    # the paper's chain: a body at separation L is in a spin-j state with
    # L = lam j, and its highest-weight state's transverse variance lam^2 j is
    # the variance lam L the interferometer sees; below j = 3.54 that L is under
    # the Planck length, which predict_rms takes and coherence_time refuses
    for twice_j in np.unique(np.round(np.geomspace(1.0, 2e6, 16))):
        rep = build_representation(twice_j / 2, scale)
        variance = transverse_variance_operator(rep, highest_weight_state(rep, axis), axis)
        arm = scale.lam * rep.spin
        rms = itf.predict_rms(itf.InterferometerConfig(arm_length=arm), scale)
        assert variance == pytest.approx(rms ** 2, rel=CHAIN_REL, abs=0.0), twice_j
        assert variance == pytest.approx(
            transverse_variance_formula(arm, scale), rel=CHAIN_REL, abs=0.0), twice_j


def test_invalid_arm_length():
    with pytest.raises(QGeomError, match="^arm length must be positive and finite"):
        itf.InterferometerConfig(arm_length=0.0)


def test_output_psd_knee(scale, cfg40):
    knee = scale.c / (2 * cfg40.arm_length)
    assert knee == pytest.approx(3.75e6, rel=2e-3)
    f = np.linspace(0, 2e7, 5001)
    psd = itf.predict_output_psd(cfg40, f, scale)
    np.testing.assert_allclose(psd, analytic_psd(40.0, f, scale))


def test_output_psd_zeros(scale, cfg40):
    tau = 2 * 40.0 / scale.c
    f = np.array([1 / tau, 2 / tau, 3 / tau])
    psd = itf.predict_output_psd(cfg40, f, scale)
    np.testing.assert_allclose(psd, 0.0, atol=1e-60)


def test_output_psd_integral(scale, cfg40):
    tau = 2 * 40.0 / scale.c
    f = np.linspace(0, 8 / tau, 400_001)
    psd = itf.predict_output_psd(cfg40, f, scale)
    integral = trapezoid(psd, f)
    assert integral == pytest.approx(scale.lam * 40.0, rel=0.02)


def test_output_psd_grid_validation(scale, cfg40):
    with pytest.raises(QGeomError, match="frequency grid must be finite"):
        itf.predict_output_psd(cfg40, [1.0, 0.5, 2.0], scale)
    with pytest.raises(QGeomError, match="frequency grid must be finite"):
        itf.predict_output_psd(cfg40, [-1.0, 0.0, 1.0], scale)
    for grid in ([math.nan, 1.0], [0.0, 1.0, math.nan], [0.0, 1.0, math.inf]):
        with pytest.raises(QGeomError, match="frequency grid must be finite"):
            itf.predict_output_psd(cfg40, grid, scale)
        with pytest.raises(QGeomError, match="frequency grid must be finite"):
            itf.cross_spectrum(cfg40, cfg40, grid, scale)


def test_cross_spectrum_separated(scale, cfg40):
    f = np.linspace(0, 1e7, 101)
    far = itf.InterferometerConfig(40.0, position=(80.0, 0, 0))
    assert np.all(itf.cross_spectrum(cfg40, far, f, scale) == 0.0)
    mid = itf.InterferometerConfig(40.0, position=(40.0, 0, 0))
    cross = itf.cross_spectrum(cfg40, mid, f, scale)
    np.testing.assert_allclose(
        cross, 0.5 * itf.predict_output_psd(cfg40, f, scale))


def test_cross_spectrum_symmetry(scale, cfg40):
    f = np.linspace(0, 1e7, 101)
    b = itf.InterferometerConfig(25.0, position=(10.0, -5.0, 2.0))
    np.testing.assert_array_equal(itf.cross_spectrum(cfg40, b, f, scale),
                                  itf.cross_spectrum(b, cfg40, f, scale))


def test_cross_spectrum_bitwise_where_product_finite(scale):
    # sqrt(S_a S_b) wherever the product is a float, and a finite root where it overflows
    rng = np.random.default_rng(24)
    f = np.linspace(0.0, 2e7, 201)
    lo = math.log10(scale.planck_length)
    arms = np.maximum(scale.planck_length, 10.0 ** rng.uniform(lo, 150.0, size=(60, 2)))
    overflowed = 0
    for la, lb in [*arms.tolist(), (1e150, 1e150), (1e150, 3e149)]:
        a = itf.InterferometerConfig(la)
        b = itf.InterferometerConfig(lb, position=(rng.uniform(0.0, 2.0 * min(la, lb)), 0, 0))
        with np.errstate(over="ignore", under="ignore"):
            product = analytic_psd(la, f, scale) * analytic_psd(lb, f, scale)
        finite = np.isfinite(product)
        overflowed += not finite.all()
        cross = itf.cross_spectrum(a, b, f, scale)
        assert np.isfinite(cross).all()
        np.testing.assert_array_equal(
            cross[finite], (itf.overlap_factor(a, b) * np.sqrt(product))[finite])
    assert overflowed >= 2


def test_cross_spectrum_equal_arms_is_auto_psd(scale):
    # co-located equal arms give the model PSD bit for bit on the CLI's default
    # grid, from the Planck length to 5e175 m, where S_a S_b overflows above about 1e98 m
    f = np.linspace(0.0, 2e7, 2001)
    logspaced = np.logspace(-34.0, math.log10(5e175), 70)[:-1].tolist()
    arms = [scale.planck_length, *logspaced, 40.0, 1e150, 5e175]
    for arm in arms:
        cfg = itf.InterferometerConfig(arm)
        np.testing.assert_array_equal(itf.cross_spectrum(cfg, cfg, f, scale),
                                      analytic_psd(arm, f, scale), err_msg=repr(arm))


@given(st.floats(min_value=0, max_value=200), st.floats(min_value=0, max_value=200))
def test_overlap_factor_monotone(d1, d2):
    a = itf.InterferometerConfig(40.0)
    lo, hi = sorted((d1, d2))
    g_lo = itf.overlap_factor(a, itf.InterferometerConfig(40.0, position=(lo, 0, 0)))
    g_hi = itf.overlap_factor(a, itf.InterferometerConfig(40.0, position=(hi, 0, 0)))
    assert 0.0 <= g_hi <= g_lo <= 1.0


def test_detectability_limits(scale, cfg40):
    tiny = itf.detectability(cfg40, 1e-80, (1e6, 5e6), 3600.0, scale)
    assert tiny.verdict == "detect"
    loud = itf.detectability(cfg40, 1e-10, (1e6, 5e6), 1e-3, scale)
    assert loud.verdict == "exclude"
    assert loud.snr_proxy < 1.0


def test_detectability_regression(scale, cfg40):
    # oracle: dense trapezoid quadrature of the model PSD over the band
    floor = 2 * scale.lam * 40.0 * (2 * 40.0 / scale.c)  # peak value
    report = itf.detectability(cfg40, floor, (1e6, 5e6), 3600.0, scale)
    f = np.linspace(1e6, 5e6, 400_001)
    power = trapezoid(analytic_psd(40.0, f, scale), f)
    oracle = power / (floor * 4e6) * math.sqrt(3600.0 * 4e6)
    assert report.snr_proxy == pytest.approx(oracle, rel=1e-6)
    assert report.snr_proxy == pytest.approx(23695.379, rel=1e-6)
    assert report.verdict == "detect"


@pytest.mark.parametrize("band", WIDE_BANDS)
def test_detectability_wide_band(band, scale, cfg40):
    report = itf.detectability(cfg40, 1e-41, band, 3600.0, scale)
    assert report.snr_proxy == pytest.approx(snr_oracle(scale, band), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("band", [b for b in SINC2_MPMATH if b not in WIDE_BANDS])
def test_band_power_mpmath(band, scale, cfg40):
    # from DC, narrow and far from DC (where two Si antiderivatives
    # cancel), and wider than any quadrature could cover period by period
    report = itf.detectability(cfg40, 1e-41, band, 3600.0, scale)
    assert report.snr_proxy == pytest.approx(snr_oracle(scale, band), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("band", NARROW_BANDS)
def test_band_power_below_x_spacing(band, scale):
    # the width comes from the frequencies, since the rounded x ends lose it
    want = 2 * scale.lam * 40.0 * float(SINC2_MPMATH[band])
    assert band_power(40.0, *band, scale) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_detectability_monotone_in_floor(scale, cfg40):
    floors = np.logspace(-45, -30, 12)
    snrs = [itf.detectability(cfg40, fl, (1e6, 5e6), 100.0, scale).snr_proxy
            for fl in floors]
    assert all(a >= b for a, b in zip(snrs, snrs[1:]))


def test_detectability_invalid_band(scale, cfg40):
    with pytest.raises(QGeomError, match="band must satisfy 0 <= f_lo < f_hi < inf"):
        itf.detectability(cfg40, 1e-40, (5e6, 1e6), 100.0, scale)
    with pytest.raises(QGeomError, match="band must satisfy 0 <= f_lo < f_hi < inf"):
        itf.detectability(cfg40, 1e-40, (2e6, 2e6), 100.0, scale)
    with pytest.raises(QGeomError, match="band end 1e[+]308 Hz times 2L/c overflows"):
        itf.detectability(itf.InterferometerConfig(1e10), 1e-40, (1e6, 1e308), 100.0, scale)


@pytest.mark.parametrize("floor, band, integration_time, refused", [
    (1e-41, (1e6, math.inf), 3600.0, "band"),
    (1e-41, (math.nan, 5e6), 3600.0, "band"),
    (1e-41, (1e6, math.nan), 3600.0, "band"),
    (math.inf, (1e6, 5e6), 3600.0, "floor"),
    (math.nan, (1e6, 5e6), 3600.0, "floor"),
    (1e-41, (1e6, 5e6), math.inf, "integration_time"),
    (1e-41, (1e6, 5e6), math.nan, "integration_time"),
])
def test_detectability_non_finite(scale, cfg40, floor, band, integration_time, refused):
    with pytest.raises(QGeomError, match=f"^{refused} must"):
        itf.detectability(cfg40, floor, band, integration_time, scale)


def test_load_config(tmp_path):
    path = tmp_path / "apparatus.cfg"
    path.write_text(
        "# Fermilab-style 40 m instrument\n"
        "label = holo-a\n"
        "arm_length_m = 40\n"
        "position_m = 1.0, 2.0, 3.0\n")
    cfg = itf.load_config(path)
    assert cfg.label == "holo-a"
    assert cfg.arm_length == 40.0
    assert cfg.position == (1.0, 2.0, 3.0)


def test_load_config_missing_arm(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("label = x\n")
    with pytest.raises(QGeomError, match="bad.cfg: missing arm_length_m"):
        itf.load_config(path)

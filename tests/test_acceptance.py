"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report.
"""

import json
import math

import numpy as np
import pytest

from qgeom import algebra, bounds, cli
from qgeom.constants import codata_scale
from qgeom.noise import (
    analytic_psd,
    autocorrelation,
    derive_stream_seed,
    drift_velocity_scale,
    generate_timeseries,
    power_spectrum,
)

SCALE = codata_scale()


def _report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_criterion_1_planck_anchor():
    ok = abs(SCALE.planck_length - 1.616e-35) / 1.616e-35 < 5e-4
    _report(1, "planck length anchor", ok)


def test_criterion_2_commutator_exactness():
    worst = 0.0
    for twice_j in range(1, 401):
        rep = algebra.build_representation(twice_j / 2, SCALE)
        worst = max(worst, algebra.commutator_residual(rep))
    _report(2, f"commutator residual (worst {worst:.2e})", worst < 1e-12)


def test_criterion_3_transverse_anchor():
    value = algebra.transverse_variance_formula(1.0, SCALE)
    ok = abs(math.sqrt(value) - 2.135e-18) / 2.135e-18 < 5e-4
    _report(3, "transverse variance anchor", ok)


def test_criterion_4_operator_formula_convergence():
    ok = True
    for j in (1.0, 10.0, 100.0):
        rep = algebra.build_representation(j, SCALE)
        state = algebra.highest_weight_state(rep)
        ratio = (algebra.transverse_variance_operator(rep, state)
                 / (SCALE.lam * algebra.radial_observable(rep)))
        ok &= 1 - 1 / (2 * j) <= ratio <= 1 + 1e-12
    j = 1000.0
    radial = algebra.radial_observable(algebra.build_representation(j, SCALE))
    ratio = SCALE.lam ** 2 * j / (SCALE.lam * radial)
    ok &= 1 - 1 / (2 * j) <= ratio <= 1 + 1e-12
    _report(4, "operator/formula convergence", ok)


def test_criterion_5_variance_identity():
    ok = True
    for L in np.logspace(-3, 4, 50):
        lhs = algebra.angular_variance_formula(L, SCALE) * L ** 2
        rhs = algebra.transverse_variance_formula(L, SCALE)
        ok &= abs(lhs - rhs) <= 1e-15 * rhs
    _report(5, "Eq.(3)-(4) identity", ok)


def test_criterion_6_state_counting():
    ok = abs(algebra.state_count_continuum(SCALE.planck_length, SCALE)
             - 4 * math.pi) < 1e-12 * 4 * math.pi
    for j in (100, 1000, 10000):
        ratio = (algebra.state_count_discrete(j)
                 / algebra.state_count_continuum(SCALE.lam * j, SCALE))
        ok &= abs(ratio - 1) <= 3 / j
    _report(6, "state counting", ok)


def test_criterion_7_noise_statistics():
    L = 40.0
    rate = 16 * SCALE.c / L        # 32 samples per coherence window
    tau = 2 * L / SCALE.c
    duration = 2e-3
    target = SCALE.lam * L
    variances = []
    acf_sum = None
    psd_sum = None
    for k in range(100):
        series = generate_timeseries(L, rate, duration,
                                     seed=derive_stream_seed(2026, k),
                                     scale=SCALE)
        variances.append(np.var(series.samples))
        _, acf = autocorrelation(series, max_lag=2 * tau)
        acf_sum = acf if acf_sum is None else acf_sum + acf
        est = power_spectrum(series, segment_length=4096)
        psd_sum = est.psd if psd_sum is None else psd_sum + est.psd
    mean_var = float(np.mean(variances))
    sem = float(np.std(variances, ddof=1)) / 10.0
    ok_var = abs(mean_var - target) < 3 * sem

    acf = acf_sum / 100
    c0 = acf[0]
    half = int(round(rate * L / SCALE.c))
    ok_acf = (abs(acf[0] - target) < 0.05 * target
              and abs(acf[half] - 0.5 * target) < 0.05 * c0
              and abs(acf[2 * half]) < 0.05 * c0)

    welch = psd_sum / 100
    model = analytic_psd(L, est.frequencies, SCALE)
    ok_psd = True
    # band averages over 0.1/tau bins spanning [0.1, 3]/tau; pointwise
    # comparison is ill-conditioned at the sinc zeros inside the band
    for k in range(1, 30):
        sel = (est.frequencies >= k * 0.1 / tau) & (est.frequencies < (k + 1) * 0.1 / tau)
        ok_psd &= abs(welch[sel].mean() - model[sel].mean()) <= 0.2 * model[sel].mean()
    _report(7, "noise ensemble statistics", ok_var and ok_acf and ok_psd)


def test_criterion_8_scale_claims():
    ratio = drift_velocity_scale(1.0, SCALE) / SCALE.c
    ok = 1e-18 / 3 <= ratio <= 3e-18
    for arm in (10.0, 40.0, 100.0):
        knee = SCALE.c / (2 * arm)
        ok &= 1e6 <= knee <= 15e6
    _report(8, "drift speed and knee frequency", ok)


def test_criterion_9_bounds_diagram():
    ratio = bounds.intersection_scale(SCALE) / SCALE.planck_length
    ok = 1.0 <= ratio <= 2.0
    ok &= bounds.classify(9.109e-31, 1e-10, SCALE) == "field_theory_side"
    ok &= bounds.classify(1.0, 1.0, SCALE) == "classical_matter_side"
    masses = np.logspace(-20, 10, 1000)
    diff = np.array([bounds.compton_size(m, SCALE)
                     - bounds.schwarzschild_radius(m, SCALE) for m in masses])
    ok &= np.count_nonzero(np.diff(np.sign(diff))) == 1
    _report(9, "size/mass boundary diagram", ok)


def test_criterion_10_manifest_reproducibility(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["noise", "--arm-length", "40", "--rate", "2.5e7",
            "--duration", "0.005", "--seed", "7", "--out", "series.csv"]
    assert cli.run(argv) == 0
    first = (tmp_path / "series.csv").read_bytes()
    manifest_path = tmp_path / "series.csv.manifest.json"
    first_manifest = manifest_path.read_bytes()
    (tmp_path / "series.csv").unlink()
    assert cli.rerun_from_manifest(manifest_path) == 0
    ok = ((tmp_path / "series.csv").read_bytes() == first
          and manifest_path.read_bytes() == first_manifest)
    _report(10, "seeded manifest rerun bitwise identical", ok)

"""Tests of the benchmark's own checks and tracer.

Run with `python -m pytest -q perfbench` from the repository root.
Each check must reject a bad output and the tally must count it failed.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import LAM, CheckError, Tally  # noqa: E402
from qgeom import cli, constants, interferometer, noise  # noqa: E402
from tracer import Tracer, import_breakdown  # noqa: E402

RATE, DURATION = 2.5e7, 0.005
SAMPLES = 125_000
SEGMENTS = 1 + (SAMPLES - 4096) // 2048


def edited(report: str, key: str, value: str) -> str:
    return "\n".join(f"{key} {value}" if line.split(" ")[0] == key else line
                     for line in report.splitlines())


def counted(verify) -> Tally:
    tally = Tally()
    tally.record(0.1, 1, verify)
    return tally


def rejected(verify) -> Tally:
    """The check raised CheckError and the tally counts one wrong, failed operation."""
    with pytest.raises(CheckError):
        verify()
    tally = counted(verify)
    assert (tally.ok, tally.wrong, tally.attempted) == (0, 1, 1)
    return tally


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory):
    """A real noise -> spectrum run, small enough for a unit test."""
    work = tmp_path_factory.mktemp("pipeline")
    ctx = workloads.Context(work=work, seed=3, python=sys.executable, env={},
                            in_process=True, rng=None)
    series, psd = work / "series.csv", work / "psd.csv"
    _, noise_out = workloads.invoke(ctx, [
        "noise", "--arm-length", "40", "--rate", str(RATE), "--duration", str(DURATION),
        "--seed", "3", "--out", str(series)])
    _, spec_out = workloads.invoke(ctx, [
        "spectrum", "--input", str(series), "--arm-length", "40", "--out", str(psd)])
    assert noise_out[0] == 0 and spec_out[0] == 0
    return series, noise_out[1], psd, spec_out[1]


def test_good_pipeline_outputs_pass(pipeline_outputs):
    series, noise_out, psd, spec_out = pipeline_outputs
    checks.check_series(series, noise_out, SAMPLES, RATE, 40.0)
    off = checks.check_spectrum(psd, spec_out, RATE, 40.0, 4096, SEGMENTS)
    assert 0 < off <= 29   # the 7-sample window is not the model's 2L/c


def test_spectrum_of_documented_window_passes(pipeline_outputs, tmp_path):
    """A generator fixed to realize 2L/c must pass, with no band off its model."""
    _, _, psd, spec_out = pipeline_outputs
    freqs = np.loadtxt(psd, delimiter=",", skiprows=1)[:, 0]
    model = checks.model_psd(freqs, LAM * 40.0, 80.0 / checks.C, RATE)
    documented = tmp_path / "psd.csv"
    np.savetxt(documented, np.column_stack([freqs, model]), delimiter=",",
               header="f_hz,psd_m2_per_hz", comments="", fmt="%.17g")
    assert checks.check_spectrum(documented, spec_out, RATE, 40.0, 4096, SEGMENTS) == 0


def test_stale_output_removed_before_a_call(tmp_path):
    ctx = workloads.Context(work=tmp_path, seed=0, python=sys.executable, env={},
                            in_process=True, rng=None)
    stale = tmp_path / "psd.csv"
    stale.write_text("f_hz,psd_m2_per_hz\n1,1\n")
    _, result = workloads.invoke(ctx, ["spectrum", "--input", "missing.csv",
                                       "--arm-length", "40", "--out", "psd.csv"])
    assert result[0] != 0 and not stale.exists()


def test_truncated_series_rejected(pipeline_outputs, tmp_path):
    series, noise_out, _, _ = pipeline_outputs
    short = tmp_path / "short.csv"
    short.write_text("".join(series.read_text().splitlines(keepends=True)[:-5]))
    tally = rejected(lambda: checks.check_series(short, noise_out, SAMPLES, RATE, 40.0))
    assert "shape" in tally.messages[0]


def test_rescaled_series_rejected(pipeline_outputs, tmp_path):
    series, noise_out, _, _ = pipeline_outputs
    data = np.loadtxt(series, delimiter=",", skiprows=1)
    data[:, 1] *= 1.1          # variance 21% high
    scaled = tmp_path / "scaled.csv"
    np.savetxt(scaled, data, delimiter=",", header="t_s,x_m", comments="", fmt="%.17g")
    rejected(lambda: checks.check_series(scaled, noise_out, SAMPLES, RATE, 40.0))


def test_bad_spectrum_rejected(pipeline_outputs, tmp_path):
    _, _, psd, spec_out = pipeline_outputs
    rejected(lambda: checks.check_spectrum(
        psd, spec_out.replace(f"segments {SEGMENTS}", "segments 3"), RATE, 40.0, 4096,
        SEGMENTS))
    data = np.loadtxt(psd, delimiter=",", skiprows=1)
    data[:, 1] *= 1.5
    doubled = tmp_path / "psd.csv"
    np.savetxt(doubled, data, delimiter=",", header="f_hz,psd_m2_per_hz", comments="",
               fmt="%.17g")
    rejected(lambda: checks.check_spectrum(doubled, spec_out, RATE, 40.0, 4096, SEGMENTS))


def test_crash_is_a_failure_not_a_wrong_output():
    tally = counted(lambda: checks.expect_exit((1, "", "Traceback\nAssertionError: x\n")))
    assert (tally.failed, tally.wrong) == (1, 0)
    assert tally.messages == ["failed: exit 1: AssertionError: x"]
    tally = counted(lambda: workloads.returned(ValueError("bad")))
    assert tally.failed == 1


def test_residual_above_bound_rejected():
    checks.check_residual(2.0, 5, 1e-13)
    rejected(lambda: checks.check_residual(2.0, 5, 2e-12))
    rejected(lambda: checks.check_residual(2.0, 4, 1e-13))


def test_transverse_ratio_outside_criterion_4_rejected():
    j = 10.0
    radial = LAM * math.sqrt(j * (j + 1))
    checks.check_transverse(j, LAM ** 2 * j, radial)
    rejected(lambda: checks.check_transverse(j, LAM ** 2 * j * 1.1, radial))
    rejected(lambda: checks.check_transverse(j, LAM ** 2 * j * 0.9, radial))


def test_ensemble_statistics_checked():
    scale = constants.codata_scale()
    rate, tau = workloads.ENS_RATE, workloads.ENS_TAU
    members = [noise.generate_timeseries(40.0, rate, 2e-3, noise.derive_stream_seed(5, k),
                                         scale) for k in range(20)]
    variances = [float(s.samples.var()) for s in members]
    acf = np.mean([noise.autocorrelation(s, 2 * tau)[1] for s in members], axis=0)
    ests = [noise.power_spectrum(s, 4096) for s in members]
    psd = np.mean([e.psd for e in ests], axis=0)
    freqs = ests[0].frequencies
    assert checks.check_ensemble(variances, acf, psd, freqs, rate, 40.0) == 0
    rejected(lambda: checks.check_ensemble([v * 1.05 for v in variances], acf, psd, freqs,
                                           rate, 40.0))
    rejected(lambda: checks.check_ensemble(variances, acf, psd * 1.3, freqs, rate, 40.0))
    tally = Tally()
    for _ in range(3):
        tally.record(0.1, 1, lambda: None)
    tally.reject(3, "ensemble statistics")
    assert (tally.ok, tally.wrong) == (0, 3)


def test_cli_quick_checks(tmp_path):
    ctx = workloads.Context(work=tmp_path, seed=0, python=sys.executable, env={},
                            in_process=True, rng=None)
    for name, text in workloads.FIXTURES.items():
        (tmp_path / name).write_text(text)
    outputs = []
    for argv, check in workloads.QUICK_CALLS:
        argv = [str(tmp_path / a) if a.endswith((".csv", ".cfg")) else a for a in argv]
        _, result = workloads.invoke(ctx, argv)
        outputs.append(result)
        if "500" not in argv:
            assert result[0] == 0, result[2]
            check(result[1], tmp_path)
    assert ctx.tracer is None
    point, curves, model, cross, spin50, _ = (r[1] for r in outputs)
    bad_point = edited(point, "intersection_m", repr(1.0001 * math.sqrt(2) * checks.PLANCK_LENGTH))
    rejected(lambda: checks.check_bounds_point(bad_point, 1.989e30, 1.0))
    rejected(lambda: checks.check_bounds_point(point, 1.989e30, 1e5))   # another regime
    lines = (tmp_path / "curves.csv").read_text().splitlines(keepends=True)
    (tmp_path / "curves.csv").write_text("".join(lines[:-1]))
    rejected(lambda: checks.check_bounds_curves(curves, tmp_path / "curves.csv", 1000))
    rejected(lambda: checks.check_model_psd(cross, tmp_path / "cross.csv", 40.0, 2001))
    rejected(lambda: checks.check_model_psd(model, tmp_path / "model_psd.csv", 41.0, 2001))
    rejected(lambda: checks.check_verdict("verdict maybe"))
    bad_residual = edited(spin50, "commutator_residual", "2e-12")
    rejected(lambda: checks.check_algebra_report(bad_residual, 50.0))


def test_host_speed_sampled_between_operations(monkeypatch):
    host = hostspeed.HostSpeed()
    tally = Tally(between=host.catch_up)
    tally.record(0.1, 1, lambda: None)
    assert host.samples == []              # under a period since the start: none due
    monkeypatch.setattr(hostspeed, "PERIOD_S", 1e-9)
    monkeypatch.setattr(hostspeed, "MAX_BURST", 3)
    tally.record(0.1, 1, lambda: checks.expect(False, "bad"))
    assert len(host.samples) == 3 and (tally.ok, tally.wrong) == (1, 1)
    assert host.speed() == sorted(host.samples)[1] / hostspeed.REFERENCE_S


def test_tracer_wraps_every_binding_and_restores():
    scale = constants.codata_scale()
    originals = (cli.derive_planck_scale, interferometer.analytic_psd, noise.analytic_psd)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.derive_planck_scale is not originals[0]
        assert interferometer.analytic_psd is noise.analytic_psd is not originals[2]
        cfg = interferometer.InterferometerConfig(arm_length=40.0)
        interferometer.predict_output_psd(cfg, np.linspace(0, 1e7, 11), scale)
        noise.generate_timeseries(40.0, 2.5e7, 1e-4, 1, scale)
    finally:
        tracer.uninstall()
    assert (cli.derive_planck_scale, interferometer.analytic_psd, noise.analytic_psd) == originals
    outer, inner = (next(s for s in tracer.spans if s["name"] == name)
                    for name in ("interferometer.predict_output_psd", "noise.analytic_psd"))
    assert inner["parent"] == outer["id"]
    assert outer["self"] == pytest.approx(outer["end"] - outer["start"]
                                          - (inner["end"] - inner["start"]))
    layers = tracer.per_pass([0])
    assert layers["noise.analytic_psd.calls"] == 1
    assert layers["noise.samples"] == 2500
    assert layers["algebra.build_representation.calls"] == 0


def test_import_breakdown(tmp_path):
    env = {"PYTHONPATH": str(ROOT / "src")}
    found = import_breakdown(sys.executable, env, "import qgeom.algebra", tmp_path)
    assert found["import.qgeom_s"] > found["import.numpy_s"] > 0
    assert found["import.scipy_s"] == 0 and found["import.scipy_modules"] == 0
    assert found["import.modules"] > 50


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()

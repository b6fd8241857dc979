import json
import math
import multiprocessing
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qgeom import algebra, bounds, cli, files, interferometer, noise
from qgeom.constants import codata_scale
from qgeom.errors import QGeomError


A_CFG = "label = a\narm_length_m = 40\nposition_m = 0,0,0\n"
SCALE = codata_scale()
LAM = SCALE.lam
NOISE_ARGV = ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "1e-5",
              "--out", "s.csv"]


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return cli.run(argv)


# every command that writes files; the spectrum and interferometer cases
# read inputs that are made before the run and kept across the rerun
RERUN_ARGV = {
    "noise": ["noise", "--arm-length", "40", "--rate", "2.5e7",
              "--duration", "0.005", "--seed", "13", "--out", "series.csv"],
    "spectrum": ["spectrum", "--input", "in.csv", "--arm-length", "40",
                 "--segment-length", "1024", "--out", "psd.csv"],
    "algebra": ["algebra", "--spin", "2", "--check", "--dump-matrices", "rep"],
    "interferometer": ["interferometer", "--config", "a.cfg", "--config-b", "b.cfg",
                       "--n-freq", "11", "--out", "cross.csv"],
    "bounds": ["bounds", "--grid-points", "20", "--out", "curves.csv"],
    # an output path that argparse would take for an option, were it a
    # separate token
    "bounds-dash": ["bounds", "--grid-points", "20", "--out=-c.csv"],
    # 780 Welch segments, past the 256 up to which version 0.2.0 wrote the same bits
    "spectrum-long": ["spectrum", "--input", "in.csv", "--arm-length", "40",
                      "--segment-length", "64", "--out", "psd.csv"],
}


def write_input_series(path):
    # 25,000 samples of the 40 m process at 2.5e7 Hz, as t_s,x_m rows
    series = noise.generate_timeseries(40.0, 2.5e7, 0.001, 3, SCALE)
    files.write_table(*files.series_table(path, series))


@pytest.mark.parametrize("command", RERUN_ARGV)
def test_noise_manifest_rerun_bitwise(command, tmp_path, monkeypatch):
    (tmp_path / "a.cfg").write_text(A_CFG)
    (tmp_path / "b.cfg").write_text("label = b\narm_length_m = 40\nposition_m = 40,0,0\n")
    write_input_series(tmp_path / "in.csv")
    inputs = {p.name for p in tmp_path.iterdir()}
    assert run_in(tmp_path, monkeypatch, RERUN_ARGV[command]) == 0
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name not in inputs}
    manifest = next(name for name in written if name.endswith(".manifest.json"))
    outputs = json.loads(written[manifest])["output_paths"]
    assert sorted(written) == sorted(outputs + [manifest])
    for name in outputs:
        (tmp_path / name).unlink()
    assert cli.rerun_from_manifest(tmp_path / manifest) == 0
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def test_manifest_with_constants_is_usage_error(tmp_path, monkeypatch, capsys, exit_contract):
    # manifests record no constants; one that lists them, as older
    # manifests do, names options the CLI no longer has
    assert run_in(tmp_path, monkeypatch, ["bounds", "--grid-points", "20",
                                          "--out", "c.csv"]) == 0
    path = tmp_path / "c.csv.manifest.json"
    manifest = json.loads(path.read_text())
    assert not {"hbar", "G", "c"} & set(manifest["parameters"])
    manifest["parameters"].update(G=6.6743e-11, c=299792458.0, hbar=1.054571817e-34)
    path.write_text(json.dumps(manifest))
    (tmp_path / "c.csv").unlink()
    capsys.readouterr()
    assert cli.rerun_from_manifest(path) == 2
    exit_contract(2, *capsys.readouterr(), set(tmp_path.iterdir()) - {path})


def test_manifest_with_both_apparatus_is_usage_error(tmp_path, monkeypatch, capsys,
                                                     exit_contract):
    # an older manifest could record --config with --arm-length, which
    # dropped the arm length; such a rerun now names two apparatus
    (tmp_path / "a.cfg").write_text("label = a\narm_length_m = 40\n")
    path = tmp_path / "x.csv.manifest.json"
    path.write_text(json.dumps({
        "command": "interferometer",
        "parameters": {"arm_length": 4000.0, "config": "a.cfg", "out": "x.csv"},
        "seed": None, "tool_version": "0.1.0", "output_paths": ["x.csv"]}))
    monkeypatch.chdir(tmp_path)
    assert cli.rerun_from_manifest(path) == 2
    out, err = capsys.readouterr()
    exit_contract(2, out, err, set(tmp_path.iterdir()) - {tmp_path / "a.cfg", path})
    assert "not allowed with argument" in err


@pytest.mark.parametrize("env_seed", ["99", "abc"])
def test_seed_default_ignores_environment(env_seed, tmp_path, monkeypatch):
    # the argv is a run's only input: without --seed, noise runs seed 0
    argv = ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.005"]
    assert run_in(tmp_path, monkeypatch, argv + ["--seed", "0", "--out", "s0.csv"]) == 0
    monkeypatch.setenv("QGEOM_SEED", env_seed)
    assert cli.run(argv + ["--out", "s.csv"]) == 0
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s0.csv").read_bytes()
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["seed"] == 0


def test_spectrum_rows_are_the_segment_fold(tmp_path, monkeypatch, capsys):
    # past 256 segments the PSD is still the periodograms added to one
    # running sum in segment order, written as repr of each value
    write_input_series(tmp_path / "in.csv")
    assert run_in(tmp_path, monkeypatch, RERUN_ARGV["spectrum-long"]) == 0
    assert "segments 780\n" in capsys.readouterr().out
    series = files.read_series(tmp_path / "in.csv")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(64) / 64)
    power = np.zeros(33)
    for segment in np.lib.stride_tricks.sliding_window_view(series.samples, 64)[::32]:
        spec = np.fft.rfft((segment - segment.mean()) * window)
        power = power + (spec.real ** 2 + spec.imag ** 2)
    psd = power / (780 * series.sample_rate * np.sum(window ** 2))
    psd[1:-1] *= 2.0
    freqs = np.fft.rfftfreq(64, 1.0 / series.sample_rate)
    rows = [f"{f!r},{p!r}" for f, p in zip(freqs.tolist(), psd.tolist())]
    assert (tmp_path / "psd.csv").read_text().splitlines() == ["f_hz,psd_m2_per_hz"] + rows


def _counted(line, sizes):
    def wrapper(mass, *args, **kwargs):
        sizes.append(np.size(mass))
        return line(mass, *args, **kwargs)
    return wrapper


def test_bounds_grid_one_call_per_line(tmp_path, monkeypatch):
    calls = {"compton_size": [], "schwarzschild_radius": []}
    for name, sizes in calls.items():
        monkeypatch.setattr(bounds, name, _counted(getattr(bounds, name), sizes))
    assert run_in(tmp_path, monkeypatch, ["bounds", "--grid-points", "5000",
                                          "--out", "c.csv"]) == 0
    assert calls["compton_size"] == [5000]
    assert calls["schwarzschild_radius"] == [5000]


# every success report, as (setup argv or None, argv, {key: expected}): a plain value is
# exact, a pytest.approx holds its tolerance (abs=0.0 below approx's default abs, 1e-12);
# each runs as text and as --json, in fresh directories holding a.cfg and the setup's files
REPORTS = [
    *[(None, ["algebra", "--spin", str(spin), "--check"],
       {"commutator_residual": pytest.approx(0.0, abs=1e-12),
        "x3_max_m": pytest.approx(spin * LAM, rel=1e-10, abs=0.0),
        "x3_min_m": pytest.approx(-spin * LAM, rel=1e-10, abs=0.0)}) for spin in (50, 500)],
    # the bands have no dense cap; only the matrix dump has one, a REFUSALS row
    (None, ["algebra", "--spin", "2500", "--check"],
     {"dim": 5001, "commutator_residual": pytest.approx(0.0, abs=1e-12)}),
    (None, ["algebra", "--spin", "1"], {"dim": 3}),
    (None, ["algebra", "--spin", "2", "--check"], {"dim": 5}),
    (None, NOISE_ARGV, {"samples": 250}),
    (NOISE_ARGV, ["spectrum", "--input", "s.csv", "--arm-length", "40", "--segment-length",
                  "16", "--out", "p.csv"], {"segments": 30}),
    (None, ["interferometer", "--config", "a.cfg", "--f-min", "0", "--f-max", "1e7",
            "--n-freq", "101", "--out", "psd.csv", "--floor", "1e-41"],
     {"rms_m": pytest.approx(1.350e-17, rel=1e-3, abs=0.0),
      "knee_hz": pytest.approx(3.75e6, rel=2e-3), "verdict": "detect"}),
    (None, ["interferometer", "--arm-length", "40", "--floor", "1e-41"], {"verdict": "detect"}),
    # floor * bandwidth and integration_time * bandwidth overflow, the proxy does not
    (None, ["interferometer", "--arm-length", "40", "--floor", "1.2e16", "--band-lo", "40",
            "--band-hi", "3.6e292", "--integration-time", "1e236"],
     {"verdict": "exclude", "snr_proxy": pytest.approx(8.00983e-79, rel=1e-6, abs=0.0)}),
    (None, ["bounds", "--mass", "1.989e30"], {"schwarzschild_m": pytest.approx(2953.0, rel=1e-3)}),
    (None, ["bounds", "--mass", "9.109e-31", "--size", "1e-15"], {"regime": "forbidden_quantum"}),
    (None, ["bounds", "--mass", "1.989e30", "--size", "1"], {"regime": "forbidden_blackhole"}),
]


@pytest.mark.parametrize("setup, argv, expected", REPORTS,
                         ids=[f"argv{i}" for i in range(len(REPORTS))])
def test_report_exit_0(setup, argv, expected, tmp_path, monkeypatch, capsys, exit_contract):
    reports = []
    for form in ([], ["--json"]):
        directory = tmp_path / ("json" if form else "text")
        directory.mkdir()
        (directory / "a.cfg").write_text(A_CFG)
        monkeypatch.chdir(directory)
        if setup is not None:
            assert cli.run(setup) == 0
        inputs = set(directory.iterdir())
        capsys.readouterr()
        assert cli.run(form + argv) == 0
        out, err = capsys.readouterr()
        exit_contract(0, out, err, set(directory.iterdir()) - inputs)
        reports.append(out)
    # each number of the text report is a JSON number of the same digits
    text = dict(line.split(" ", 1) for line in reports[0].splitlines())
    doc = json.loads(reports[1])
    assert list(doc) == list(text)
    numbers = 0
    for key, value in doc.items():
        try:
            float(text[key])
        except ValueError:
            assert value == text[key], key
        else:
            assert type(value) in (int, float) and text[key] == repr(value), key
            numbers += 1
    assert numbers >= 2
    for key, want in expected.items():
        assert doc[key] == want, key


# input files the invalid-input cases read; each case runs with all of them
BAD_INPUTS = {
    "dup.csv": "t_s,x_m\n0.0,1e-17\n0.0,2e-17\n4e-08,3e-17\n",
    "nan.csv": "t_s,x_m\n0.0,1e-17\n4e-08,nan\n8e-08,3e-17\n",
    "gap.csv": "t_s,x_m\n0.0,1e-17\n4e-08,2e-17\n1.2e-07,3e-17\n",
    "ok.csv": "t_s,x_m\n0.0,1e-17\n4e-08,2e-17\n8e-08,3e-17\n",
    # no rows, on which np.loadtxt warns before the refusal
    "hdr.csv": "t_s,x_m\n",
    "empty.csv": "",
    "forty.cfg": "label = a\narm_length_m = forty\n",
    "nan.cfg": "label = b\narm_length_m = 40\nposition_m = nan,0,0\n",
    "inf.cfg": "label = b\narm_length_m = 40\nposition_m = inf,0,0\n",
    "big.cfg": "label = big\narm_length_m = 1e150\n",
    # a misspelt key, a colon for '=' and a repeated key, each once silently dropped
    "key.cfg": "label = b\narm_length_m = 40\nposition = 30, 0, 0\n",
    "colon.cfg": "label = b\narm_length_m = 40\nposition_m: 30, 0, 0\n",
    "twice.cfg": "label = b\narm_length_m = 40\nposition_m = 30,0,0\nposition_m = 0,0,0\n",
    # a subnormal time step, whose rate is inf, and a time span that
    # overflows, whose rate is 0
    "tiny.csv": "t_s,x_m\n0.0,1.0\n5e-324,2.0\n1e-323,0.5\n1.5e-323,1.0\n",
    "wide.csv": "t_s,x_m\n-1e308,1.0\n1e308,2.0\n",
    # 64 samples of +-1e200 at 1 MHz, whose squared spectra overflow
    "huge.csv": "t_s,x_m\n" + "".join(f"{k / 1e6!r},{(-1) ** k * 1e200!r}\n"
                                       for k in range(64)),
    # 64 rows at 1 MHz without the header, once read 63 rows short, and a
    # header in other units, once read as seconds and metres
    "nohdr.csv": "".join(f"{k / 1e6!r},{k * 1e-17!r}\n" for k in range(64)),
    "units.csv": "t_ms,x_nm\n" + "".join(f"{k / 1e3!r},{k * 1e-8!r}\n" for k in range(64)),
    # a row that is not two numbers: a word, a third column and an empty sample
    "abc.csv": "t_s,x_m\n0.0,1e-17\n4e-08,abc\n8e-08,3e-17\n",
    "ragged.csv": "t_s,x_m\n0.0,1e-17\n4e-08,2e-17,5\n8e-08,3e-17\n",
    "blank.csv": "t_s,x_m\n0.0,1e-17\n4e-08,\n8e-08,3e-17\n",
    # numbers to float() but not to np.loadtxt: an underscore and an Arabic-Indic digit
    "under.csv": "t_s,x_m\n0.0,1e-17\n4e-08,2_0\n8e-08,3e-17\n",
    "digit.csv": "t_s,x_m\n0.0,1e-17\n4e-08,\u0661\n8e-08,3e-17\n",
    # a bad row after a blank line and a comment line, which are skipped
    "late.csv": "t_s,x_m\n0.0,1e-17\n4e-08,2e-17\n\n# comment\n8e-08,abc\n",
}


# every refusal, as (the error line it prints after "error: ", argv): the
# whole line where it is fixed, and the line up to the OS, codec or numpy
# message where it quotes one; each case runs with all of BAD_INPUTS
REFUSALS = [
    ("seed must lie in [0, 2**128), got -1",
     ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.005",
      "--seed", "-1", "--out", "s.csv"]),
    ("duration must be positive and finite, got inf",
     ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "inf", "--out", "s.csv"]),
    ("duration must be positive and finite, got nan",
     ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "nan", "--out", "s.csv"]),
    ("sample rate must be positive and finite, got inf",
     ["noise", "--arm-length", "40", "--rate", "inf", "--duration", "0.005", "--out", "s.csv"]),
    ("missing/s.csv: cannot write: ",
     ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.005",
      "--out", "missing/s.csv"]),
    ("missing.csv: cannot read: ",
     ["spectrum", "--input", "missing.csv", "--arm-length", "40", "--out", "p.csv"]),
    ("dup.csv: times must increase in uniform steps",
     ["spectrum", "--input", "dup.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("nan.csv: non-finite time or sample",
     ["spectrum", "--input", "nan.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("gap.csv: times must increase in uniform steps",
     ["spectrum", "--input", "gap.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("nope.cfg: cannot read: ", ["interferometer", "--config", "nope.cfg", "--out", "p.csv"]),
    ("forty.cfg: could not convert string to float: 'forty'",
     ["interferometer", "--config", "forty.cfg", "--out", "p.csv"]),
    ("need 0 < --grid-min < --grid-max, both finite",
     ["bounds", "--grid-min", "0", "--out", "c.csv"]),
    ("need --grid-points >= 1, got -3", ["bounds", "--grid-points", "-3", "--out", "c.csv"]),
    ("need --grid-points >= 1, got 0", ["bounds", "--grid-points", "0", "--out", "c.csv"]),
    ("frequency grid must be finite, non-negative and increasing",
     ["interferometer", "--arm-length", "40", "--f-min", "nan", "--out", "x.csv"]),
    ("frequency grid must be finite, non-negative and increasing",
     ["interferometer", "--arm-length", "40", "--f-max", "inf", "--out", "y.csv"]),
    ("band must satisfy 0 <= f_lo < f_hi < inf, got (1000000.0, inf)",
     ["interferometer", "--arm-length", "40", "--floor", "1e-41", "--band-hi", "inf"]),
    ("integration_time must be positive and finite, got inf",
     ["interferometer", "--arm-length", "40", "--floor", "1e-41",
      "--integration-time", "inf"]),
    ("need --n-freq >= 1, got -1",
     ["interferometer", "--arm-length", "40", "--n-freq", "-1", "--out", "a.csv"]),
    ("floor must be positive and finite, got -1.0",
     ["interferometer", "--arm-length", "40", "--out", "p.csv", "--floor", "-1"]),
    ("band must satisfy 0 <= f_lo < f_hi < inf, got (9000000.0, 1000000.0)",
     ["interferometer", "--arm-length", "40", "--out", "p.csv", "--floor", "1e-41",
      "--band-lo", "9e6", "--band-hi", "1e6"]),
    (": cannot write: ", ["bounds", "--out", ""]),
    (": cannot write: ", ["interferometer", "--arm-length", "40", "--out", ""]),
    ("--dump-matrices: empty prefix", ["algebra", "--spin", "1", "--dump-matrices", ""]),
    ("nan.cfg: position must be three finite numbers, got (nan, 0.0, 0.0)",
     ["interferometer", "--arm-length", "40", "--config-b", "nan.cfg", "--out", "x.csv"]),
    ("inf.cfg: position must be three finite numbers, got (inf, 0.0, 0.0)",
     ["interferometer", "--arm-length", "40", "--config-b", "inf.cfg", "--out", "x.csv"]),
    # the one arm-length message, shared with interferometer below
    ("arm length must be positive and finite, got -5.0",
     ["spectrum", "--input", "ok.csv", "--arm-length", "-5", "--segment-length", "2",
      "--out", "p.csv"]),
    ("arm length must be positive and finite, got nan",
     ["spectrum", "--input", "ok.csv", "--arm-length", "nan", "--segment-length", "2",
      "--out", "p.csv"]),
    ("--size needs --mass", ["bounds", "--size", "1"]),
    ("--config-b needs --out", ["interferometer", "--arm-length", "40", "--config-b", "nan.cfg"]),
    pytest.param("/dev/full: cannot write: ",
                 ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.001",
                  "--out", "/dev/full"],
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="needs /dev/full")),
    # beyond any address space
    ("Unable to allocate 178. PiB for an array with shape (25000000000000006,)",
     ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "1e9",
      "--out", "big.csv"]),
    ("Unable to allocate 711. PiB for an array with shape (100000000000000000,)",
     ["interferometer", "--arm-length", "40", "--n-freq", "100000000000000000",
      "--out", "f.csv"]),
    (": cannot read: ",
     ["interferometer", "--arm-length", "40", "--config-b", "", "--out", "x.csv"]),
    ("arm length 1e+308 m overflows 2L/c",
     ["interferometer", "--arm-length", "1e308", "--out", "x.csv"]),
    ("arm length 1e+308 m overflows 2L/c", ["interferometer", "--arm-length", "1e308"]),
    ("arm length 1e-310 m is below the Planck length 1.61625502392855e-35 m",
     ["interferometer", "--arm-length", "1e-310", "--floor", "1e-41"]),
    # the last grid mass rounds up to inf
    ("mass must be positive and finite, got inf",
     ["bounds", "--grid-min", "1", "--grid-max", "1.7976931348623157e308", "--out", "g.csv"]),
    # pi f 2L/c overflows
    ("model PSD of arm length 5.677e+16 m is not finite on this frequency grid",
     ["interferometer", "--arm-length", "5.677e16", "--f-max", "1e300", "--n-freq", "1012",
      "--out", "p.csv"]),
    ("sample rate 1e+308 Hz times duration 1e+308 s exceeds the largest array, "
     "1152921504606846975 samples",
     ["noise", "--arm-length", "1e101", "--rate", "1e308", "--duration", "1e308",
      "--out", "s.csv"]),
    # counts beyond any array, which numpy refuses with ValueError or IndexError
    ("sample rate 1.7976931348623157e+308 Hz times duration 1e-05 s exceeds the largest "
     "array, 1152921504606846975 samples",
     ["noise", "--arm-length", "40", "--rate", "1.7976931348623157e308", "--duration", "1e-5",
      "--out", "s.csv"]),
    ("--n-freq 1152921504606846976 exceeds the largest array, 1152921504606846975 values",
     ["interferometer", "--arm-length", "40", "--n-freq", "1152921504606846976",
      "--out", "f.csv"]),
    ("--grid-points 9223372036854775808 exceeds the largest array, 1152921504606846975 values",
     ["bounds", "--grid-points", "9223372036854775808", "--out", "c.csv"]),
    # lam L 2L/c overflows
    ("model PSD of arm length 1e+300 m is not finite on this frequency grid",
     ["interferometer", "--arm-length", "1e300", "--out", "x.csv"]),
    # the line stops before the computed band power, whose last digits may vary
    ("snr_proxy of band power ",
     ["interferometer", "--arm-length", "1e30", "--floor", "5e-324", "--band-lo", "0",
      "--band-hi", "1e16", "--integration-time", "1e-30"]),
    ("key.cfg: unknown key 'position'",
     ["interferometer", "--arm-length", "40", "--config-b", "key.cfg", "--n-freq", "3",
      "--out", "c.csv"]),
    ("colon.cfg: not a key = value line: 'position_m: 30, 0, 0'",
     ["interferometer", "--arm-length", "40", "--config-b", "colon.cfg", "--n-freq", "3",
      "--out", "c.csv"]),
    ("twice.cfg: repeated key 'position_m'",
     ["interferometer", "--config", "twice.cfg", "--n-freq", "3", "--out", "c.csv"]),
    ("hdr.csv: expected t_s,x_m rows",
     ["spectrum", "--input", "hdr.csv", "--arm-length", "40", "--out", "p.csv"]),
    ("empty.csv: expected t_s,x_m rows",
     ["spectrum", "--input", "empty.csv", "--arm-length", "40", "--out", "p.csv"]),
    ("sample rate must be positive and finite, got inf",
     ["spectrum", "--input", "tiny.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "tp.csv"]),
    ("sample rate must be positive and finite, got 0.0",
     ["spectrum", "--input", "wide.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("Welch PSD of this series is not finite in float64",
     ["spectrum", "--input", "huge.csv", "--arm-length", "40", "--segment-length", "16",
      "--out", "p.csv"]),
    ("nohdr.csv: first line is not t_s,x_m",
     ["spectrum", "--input", "nohdr.csv", "--arm-length", "40", "--segment-length", "32",
      "--out", "p.csv"]),
    ("units.csv: first line is not t_s,x_m",
     ["spectrum", "--input", "units.csv", "--arm-length", "40", "--segment-length", "32",
      "--out", "p.csv"]),
    # negative values that argparse alone would read as options
    ("sample rate must be positive and finite, got -100000.0",
     ["noise", "--arm-length", "40", "--rate", "-1e5", "--duration", "0.005", "--out", "s.csv"]),
    ("duration must be positive and finite, got -inf",
     ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "-inf", "--out", "s.csv"]),
    ("arm length must be positive and finite, got -inf",
     ["noise", "--arm-length", "-inf", "--rate", "2.5e7", "--duration", "0.005",
      "--out", "s.csv"]),
    ("frequency grid must be finite, non-negative and increasing",
     ["interferometer", "--arm-length", "40", "--f-min", "-1e5", "--out", "x.csv"]),
    (f"{os.devnull}: not a regular file; write the series to a file first",
     ["spectrum", "--input", os.devnull, "--arm-length", "40", "--out", "p.csv"]),
    # the bad row is named by its line in the file, header included
    ("abc.csv: not a t_s,x_m CSV: line 3: '4e-08,abc'",
     ["spectrum", "--input", "abc.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("ragged.csv: not a t_s,x_m CSV: line 3: '4e-08,2e-17,5'",
     ["spectrum", "--input", "ragged.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("blank.csv: not a t_s,x_m CSV: line 3: '4e-08,'",
     ["spectrum", "--input", "blank.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    # the Planck length is a Python float, so the message holds its repr
    ("arm length 1e-40 m is below the Planck length 1.61625502392855e-35 m",
     ["noise", "--arm-length", "1e-40", "--rate", "1e50", "--duration", "1", "--out", "s.csv"]),
    ("sample rate 1000.0 gives under 4 samples per coherence window 2.669e-07 s; "
     "need rate >= 1.499e+07 Hz",
     ["noise", "--arm-length", "40", "--rate", "1e3", "--duration", "1", "--out", "x.csv"]),
    ("arm length must be positive and finite, got -5.0",
     ["interferometer", "--arm-length", "-5"]),
    ("dense view of dim 5001 exceeds cap 4001",
     ["algebra", "--spin", "2500", "--dump-matrices", "p"]),
    ("under.csv: not a t_s,x_m CSV: line 3: '4e-08,2_0'",
     ["spectrum", "--input", "under.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("digit.csv: not a t_s,x_m CSV: line 3: '4e-08,\u0661'",
     ["spectrum", "--input", "digit.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
    ("late.csv: not a t_s,x_m CSV: line 6: '8e-08,abc'",
     ["spectrum", "--input", "late.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("expected, argv", REFUSALS,
                         ids=[f"argv{i}" for i in range(len(REFUSALS))])
def test_invalid_input_exit_1(expected, argv, tmp_path, monkeypatch, capsys, exit_contract):
    for name, text in BAD_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run_in(tmp_path, monkeypatch, argv) == 1
    out, err = capsys.readouterr()
    exit_contract(1, out, err, [p for p in tmp_path.iterdir() if p.name not in BAD_INPUTS])
    assert err.startswith("error: " + expected)


def test_every_command_has_reports_and_refusals():
    # a new command fails here until each table holds a row that runs it
    [commands] = [a.choices for a in cli._build_parser()._actions if a.dest == "command"]
    for table in (REPORTS, REFUSALS):
        assert set(commands) <= {getattr(row, "values", row)[1][0] for row in table}


def run_refusal_fresh(name, warn, python, tmp_path, exit_contract):
    # the REFUSALS row that reads `name`, under -W warn in a fresh interpreter, since
    # pytest captures warnings; the row's error line is then the whole of stderr
    [(expected, argv)] = [row for row in (getattr(r, "values", r) for r in REFUSALS)
                          if name in row[1]]
    (tmp_path / name).write_text(BAD_INPUTS[name])
    proc = python("-W", warn, "-m", "qgeom.cli", *argv, cwd=tmp_path)
    exit_contract(1, proc.stdout, proc.stderr, [p for p in tmp_path.iterdir() if p.name != name])
    assert proc.stderr == f"error: {expected}\n"


@pytest.mark.parametrize("warn", ["default", "error"])
@pytest.mark.parametrize("name", ["hdr.csv", "empty.csv"])
def test_series_csv_without_rows_one_error_line(name, warn, python, tmp_path, exit_contract):
    run_refusal_fresh(name, warn, python, tmp_path, exit_contract)


def test_series_csv_without_header_one_error_line(python, tmp_path, exit_contract):
    run_refusal_fresh("nohdr.csv", "error", python, tmp_path, exit_contract)


@pytest.mark.parametrize("name", ["tiny.csv", "wide.csv", "huge.csv"])
def test_spectrum_out_of_float_range_one_error_line(name, python, tmp_path, exit_contract):
    run_refusal_fresh(name, "error", python, tmp_path, exit_contract)


@pytest.mark.parametrize("name", ["abc.csv", "ragged.csv", "blank.csv", "under.csv",
                                  "digit.csv"])
def test_series_csv_malformed_row_names_the_file(name, tmp_path):
    # the reader names the file by the path it was given, here an absolute one
    path = tmp_path / name
    path.write_text(BAD_INPUTS[name], encoding="utf-8")
    with pytest.raises(QGeomError) as err:
        files.read_series(path)
    line = BAD_INPUTS[name].splitlines()[2]
    assert str(err.value) == f"{path}: not a t_s,x_m CSV: line 3: {line!r}"


def test_piped_series_refused(tmp_path, monkeypatch, capsys, exit_contract):
    # the reader opens its input twice, for the header and for the rows, and a
    # pipe's rows can be read only once: a pipe is refused, never read short
    noise_argv = ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.001",
                  "--out", "s.csv"]
    assert run_in(tmp_path, monkeypatch, noise_argv) == 0
    text = (tmp_path / "s.csv").read_bytes()
    assert len(text) > 10 * 65536  # past a pipe's buffer, so the writer stays open
    os.mkfifo(tmp_path / "pipe")
    inputs = set(tmp_path.iterdir())

    def write():
        try:
            with open(tmp_path / "pipe", "wb") as fh:
                fh.write(text)
        except BrokenPipeError:
            pass  # the reader refused the pipe and closed it

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    capsys.readouterr()
    rc = cli.run(["spectrum", "--input", "pipe", "--arm-length", "40", "--segment-length",
                  "1024", "--out", "pp.csv"])
    writer.join(timeout=60)
    out, err = capsys.readouterr()
    exit_contract(rc, out, err, set(tmp_path.iterdir()) - inputs)
    assert (rc, err) == (1, "error: pipe: not a regular file; write the series to a file first\n")
    assert not writer.is_alive()


def test_cross_spectrum_of_overflowing_psds_exit_0(tmp_path, monkeypatch, capsys):
    # S_a S_b of two co-located 1e150 m arms overflows, but its root is a float
    (tmp_path / "big.cfg").write_text(BAD_INPUTS["big.cfg"])
    assert run_in(tmp_path, monkeypatch, ["interferometer", "--config", "big.cfg",
                                          "--config-b", "big.cfg", "--out", "x.csv"]) == 0
    assert cli.run(["interferometer", "--config", "big.cfg", "--out", "auto.csv"]) == 0
    # co-located equal arms: the cross CSV is the auto CSV, byte for byte
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "auto.csv").read_bytes()
    assert np.isfinite(np.loadtxt(tmp_path / "x.csv", delimiter=",", skiprows=1)).all()


@pytest.mark.parametrize("value", ["-1e5", "-inf", "-.5e3", "-1"])
def test_negative_value_read_alike_in_both_spellings(value, tmp_path, monkeypatch, capsys,
                                                     exit_contract):
    argv = ["noise", "--arm-length", "40", "--duration", "0.005", "--out", "s.csv"]
    errors = []
    for rate in (["--rate", value], [f"--rate={value}"]):
        assert run_in(tmp_path, monkeypatch, argv + rate) == 1
        out, err = capsys.readouterr()
        exit_contract(1, out, err, tmp_path.iterdir())
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: sample rate must be positive and finite")
    # a token that is not a number stays an option
    assert cli.run(argv[:-1] + ["-s.csv", "--rate", "1e5"]) == 2
    exit_contract(2, *capsys.readouterr(), tmp_path.iterdir())


def test_unwritable_manifest_exit_1(tmp_path, monkeypatch, capsys):
    # the CSV is written before its manifest, so it stays: the one partial write
    (tmp_path / "d" / "x.csv.manifest.json").mkdir(parents=True)
    argv = ["bounds", "--grid-points", "20", "--out", "d/x.csv"]
    assert run_in(tmp_path, monkeypatch, argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: d/x.csv.manifest.json: cannot write")
    assert (tmp_path / "d" / "x.csv").stat().st_size > 0


def test_series_csv_with_time_offset(tmp_path, monkeypatch):
    # GPS-epoch times at 16 kHz: one ulp of t is 2.4e-7 s against a
    # 6.1e-5 s step, so the steps of a valid file scatter by ~4e-3
    n, rate = 4096, 16384.0
    t = 1.3e9 + np.arange(n) / rate
    x = np.random.default_rng(3).normal(0.0, 1e-17, n)
    path = tmp_path / "gps.csv"
    files.write_table(path, "t_s,x_m", n, lambda s, e: (t[s:e], x[s:e]))
    read = files.read_series(path)
    assert read.sample_rate == pytest.approx(rate, rel=1e-5)
    assert np.array_equal(read.samples, x)
    assert run_in(tmp_path, monkeypatch,
                  ["spectrum", "--input", "gps.csv", "--arm-length", "40",
                   "--segment-length", "256", "--out", "p.csv"]) == 0


def test_unguarded_script_writes_long_csv(python, tmp_path):
    # a script without an `if __name__ == "__main__":` guard must be able
    # to write a file of more than one chunk
    (tmp_path / "script.py").write_text(
        "import sys\nfrom qgeom import cli\n"
        "sys.exit(cli.run(['noise', '--arm-length', '40', '--rate', '2.5e7',\n"
        "                  '--duration', '0.003', '--out', 's.csv']))\n")
    proc = python("script.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "s.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == 75_000 > files.CSV_CHUNK_ROWS


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--mass", "1"], 0),
    (["bounds", "--size", "1"], 1),
    (["--hbar", "1", "bounds"], 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_python_m_exit_codes(argv, code, python, tmp_path, exit_contract):
    # main hands run's code to the process: report, domain error, usage error
    proc = python("-m", "qgeom.cli", *argv, cwd=tmp_path)
    assert proc.returncode == code
    exit_contract(code, proc.stdout, proc.stderr, tmp_path.iterdir())
    if code == 0:
        assert proc.stdout.startswith("planck_length_m ") and proc.stderr == ""


INTERFEROMETER_MODULES = ["numpy", "qgeom.algebra", "qgeom.interferometer", "qgeom.noise"]


@pytest.mark.parametrize("argv, code, loaded", [
    (["bounds", "--mass", "1"], 0, ["qgeom.bounds"]),
    (["algebra", "--spin", "3"], 0, ["numpy", "qgeom.algebra"]),
    (["--help"], 0, []),
    (["bounds", "--mass"], 2, []),
    (["bounds", "--mass", "-1"], 1, ["qgeom.bounds"]),
    (["interferometer", "--arm-length", "40", "--floor", "1e-41"], 0, INTERFEROMETER_MODULES),
    (NOISE_ARGV, 0, ["numpy", "qgeom.algebra", "qgeom.noise"]),
    (["spectrum", "--input", "s.csv", "--arm-length", "40", "--segment-length", "2",
      "--out", "p.csv"], 0, ["numpy", "qgeom.algebra", "qgeom.noise"]),
    (["interferometer", "--arm-length", "40", "--out", "m.csv"], 0, INTERFEROMETER_MODULES),
    (["interferometer", "--config", "a.cfg", "--config-b", "a.cfg", "--out", "x.csv"], 0,
     INTERFEROMETER_MODULES),
    (["algebra", "--spin", "1", "--dump-matrices", "m"], 0, ["numpy", "qgeom.algebra"]),
    (["bounds", "--grid-points", "3", "--out", "c.csv"], 0, ["numpy", "qgeom.bounds"]),
], ids=["argv0-qgeom.bounds", "argv1-qgeom.algebra", "help", "usage-error", "refusal",
        "band-power", "noise-out", "spectrum", "model-out", "cross-spectrum", "matrix-dump",
        "bounds-out"])
def test_each_command_imports_only_its_module(argv, code, loaded, python, tmp_path):
    # the import loads no command module and no numpy; a command loads only
    # its own module and the ones it calls, numpy only where it forms an
    # array, and nothing, not even the band-power quadrature, loads scipy
    (tmp_path / "a.cfg").write_text(A_CFG)
    (tmp_path / "s.csv").write_text(BAD_INPUTS["ok.csv"])
    script = ("import sys\n"
              "from qgeom import cli\n"
              "names = {'numpy', 'scipy', 'qgeom.algebra', 'qgeom.bounds',\n"
              "         'qgeom.interferometer', 'qgeom.noise'}\n"
              "before = sorted(names & set(sys.modules))\n"
              f"code = cli.run({argv!r})\n"
              "print(code, before, sorted(names & set(sys.modules)))\n")
    proc = python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} [] {loaded!r}"


def test_console_path_writes_the_library_bytes(python, tmp_path, monkeypatch, capsys):
    # 75,000 rows, so the fork pool runs before main ends the process
    argv = ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.003",
            "--out", "s.csv"]
    console, library = tmp_path / "console", tmp_path / "library"
    console.mkdir()
    library.mkdir()
    proc = python("-m", "qgeom.cli", *argv, cwd=console, text=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert run_in(library, monkeypatch, argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    for name in ("s.csv", "s.csv.manifest.json"):
        assert (console / name).read_bytes() == (library / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["--hbar", "1", "bounds"],
    ["--G", "1", "bounds"],
    ["--c", "1", "bounds"],
    ["--c", "1e-310", "bounds"],
    ["--c", "5e-324", "algebra", "--spin", "1", "--check"],
    ["--c", "8.9e295", "bounds"],
    ["--G", "1e300", "interferometer", "--arm-length", "1e300"],
    ["--hbar", "1e6", "bounds", "--mass", "5e-324"],
    # an option is spelled in full, never abbreviated
    ["bounds", "--c", "full", "--mass", "1"],
    ["interferometer", "--arm", "40"],
    ["noise", "--arm-length", "40", "--rate", "2.5e7", "--dur", "0.001", "--out", "s.csv"],
    ["--js", "bounds"],
    # exactly one apparatus: both, or none, is a usage error
    ["interferometer", "--config", "a.cfg", "--arm-length", "40"],
    ["interferometer", "--config-b", "b.cfg", "--out", "x.csv"],
    # no such command, and required options left out
    ["nonsense"],
    ["noise", "--arm-length", "40"],
])
def test_constant_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys, exit_contract):
    # the CLI runs on the CODATA constants alone, and takes no abbreviation
    assert run_in(tmp_path, monkeypatch, argv) == 2
    exit_contract(2, *capsys.readouterr(), tmp_path.iterdir())


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
def test_unwritable_stdout_exit_1(sink, unbuffered, python, tmp_path, exit_contract):
    # the report or help cannot be printed: one error line, and no second
    # complaint when Python flushes a buffered stdout at shutdown
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("needs /dev/full")
    for argv in (["--json", "bounds"], ["bounds", "--help"]):
        if sink == "/dev/full":
            stdout = os.open(sink, os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            proc = python("-m", "qgeom.cli", *argv, stdout=stdout, cwd=tmp_path,
                          env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(stdout)
        assert proc.returncode == 1, argv
        # stdout is the sink, so nothing of it is captured
        exit_contract(1, "", proc.stderr, tmp_path.iterdir())
        assert proc.stderr.startswith("error: cannot write the report")


def test_series_csv_with_crlf_lines(tmp_path):
    # a file written with CRLF line endings reads as the same series
    (tmp_path / "lf.csv").write_text(BAD_INPUTS["ok.csv"])
    (tmp_path / "crlf.csv").write_bytes(BAD_INPUTS["ok.csv"].replace("\n", "\r\n").encode())
    lf, crlf = (files.read_series(tmp_path / name) for name in ("lf.csv", "crlf.csv"))
    assert np.array_equal(lf.samples, crlf.samples) and lf.sample_rate == crlf.sample_rate


# an input path that cannot be read as UTF-8 text, made at the given path
UNREADABLE = {
    "missing": lambda path: None,
    "directory": Path.mkdir,
    "not-utf8": lambda path: path.write_bytes(b"t_s,x_m\n0.0,1e-17\n\xe9,2e-17\n"),
    # past the reader's first buffer, where np.loadtxt meets it
    "not-utf8-late": lambda path: path.write_bytes(
        b"t_s,x_m\n" + b"0.0,1e-17\n" * 2000 + b"\xe9,2e-17\n"),
}
# each option that names an input file, as the argv that reads it last
INPUT_OPTIONS = {
    "--input": ["spectrum", "--arm-length", "40", "--out", "p.csv", "--input"],
    "--config": ["interferometer", "--out", "p.csv", "--config"],
    "--config-b": ["interferometer", "--arm-length", "40", "--out", "p.csv", "--config-b"],
}


@pytest.mark.parametrize("kind", UNREADABLE)
@pytest.mark.parametrize("option", INPUT_OPTIONS)
def test_unreadable_input_one_error_line(option, kind, tmp_path, monkeypatch, capsys,
                                        exit_contract):
    UNREADABLE[kind](tmp_path / "in")
    inputs = set(tmp_path.iterdir())
    assert run_in(tmp_path, monkeypatch, INPUT_OPTIONS[option] + ["in"]) == 1
    out, err = capsys.readouterr()
    exit_contract(1, out, err, set(tmp_path.iterdir()) - inputs)
    assert err.startswith("error: in: cannot read: ")


def test_rerun_of_missing_manifest_is_domain_error(tmp_path):
    with pytest.raises(QGeomError, match=r"missing\.json: cannot read: "):
        cli.rerun_from_manifest(tmp_path / "missing.json")


@pytest.mark.parametrize("text", [
    '{"command": "noise", ',
    '{"parameters": {}}',
    '[1, 2]',
    '{"command": "bounds", "parameters": ["mass"]}',
    "[" * 100000,
], ids=["not-json", "no-command", "not-an-object", "parameters-a-list", "nested-too-deep"])
def test_rerun_of_malformed_manifest_is_domain_error(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(QGeomError, match=r"bad\.json: not a manifest"):
        cli.rerun_from_manifest(path)
    assert list(tmp_path.iterdir()) == [path]


def test_rerun_of_non_utf8_manifest_cannot_read(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"command": "\xff"}')
    with pytest.raises(QGeomError, match=r"bad\.json: cannot read: "):
        cli.rerun_from_manifest(path)


def reference_csv(header, rows):
    return header + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                   for row in rows)


# the default --f-min, --f-max and --n-freq, and the apparatus of a.cfg and b.cfg
GRID = np.linspace(0.0, 2.0e7, 2001)
A, B = (interferometer.InterferometerConfig(40.0, position=(x, 0.0, 0.0)) for x in (0.0, 30.0))


def series_rows(n, seed):
    x = noise.generate_timeseries(40.0, 2.5e7, n / 2.5e7, seed, SCALE).samples
    assert len(x) == n
    return zip(np.arange(n) / 2.5e7, x)


def spectrum_rows(path, segment_length):
    est = noise.power_spectrum(files.read_series(path), segment_length)
    return zip(est.frequencies, est.psd)


def bounds_rows(grid_min, grid_max):
    # one Python float at a time, so the CLI's array path is held to the scalar path
    masses = np.logspace(math.log10(grid_min), math.log10(grid_max), 1000).tolist()
    return ((m, bounds.compton_size(m, SCALE), bounds.schwarzschild_radius(m, SCALE))
            for m in masses)


def dump_rows(spin, k):
    mat = algebra.build_representation(spin, SCALE).components[k]
    row, col = np.indices(mat.shape, dtype=float).reshape(2, -1)
    return zip(row, col, mat.real.ravel(), mat.imag.ravel())


PSD = "f_hz,psd_m2_per_hz"
CURVES = "mass_kg,compton_m,schwarzschild_m"
# every CSV the CLI writes, as (setup argv or None, argv, {file: (header, reference rows)});
# each runs in a fresh directory holding a.cfg and b.cfg, and each file must be the
# reference_csv of rows that library calls give in that directory after the run
CSV_TABLE = [
    # a wrong bound on the last chunk shows at exactly two chunks or one row past
    *[(None, ["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", repr(n / 2.5e7),
              "--seed", "11", "--out", "s.csv"],
       {"s.csv": ("t_s,x_m", lambda n=n: series_rows(n, 11))})
      for n in (2 * files.CSV_CHUNK_ROWS, 2 * files.CSV_CHUNK_ROWS + 1)],
    # a series of four chunks, written and read back
    (["noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.01", "--seed", "3",
      "--out", "series.csv"],
     ["spectrum", "--input", "series.csv", "--arm-length", "40", "--segment-length", "4096",
      "--out", "spec.csv"],
     {"spec.csv": (PSD, lambda: spectrum_rows("series.csv", 4096))}),
    (None, ["interferometer", "--arm-length", "40", "--out", "m.csv"],
     {"m.csv": (PSD, lambda: zip(GRID, interferometer.predict_output_psd(A, GRID, SCALE)))}),
    (None, ["interferometer", "--config", "a.cfg", "--config-b", "b.cfg", "--out", "x.csv"],
     {"x.csv": (PSD, lambda: zip(GRID, interferometer.cross_spectrum(A, B, GRID, SCALE)))}),
    (None, ["bounds", "--out", "c.csv"], {"c.csv": (CURVES, lambda: bounds_rows(1e-30, 1e40))}),
    # both lines underflow to 0.0 at the ends, unwarned; a grid end that rounds up to inf
    # is a REFUSALS row
    (None, ["bounds", "--grid-min", "1e-320", "--grid-max", "1e308", "--out", "c.csv"],
     {"c.csv": (CURVES, lambda: bounds_rows(1e-320, 1e308))}),
    # 160,801 rows, three chunks, per matrix
    (None, ["algebra", "--spin", "200", "--dump-matrices", "m"],
     {f"m_{name}.csv": ("row,col,re,im", lambda k=k: dump_rows(200.0, k))
      for k, name in enumerate(("x1", "x2", "x3"))}),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("max_workers", [1, 2])
def test_write_csv_bytes_match_reference(max_workers, tmp_path, monkeypatch):
    monkeypatch.setattr(files, "CSV_MAX_WORKERS", max_workers)
    for i, (setup, argv, expected) in enumerate(CSV_TABLE):
        directory = tmp_path / f"argv{i}"
        directory.mkdir()
        (directory / "a.cfg").write_text(A_CFG)
        (directory / "b.cfg").write_text("label = b\narm_length_m = 40\nposition_m = 30,0,0\n")
        monkeypatch.chdir(directory)
        if setup is not None:
            assert cli.run(setup) == 0
        assert cli.run(argv) == 0, argv
        for name, (header, rows) in expected.items():
            # compared as lists of lines, which pytest diffs quickly when they differ
            text = reference_csv(header, rows())
            assert (directory / name).read_text().split("\n") == text.split("\n"), name
        assert (directory / f"{next(iter(expected))}.manifest.json").exists(), argv


def _write_long_csv(path):
    column = np.arange(files.CSV_CHUNK_ROWS + 10.0)
    files.write_table(path, "a,b", len(column), lambda s, e: (column[s:e], -column[s:e]))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks")
def test_write_csv_in_daemon_process(tmp_path):
    # a daemonic process may not start workers, so it formats inline
    path = tmp_path / "x.csv"
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pool.apply_async(_write_long_csv, (path,)).get(timeout=60)
    column = np.arange(files.CSV_CHUNK_ROWS + 10.0)
    assert path.read_text() == reference_csv("a,b", zip(column, -column))


def test_write_csv_inline_while_threads_run():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert files._csv_workers(5) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert files._csv_workers(1) == 1

"""The CLI's exit contract, stated once as a property over special values.

Every argv ends in exit 0, 1 or 2 without an exception escaping
`cli.run`. Exit 1 prints one `error:` line, no report and writes no file;
exit 0 prints only finite numbers and writes only finite CSV values. The
values are the floats where arithmetic breaks (signed zeros, subnormals,
the Planck length, 1e300, the float maximum, infinities, NaN), a few
ordinary ones that reach the deeper code, and negative and huge counts.

The examples are sized so that none allocates much or forks the CSV
pool: a count or a sample total either stays below `CSV_CHUNK_ROWS`, or is
beyond any address space and refused before anything is allocated.

Tier-1 runs the `exit-contract` profile. A longer run:
QGEOM_CONTRACT_PROFILE=exit-contract-long pytest tests/test_exit_contract.py
"""

import io
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeom import cli, noise
from qgeom.constants import codata_scale
from qgeom.files import CSV_CHUNK_ROWS

settings.register_profile("exit-contract", max_examples=600, derandomize=True,
                          database=None, deadline=None)
settings.register_profile("exit-contract-long", settings.get_profile("exit-contract"),
                          max_examples=20_000)
PROFILE = settings.get_profile(os.environ.get("QGEOM_CONTRACT_PROFILE", "exit-contract"))

SPECIAL = [0.0, -0.0, 5e-324, 1e-310, codata_scale().planck_length, 1e300,
           sys.float_info.max, math.inf, -math.inf, math.nan, -1.0]
COUNTS = [-(2 ** 63), -1, 0, 1, 2, 11, 10 ** 17, 2 ** 60, 2 ** 63, 10 ** 30]
# the largest count or sample total an example may allocate, and the
# smallest one it may ask for that no address space holds
SMALL, HUGE = CSV_CHUNK_ROWS, 1e14


def floats(*ordinary):
    # half the draws are ordinary values, so that runs reach the deeper code
    return st.sampled_from(SPECIAL) | st.sampled_from(ordinary)


def counts(*ordinary):
    return st.sampled_from(COUNTS) | st.sampled_from(ordinary)


RATE, DURATION = 2.5e7, 1e-5
# every sample total noise may be asked for is small or impossible
assert not [(r, d) for r in SPECIAL + [RATE] for d in SPECIAL + [DURATION]
            if SMALL <= r * d < HUGE]
assert not [n for n in COUNTS if SMALL <= n < HUGE]

SERIES = noise.generate_timeseries(40.0, 2.5e7, 4e-6, 1, codata_scale())
INPUTS = {
    "s.csv": "t_s,x_m\n" + "".join(f"{t!r},{x!r}\n" for t, x in
                                    zip((np.arange(len(SERIES.samples)) / 2.5e7).tolist(),
                                        SERIES.samples.tolist())),
    "a.cfg": "label = a\narm_length_m = 40\nposition_m = 0,0,0\n",
    "b.cfg": "label = b\narm_length_m = 40\nposition_m = 30,0,0\n",
    "big.cfg": "label = big\narm_length_m = 1e150\n",
}

APPARATUS = {"--config": st.sampled_from(["a.cfg", "big.cfg"]),
             "--arm-length": floats(40.0, 5.677e16)}
# interferometer takes exactly one apparatus: most draws give one, so that
# runs reach the command, and a few give both or neither, a usage error
APPARATUS_DRAWS = [("--config",), ("--arm-length",)] * 4 + [tuple(APPARATUS), ()]

COMMANDS = {
    "algebra": st.fixed_dictionaries(
        {"--spin": floats(0.5, 3.0, 1.25, 2500.0)},
        optional={"--check": st.just(True), "--dump-matrices": st.just("rep")}),
    "noise": st.fixed_dictionaries(
        {"--arm-length": floats(40.0), "--rate": floats(RATE),
         "--duration": floats(DURATION), "--out": st.just("n.csv")},
        optional={"--seed": st.sampled_from([-1, 0, 7, 2 ** 64, 2 ** 128])}),
    "spectrum": st.fixed_dictionaries(
        {"--input": st.sampled_from(["s.csv", "missing.csv"]),
         "--arm-length": floats(40.0), "--out": st.just("p.csv")},
        optional={"--segment-length": counts(16, 3),
                  "--overlap-fraction": floats(0.5, 0.99)}),
    "interferometer": st.sampled_from(APPARATUS_DRAWS).flatmap(
        lambda flags: st.fixed_dictionaries(
            {flag: APPARATUS[flag] for flag in flags},
            optional={"--config-b": st.sampled_from(["b.cfg", "big.cfg"]),
                      "--f-min": floats(1e6), "--f-max": floats(2e7),
                      "--n-freq": counts(11), "--out": st.just("i.csv"),
                      "--floor": floats(1e-41, 1.2e16),
                      "--band-lo": floats(1e6, 40.0),
                      "--band-hi": floats(5e6, 3.6e292),
                      "--integration-time": floats(3600.0, 1e236)})),
    "bounds": st.fixed_dictionaries(
        {},
        optional={"--mass": floats(1.0, 1.989e30), "--size": floats(1.0),
                  "--compton-convention": st.sampled_from(["reduced", "full"]),
                  "--grid-min": floats(1e-30), "--grid-max": floats(1e40),
                  "--grid-points": counts(11), "--out": st.just("b.csv")}),
}


def _argv(json_flag, command, options):
    argv = ["--json"] if json_flag else []
    argv.append(command)
    for flag, value in options.items():
        if value is True:
            argv.append(flag)
        else:
            # the = form passes a value such as -inf that argparse would
            # otherwise take for an option
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


ARGV = st.sampled_from(list(COMMANDS)).flatmap(
    lambda command: st.builds(_argv, st.booleans(), st.just(command), COMMANDS[command]))


def _numbers(text):
    """Every value of a report or CSV body that reads as a float."""
    for cell in text.replace("\n", ",").split(","):
        try:
            yield float(cell)
        except ValueError:
            pass


def _report_values(stdout, json_flag):
    if json_flag:
        return [str(v) for v in json.loads(stdout).values()]
    return [line.split(" ", 1)[1] for line in stdout.splitlines()]


def _run(argv):
    """(exit code, stdout, stderr, {new file: text}) of one run in an empty directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli.run(argv)
        finally:
            os.chdir(cwd)
        files = {}
        for name in sorted(set(os.listdir(tmp)) - set(INPUTS)):
            with open(os.path.join(tmp, name)) as fh:
                files[name] = fh.read()
    return code, out.getvalue(), err.getvalue(), files


@PROFILE
@given(ARGV)
def test_exit_contract(argv):
    code, out, err, files = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == "" and not files
        assert err.startswith("error: ") and err.count("\n") == 1
    elif code == 0:
        for value in _report_values(out, argv[0] == "--json"):
            assert all(map(math.isfinite, _numbers(value))), (value, out)
        for name, text in files.items():
            if name.endswith(".csv"):
                body = text.split("\n", 1)[1]
                assert all(map(math.isfinite, _numbers(body))), name

"""The four qgeom benchmark workloads.

A workload is a pass function, run repeatedly by run.py. Each pass
records every operation it attempts in a Tally, with the operation's
latency (the program's time only, not the check's) and its output check.
CLI workloads call `qgeom.cli:main` in a fresh interpreter per
invocation, or `cli.run(argv)` in-process on a traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import ProgramFailed, Tally

# `python -m qgeom.cli` would do nothing: cli.py has no __main__ guard.
LAUNCH = "import sys; from qgeom.cli import main; sys.argv[0] = 'qgeom'; main()"
CALL_TIMEOUT_S = 150


@dataclass
class Context:
    """What a pass needs: where to write, how to start the CLI, what to trace."""

    work: Path
    seed: int
    python: str
    env: dict
    in_process: bool
    rng: random.Random
    tracer: object = None
    scale: object = None

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(name, value)


@dataclass(frozen=True)
class Workload:
    name: str
    items: str                      # unit of items_per_s
    via_cli: bool
    setup_code: str                 # run in fresh interpreters in the work directory, before any pass
    run_pass: Callable[[Context, Tally], None]


def timed(fn):
    """(seconds, result); an exception raised by the program is the result."""
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - a program error is a failed operation
        value = exc
    return time.perf_counter() - start, value


def returned(value):
    if isinstance(value, Exception):
        raise ProgramFailed(f"{type(value).__name__}: {value}")
    return value


def _files(directory: Path) -> dict:
    return {p.name: (st.st_size, st.st_mtime_ns)
            for p in directory.iterdir() if p.is_file() for st in [p.stat()]}


def invoke(ctx: Context, argv: list[str]):
    """Run one `qgeom` command; returns (seconds, (exit code, stdout, stderr)).

    The command's output file and its manifest are removed first, so that
    its check never reads a file left by an earlier pass.
    """
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        for name in (out, f"{out}.manifest.json"):
            (ctx.work / name).unlink(missing_ok=True)
    if not ctx.in_process:
        start = time.perf_counter()
        try:
            proc = subprocess.run([ctx.python, "-c", LAUNCH, *argv], env=ctx.env,
                                  cwd=ctx.work, capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
            result = (proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            result = (-1, "", f"timed out after {CALL_TIMEOUT_S} s")
        return time.perf_counter() - start, result

    from qgeom import cli
    before = _files(ctx.work)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        elapsed, code = timed(lambda: cli.run(argv))
    if isinstance(code, Exception):
        err.write(f"{type(code).__name__}: {code}\n")
        code = 1
    after = _files(ctx.work)
    ctx.count("cli.bytes_written", sum(size for name, (size, _) in after.items()
                                       if before.get(name) != after[name]))
    inputs = [ctx.work / argv[i + 1] for i, flag in enumerate(argv[:-1])
              if flag in ("--input", "--config", "--config-b")]
    ctx.count("cli.bytes_read", sum(path.stat().st_size for path in inputs if path.is_file()))
    return elapsed, (code, out.getvalue(), err.getvalue())


# --- pipeline: noise -> series CSV -> spectrum -> PSD CSV -------------------

PIPE_ARM, PIPE_RATE, PIPE_SEGMENT = 40.0, 2.5e7, 4096
PIPE_SAMPLES = 2_500_000
PIPE_SEGMENTS = 1 + (PIPE_SAMPLES - PIPE_SEGMENT) // (PIPE_SEGMENT // 2)


def pipeline_pass(ctx: Context, tally: Tally) -> None:
    t_noise, noise_out = invoke(ctx, [
        "noise", "--arm-length", "40", "--rate", "2.5e7", "--duration", "0.1",
        "--seed", str(ctx.seed), "--out", "series.csv"])
    t_spec, spec_out = 0.0, None
    if tally.between is not None:
        tally.between()         # host calibration, as between any two operations
    if noise_out[0] == 0:
        t_spec, spec_out = invoke(ctx, [
            "spectrum", "--input", "series.csv", "--arm-length", "40",
            "--segment-length", str(PIPE_SEGMENT), "--out", "psd.csv"])

    def verify():
        checks.expect_exit(noise_out)
        checks.expect_exit(spec_out)
        checks.check_series(ctx.work / "series.csv", noise_out[1], PIPE_SAMPLES,
                            PIPE_RATE, PIPE_ARM)
        ctx.count("noise.psd_bands_off_model", checks.check_spectrum(
            ctx.work / "psd.csv", spec_out[1], PIPE_RATE, PIPE_ARM, PIPE_SEGMENT,
            PIPE_SEGMENTS))
    tally.record(t_noise + t_spec, PIPE_SAMPLES, verify)


# --- ensemble: acceptance criterion 7, in-process ---------------------------

ENS_ARM, ENS_DURATION, ENS_MEMBERS, ENS_SEGMENT = 40.0, 2e-3, 100, 4096
ENS_RATE = 16 * checks.C / ENS_ARM          # 32 samples per coherence window
ENS_SAMPLES = int(round(ENS_RATE * ENS_DURATION))
ENS_TAU = 2 * ENS_ARM / checks.C


def ensemble_pass(ctx: Context, tally: Tally) -> None:
    from qgeom import noise
    variances, acf_sum, psd_sum, freqs = [], 0.0, 0.0, None
    ok_members = 0
    for k in range(ENS_MEMBERS):
        def member():
            series = noise.generate_timeseries(
                ENS_ARM, ENS_RATE, ENS_DURATION, noise.derive_stream_seed(ctx.seed, k),
                ctx.scale)
            _, acf = noise.autocorrelation(series, max_lag=2 * ENS_TAU)
            return series, acf, noise.power_spectrum(series, segment_length=ENS_SEGMENT)
        elapsed, value = timed(member)

        def verify():
            series, acf, est = returned(value)
            checks.expect(len(series.samples) == ENS_SAMPLES,
                          f"member {k}: {len(series.samples)} samples")
            checks.expect(bool(math.isfinite(acf.sum()) and math.isfinite(est.psd.sum())),
                          f"member {k}: non-finite ACF or PSD")
        if tally.record(elapsed, 1, verify):
            series, acf, est = value
            variances.append(float(series.samples.var()))
            acf_sum = acf_sum + acf
            psd_sum = psd_sum + est.psd
            freqs = est.frequencies
            ok_members += 1
    if ok_members < 2:
        return
    try:
        ctx.count("noise.psd_bands_off_model", checks.check_ensemble(
            variances, acf_sum / ok_members, psd_sum / ok_members, freqs, ENS_RATE,
            ENS_ARM))
    except checks.CheckError as exc:
        tally.reject(ok_members, f"ensemble statistics: {exc}")


# --- algebra_sweep: acceptance criteria 2 and 4, in-process -----------------

SWEEP_TWICE_SPINS = range(1, 401)
CHAIN_SPINS = (1.0, 10.0, 100.0, 200.0, 400.0)
CHAIN_AXES = ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8))


def algebra_pass(ctx: Context, tally: Tally) -> None:
    from qgeom import algebra
    order = list(SWEEP_TWICE_SPINS)
    ctx.rng.shuffle(order)
    for twice in order:
        spin = twice / 2

        def residual():
            rep = algebra.build_representation(spin, ctx.scale)
            return rep.dim, algebra.commutator_residual(rep)
        elapsed, value = timed(residual)
        tally.record(elapsed, 1, lambda: checks.check_residual(spin, *returned(value)))

    for spin in CHAIN_SPINS:
        def chain():
            rep = algebra.build_representation(spin, ctx.scale)
            variances = []
            for axis in CHAIN_AXES:
                state = algebra.highest_weight_state(rep, axis)
                variances.append(algebra.transverse_variance_operator(rep, state, axis))
            return variances, algebra.radial_observable(rep)
        elapsed, value = timed(chain)

        def verify():
            variances, radial = returned(value)
            for variance in variances:
                checks.check_transverse(spin, variance, radial)
        tally.record(elapsed, 1, verify)


# --- cli_quick: short CLI calls, one fresh interpreter each -----------------

FIXTURES = {
    "a.cfg": "label = a\narm_length_m = 40\nposition_m = 0, 0, 0\n",
    "b.cfg": "label = b\narm_length_m = 40\nposition_m = 30, 0, 0\n",
}
CROSS_OVERLAP = 1.0 - 30.0 / (2.0 * 40.0)


def _check_interferometer(out, work):
    checks.check_model_psd(out, work / "model_psd.csv", 40.0, 2001)
    checks.check_verdict(out)


QUICK_CALLS = (
    (["bounds", "--mass", "1.989e30", "--size", "1.0"],
     lambda out, work: checks.check_bounds_point(out, 1.989e30, 1.0)),
    (["bounds", "--out", "curves.csv"],
     lambda out, work: checks.check_bounds_curves(out, work / "curves.csv", 1000)),
    (["interferometer", "--arm-length", "40", "--out", "model_psd.csv", "--floor", "1e-41"],
     _check_interferometer),
    (["interferometer", "--config", "a.cfg", "--config-b", "b.cfg", "--out", "cross.csv"],
     lambda out, work: checks.check_model_psd(out, work / "cross.csv", 40.0, 2001,
                                              CROSS_OVERLAP)),
    (["algebra", "--spin", "50", "--check"],
     lambda out, work: checks.check_algebra_report(out, 50.0)),
    # fails today: radial_observable's commutation assert trips at spin 500
    (["algebra", "--spin", "500", "--check"],
     lambda out, work: checks.check_algebra_report(out, 500.0)),
)


def quick_pass(ctx: Context, tally: Tally) -> None:
    calls = list(QUICK_CALLS)
    ctx.rng.shuffle(calls)
    for argv, check in calls:
        elapsed, result = invoke(ctx, argv)

        def verify():
            checks.expect_exit(result)
            check(result[1], ctx.work)
        tally.record(elapsed, 1, verify)


def _fixture_code() -> str:
    return "".join(f"open({name!r}, 'w').write({text!r})\n" for name, text in FIXTURES.items())


WORKLOADS = {w.name: w for w in (
    Workload("pipeline", "samples", True, "import qgeom.cli", pipeline_pass),
    Workload("ensemble", "members", False,
             "import qgeom.noise\nfrom qgeom.constants import codata_scale\ncodata_scale()",
             ensemble_pass),
    Workload("algebra_sweep", "representations", False,
             "import qgeom.algebra\nfrom qgeom.constants import codata_scale\ncodata_scale()",
             algebra_pass),
    Workload("cli_quick", "invocations", True, "import qgeom.cli\n" + _fixture_code(),
             quick_pass),
)}

"""Command-line front end.

Subcommands: algebra, noise, spectrum, interferometer, bounds. Every
command runs on the CODATA 2018 constants, the defaults of
`constants.derive_planck_scale`; only the library takes an injected
scale. Each command validates and computes, and returns its report and
the files it wants written; `run` alone writes those files, then one
JSON manifest next to the first, and only then prints the report. So a
run that ends in an error prints no report and writes no output or
manifest, unless a write itself fails partway (say, an unwritable second
dump path). The manifest records the command and its options;
re-running the argv `[command] + options` rebuilt from it reproduces
the outputs bitwise (for seeded runs) since all numerics are
deterministic.

Exit codes: 0 success, 1 domain error, 2 usage error. An output file
that cannot be opened, written or closed (a missing directory, a full
disk) and an array too large for memory also end with exit 1 and an
`error:` line, never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__, algebra, bounds, interferometer, noise
from .constants import derive_planck_scale
from .errors import MAX_ARRAY_LEN, InvalidInputError, QGeomError

CSV_CHUNK_ROWS = 1 << 16
# the most worker processes that format one CSV: the largest count
# measured, on a 2-CPU host (see CHANGES.md)
CSV_MAX_WORKERS = 2


def _fmt(x) -> str:
    # repr of a float is the shortest digit string that round-trips
    return repr(float(x))


def _format_rows(columns, start: int) -> str:
    # one C-level repr per value, so the bytes match repr(float(v))
    cells = (map(repr, c[start:start + CSV_CHUNK_ROWS].tolist()) for c in columns)
    return "\n".join(map(",".join, zip(*cells))) + "\n"


_worker_columns = None  # set only in a CSV worker, by its pool's initializer


def _init_csv_worker(columns) -> None:
    global _worker_columns
    _worker_columns = columns


def _format_worker_rows(start: int) -> str:
    return _format_rows(_worker_columns, start)


def _csv_workers(chunks: int) -> int:
    # fork only on Linux, only while no other Python thread runs (one could
    # hold a lock the child needs), and never from a daemonic process,
    # which may not have children; the children call no BLAS, so the BLAS
    # library's own threads do not matter
    if (chunks < 2 or not sys.platform.startswith("linux")
            or threading.active_count() > 1):
        return 1
    # imported here so that a one-chunk file, and start-up, skip it
    import multiprocessing
    if multiprocessing.current_process().daemon:
        return 1
    return min(len(os.sched_getaffinity(0)), CSV_MAX_WORKERS, chunks)


@contextlib.contextmanager
def _open_output(path):
    """Open path for writing; an OSError from open, write or close becomes
    an InvalidInputError naming the path."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns as CSV rows of repr(float) values.

    Rows are formatted CSV_CHUNK_ROWS at a time; a file of several chunks
    is formatted by forked worker processes and written in row order, so
    its bytes do not depend on the number of workers.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    starts = range(0, len(columns[0]), CSV_CHUNK_ROWS)
    workers = _csv_workers(len(starts))
    with _open_output(path) as fh:
        fh.write(header + "\n")
        if workers == 1:
            fh.writelines(_format_rows(columns, start) for start in starts)
            return
        import multiprocessing
        # forked workers inherit the columns instead of receiving them
        # pickled, and never re-run the caller's __main__
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, _init_csv_worker, (columns,)) as pool:
            fh.writelines(pool.imap(_format_worker_rows, starts))


def write_manifest(args: argparse.Namespace, output_paths: list[str]) -> str:
    """Serialize the run next to its first output; returns the manifest path."""
    skip = {"json", "func", "command"}
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in skip and v is not None}
    manifest = {
        "command": args.command,
        "parameters": params,
        "seed": params.get("seed"),
        "tool_version": __version__,
        "output_paths": output_paths,
    }
    path = str(output_paths[0]) + ".manifest.json"
    with _open_output(path) as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def manifest_argv(manifest: dict) -> list[str]:
    """Rebuild the argv of a recorded run (output paths included)."""
    argv = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, repr(value) if isinstance(value, float) else str(value)])
    return argv


def _need_count(flag: str, value: int) -> int:
    if value < 1:
        raise QGeomError(f"need {flag} >= 1, got {value}")
    if value > MAX_ARRAY_LEN:
        raise QGeomError(f"{flag} {value} exceeds the largest array, {MAX_ARRAY_LEN} values")
    return value


def _cmd_algebra(args, scale):
    rep = algebra.build_representation(args.spin, scale)
    report = {
        "spin": args.spin,
        "dim": rep.dim,
        "lambda_m": _fmt(scale.lam),
        "x3_min_m": _fmt(rep.lam * rep.m[-1]),
        "x3_max_m": _fmt(rep.lam * rep.m[0]),
        "radial_m": _fmt(algebra.radial_observable(rep)),
    }
    if args.check:
        report["commutator_residual"] = _fmt(algebra.commutator_residual(rep))
    if args.dump_matrices is None:
        return report, []
    if not args.dump_matrices:
        raise InvalidInputError("--dump-matrices: empty prefix")
    # one float index grid and views of the real and imaginary parts, so
    # the dumps hold no copies of their columns while they wait
    row, col = np.indices((rep.dim, rep.dim), dtype=float).reshape(2, -1)
    return report, [(f"{args.dump_matrices}_{name}.csv", "row,col,re,im",
                     (row, col, mat.real.reshape(-1), mat.imag.reshape(-1)))
                    for name, mat in zip(("x1", "x2", "x3"), rep.components)]


def _cmd_noise(args, scale):
    series = noise.generate_timeseries(args.arm_length, args.rate,
                                       args.duration, args.seed, scale)
    report = {
        "samples": len(series.samples),
        "rms_m": _fmt(float(np.sqrt(np.mean(series.samples ** 2)))),
        "coherence_time_s": _fmt(noise.coherence_time(args.arm_length, scale)),
        "out": args.out,
    }
    return report, [(args.out, "t_s,x_m", (series.times(), series.samples))]


def _read_series_csv(path):
    """(sample rate, samples) of a series CSV on a uniform time grid."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: not a t_s,x_m CSV: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise QGeomError(f"{path}: expected t_s,x_m rows")
    if not np.isfinite(data).all():
        raise InvalidInputError(f"{path}: non-finite time or sample")
    t, x = data[:, 0], data[:, 1]
    steps = np.diff(t)
    step = (t[-1] - t[0]) / (len(t) - 1)
    # a time value is rounded to a few ulps of its magnitude, which for a
    # large time offset exceeds 1e-6 of the step
    tol = max(1e-6 * step, 4.0 * np.spacing(np.abs(t).max()))
    if not steps.min() > 0.0 or max(step - steps.min(), steps.max() - step) > tol:
        raise InvalidInputError(f"{path}: times must increase in uniform steps")
    return 1.0 / step, x


def _cmd_spectrum(args, scale):
    # the estimate does not read the arm length, but it is checked all the same
    noise.coherence_time(args.arm_length, scale)
    rate, samples = _read_series_csv(args.input)
    series = noise.NoiseSeries(samples=samples, sample_rate=rate)
    est = noise.power_spectrum(series, args.segment_length, args.overlap_fraction)
    report = {
        "segments": est.segment_count,
        "df_hz": _fmt(est.frequencies[1] - est.frequencies[0]),
        "out": args.out,
    }
    return report, [(args.out, "f_hz,psd_m2_per_hz", (est.frequencies, est.psd))]


def _cmd_interferometer(args, scale):
    if args.config_b is not None and args.out is None:
        raise QGeomError("--config-b needs --out")
    if args.config is not None:
        cfg = interferometer.load_config(args.config)
    elif args.arm_length is not None:
        cfg = interferometer.InterferometerConfig(arm_length=args.arm_length)
    else:
        raise QGeomError("need --config or --arm-length")
    report = {
        "label": cfg.label,
        "arm_length_m": _fmt(cfg.arm_length),
        "rms_m": _fmt(interferometer.predict_rms(cfg, scale)),
        "knee_hz": _fmt(1.0 / noise.coherence_time(cfg.arm_length, scale)),
    }
    if args.floor is not None:
        det = interferometer.detectability(
            cfg, args.floor, (args.band_lo, args.band_hi),
            args.integration_time, scale)
        report.update({
            "snr_proxy": _fmt(det.snr_proxy),
            "verdict": det.verdict,
        })
    if args.out is None:
        return report, []
    # a non-finite end puts NaN in the grid, which the model refuses
    with np.errstate(invalid="ignore"):
        freqs = np.linspace(args.f_min, args.f_max, _need_count("--n-freq", args.n_freq))
    if args.config_b is not None:
        other = interferometer.load_config(args.config_b)
        psd = interferometer.cross_spectrum(cfg, other, freqs, scale)
    else:
        psd = interferometer.predict_output_psd(cfg, freqs, scale)
    return report, [(args.out, "f_hz,psd_m2_per_hz", (freqs, psd))]


def _cmd_bounds(args, scale):
    if args.size is not None and args.mass is None:
        raise QGeomError("--size needs --mass")
    reduced = args.compton_convention == "reduced"
    report = {
        "planck_length_m": _fmt(scale.planck_length),
        "planck_mass_kg": _fmt(scale.planck_mass),
        "intersection_m": _fmt(bounds.intersection_scale(scale, reduced=reduced)),
    }
    if args.mass is not None:
        report["mass_kg"] = _fmt(args.mass)
        report["compton_m"] = _fmt(bounds.compton_size(args.mass, scale, reduced=reduced))
        report["schwarzschild_m"] = _fmt(bounds.schwarzschild_radius(args.mass, scale))
        if args.size is not None:
            report["regime"] = bounds.classify(args.mass, args.size, scale,
                                               reduced=reduced)
    if args.out is None:
        return report, []
    if not 0.0 < args.grid_min < args.grid_max < math.inf:
        raise QGeomError("need 0 < --grid-min < --grid-max, both finite")
    # an end near the float maximum can round up to inf, which the lines refuse
    with np.errstate(over="ignore"):
        masses = np.logspace(math.log10(args.grid_min), math.log10(args.grid_max),
                             _need_count("--grid-points", args.grid_points))
    curves = (masses, bounds.compton_size(masses, scale, reduced=reduced),
              bounds.schwarzschild_radius(masses, scale))
    return report, [(args.out, "mass_kg,compton_m,schwarzschild_m", curves)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgeom",
        description="Macroscopic quantum-geometry toolkit (SI units throughout)")
    parser.add_argument("--json", action="store_true",
                        help="emit results as a JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="build a position-algebra representation")
    p.add_argument("--spin", type=float, required=True)
    p.add_argument("--check", action="store_true",
                   help="print the worst commutator residual")
    p.add_argument("--dump-matrices", metavar="PREFIX",
                   help="write x1/x2/x3 as PREFIX_x{1,2,3}.csv")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("noise", help="synthesize a jitter time series")
    p.add_argument("--arm-length", type=float, required=True, help="L in m")
    p.add_argument("--rate", type=float, required=True, help="sample rate Hz")
    p.add_argument("--duration", type=float, required=True, help="seconds")
    # argparse converts a string default only when --seed is absent, so a
    # bad QGEOM_SEED is a usage error of noise alone
    p.add_argument("--seed", type=int, default=os.environ.get("QGEOM_SEED", "0"))
    p.add_argument("--out", required=True, help="series CSV path")
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("spectrum", help="Welch PSD of a series CSV")
    p.add_argument("--input", required=True, help="series CSV (t_s,x_m)")
    p.add_argument("--arm-length", type=float, required=True)
    p.add_argument("--segment-length", type=int, default=4096)
    p.add_argument("--overlap-fraction", type=float, default=0.5)
    p.add_argument("--out", required=True, help="spectrum CSV path")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("interferometer", help="model spectra and detectability")
    p.add_argument("--config", help="apparatus key-value file")
    p.add_argument("--config-b", help="second apparatus, for a cross-spectrum")
    p.add_argument("--arm-length", type=float, help="inline apparatus, m")
    p.add_argument("--f-min", type=float, default=0.0)
    p.add_argument("--f-max", type=float, default=2.0e7)
    p.add_argument("--n-freq", type=int, default=2001)
    p.add_argument("--out", help="spectrum CSV path")
    p.add_argument("--floor", type=float, help="instrument floor m^2/Hz")
    p.add_argument("--band-lo", type=float, default=1.0e6)
    p.add_argument("--band-hi", type=float, default=5.0e6)
    p.add_argument("--integration-time", type=float, default=3600.0)
    p.set_defaults(func=_cmd_interferometer)

    p = sub.add_parser("bounds", help="size/mass boundary lines and regimes")
    p.add_argument("--mass", type=float, help="kg")
    p.add_argument("--size", type=float, help="m; classify (mass, size)")
    p.add_argument("--compton-convention", choices=("reduced", "full"),
                   default="reduced")
    p.add_argument("--grid-min", type=float, default=1.0e-30)
    p.add_argument("--grid-max", type=float, default=1.0e40)
    p.add_argument("--grid-points", type=int, default=1000)
    p.add_argument("--out", help="curve CSV path")
    p.set_defaults(func=_cmd_bounds)
    return parser


def run(argv: list[str]) -> int:
    """Run one command: compute, write its files and manifest, then report."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, files = args.func(args, derive_planck_scale())
        for path, header, columns in files:
            _write_csv(path, header, columns)
        if files:
            write_manifest(args, [path for path, _, _ in files])
    except (QGeomError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key} {value}")
    return 0


def rerun_from_manifest(path) -> int:
    """Re-execute a recorded run exactly as serialized."""
    manifest = json.loads(Path(path).read_text())
    return run(manifest_argv(manifest))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

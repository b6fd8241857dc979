"""Command-line front end.

Subcommands: algebra, noise, spectrum, interferometer, bounds. Every
command runs on the CODATA 2018 constants, the defaults of
`constants.derive_planck_scale`; only the library takes an injected
scale. Each command validates and computes, and returns its report (its
values, each float printed as its repr, in text and JSON alike) and
the files it wants written; `run` alone writes those files, then one
JSON manifest next to the first, and only then prints the report. So a
run that ends in an error prints no report and writes no output or
manifest, unless a write itself fails partway (say, an unwritable second
dump path). The manifest records the command and its options. The argv
rebuilt from it, one `--flag=value` token per option so that a value may
start with '-', reruns the outputs bitwise: the argv and the files it
names are a run's only inputs, and all numerics are deterministic. A
number that starts with '-', such as -1e5 or -inf, is read as the value
of the long option before it. `qgeom.files` owns the data files' formats.

Each command imports its own module only when it runs, so `import
qgeom.cli` loads none of algebra, bounds, interferometer and noise, and
a `bounds` call loads only bounds. `main`, the `qgeom` script and
`python -m qgeom.cli`, ends the process with `os._exit` once every file
is closed and the report is flushed, so no call pays for the
interpreter's teardown; a Python caller uses `run`, which returns the
exit code.

Exit codes: 0 success, 1 domain error, 2 usage error; an abbreviated
option is a usage error. A file that cannot be opened, read, decoded,
written or closed (a missing input or directory, a full disk), a report
or `--help` text that cannot be printed (a closed stdout pipe, a full
device; the files written before it stay) and an array too large for
memory also end with exit 1 and an `error:` line, never a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .constants import derive_planck_scale
from .errors import MAX_ARRAY_LEN, QGeomError, opened
from .files import read_series, write_table


def write_manifest(args: argparse.Namespace, output_paths: list[str]) -> None:
    """Serialize the run next to its first output."""
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
    with opened(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def manifest_argv(manifest: dict) -> list[str]:
    """Rebuild a recorded run's argv, one --flag=value token per option."""
    argv = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.append(f"{flag}={value}")
    return argv


def _need_count(flag: str, value: int) -> int:
    if value < 1:
        raise QGeomError(f"need {flag} >= 1, got {value}")
    if value > MAX_ARRAY_LEN:
        raise QGeomError(f"{flag} {value} exceeds the largest array, {MAX_ARRAY_LEN} values")
    return value


def _cmd_algebra(args, scale):
    from . import algebra
    rep = algebra.build_representation(args.spin, scale)
    # m is built on each access, 16 MB at spin 1e6
    m = rep.m
    report = {
        "spin": args.spin,
        "dim": rep.dim,
        "lambda_m": scale.lam,
        "x3_min_m": rep.lam * m[-1],
        "x3_max_m": rep.lam * m[0],
        "radial_m": algebra.radial_observable(rep),
    }
    if args.check:
        report["commutator_residual"] = algebra.commutator_residual(rep)
    if args.dump_matrices is None:
        return report, []
    if not args.dump_matrices:
        raise QGeomError("--dump-matrices: empty prefix")
    # the default binds each matrix; its .real and .imag are views, not copies
    return report, [(f"{args.dump_matrices}_{name}.csv", "row,col,re,im", rep.dim ** 2,
                     lambda s, e, flat=mat.reshape(-1): (
                         *np.divmod(np.arange(s, e, dtype=float), rep.dim),
                         flat.real[s:e], flat.imag[s:e]))
                    for name, mat in zip(("x1", "x2", "x3"), rep.components)]


def _cmd_noise(args, scale):
    from . import noise
    x = noise.generate_timeseries(args.arm_length, args.rate,
                                  args.duration, args.seed, scale).samples
    report = {
        "samples": len(x),
        "rms_m": np.sqrt(np.mean(x ** 2)),
        "coherence_time_s": noise.coherence_time(args.arm_length, scale),
        "out": args.out,
    }
    return report, [(args.out, "t_s,x_m", len(x),
                     lambda s, e: (np.arange(s, e) / args.rate, x[s:e]))]


def _cmd_spectrum(args, scale):
    from . import noise
    # the estimate does not read the arm length, but it is checked all the same
    noise.coherence_time(args.arm_length, scale)
    series = read_series(args.input)
    est = noise.power_spectrum(series, args.segment_length, args.overlap_fraction)
    report = {
        "segments": est.segment_count,
        "df_hz": est.frequencies[1] - est.frequencies[0],
        "out": args.out,
    }
    return report, [(args.out, "f_hz,psd_m2_per_hz", len(est.psd),
                     lambda s, e: (est.frequencies[s:e], est.psd[s:e]))]


def _cmd_interferometer(args, scale):
    from . import interferometer, noise
    if args.config_b is not None and args.out is None:
        raise QGeomError("--config-b needs --out")
    if args.config is not None:
        cfg = interferometer.load_config(args.config)
    else:
        cfg = interferometer.InterferometerConfig(arm_length=args.arm_length)
    report = {
        "label": cfg.label,
        "arm_length_m": cfg.arm_length,
        "rms_m": interferometer.predict_rms(cfg, scale),
        "knee_hz": 1.0 / noise.coherence_time(cfg.arm_length, scale),
    }
    if args.floor is not None:
        det = interferometer.detectability(
            cfg, args.floor, (args.band_lo, args.band_hi),
            args.integration_time, scale)
        report.update({
            "snr_proxy": det.snr_proxy,
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
    return report, [(args.out, "f_hz,psd_m2_per_hz", len(freqs),
                     lambda s, e: (freqs[s:e], psd[s:e]))]


def _cmd_bounds(args, scale):
    from . import bounds
    if args.size is not None and args.mass is None:
        raise QGeomError("--size needs --mass")
    reduced = args.compton_convention == "reduced"
    report = {
        "planck_length_m": scale.planck_length,
        "planck_mass_kg": scale.planck_mass,
        "intersection_m": bounds.intersection_scale(scale, reduced=reduced),
    }
    if args.mass is not None:
        report["mass_kg"] = args.mass
        report["compton_m"] = bounds.compton_size(args.mass, scale, reduced=reduced)
        report["schwarzschild_m"] = bounds.schwarzschild_radius(args.mass, scale)
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
    return report, [(args.out, "mass_kg,compton_m,schwarzschild_m", len(masses),
                     lambda s, e: [c[s:e] for c in curves])]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgeom", allow_abbrev=False,
        description="Macroscopic quantum-geometry toolkit (SI units throughout)")
    parser.add_argument("--json", action="store_true",
                        help="emit results as a JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", allow_abbrev=False,
                       help="build a position-algebra representation")
    p.add_argument("--spin", type=float, required=True)
    p.add_argument("--check", action="store_true",
                   help="print the worst commutator residual")
    p.add_argument("--dump-matrices", metavar="PREFIX",
                   help="write x1/x2/x3 as PREFIX_x{1,2,3}.csv")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("noise", allow_abbrev=False,
                       help="synthesize a jitter time series")
    p.add_argument("--arm-length", type=float, required=True, help="L in m")
    p.add_argument("--rate", type=float, required=True, help="sample rate Hz")
    p.add_argument("--duration", type=float, required=True, help="seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="series CSV path")
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("spectrum", allow_abbrev=False,
                       help="Welch PSD of a series CSV")
    p.add_argument("--input", required=True, help="series CSV (t_s,x_m)")
    p.add_argument("--arm-length", type=float, required=True)
    p.add_argument("--segment-length", type=int, default=4096)
    p.add_argument("--overlap-fraction", type=float, default=0.5)
    p.add_argument("--out", required=True, help="spectrum CSV path")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("interferometer", allow_abbrev=False,
                       help="model spectra and detectability")
    apparatus = p.add_mutually_exclusive_group(required=True)
    apparatus.add_argument("--config", help="apparatus key-value file")
    apparatus.add_argument("--arm-length", type=float, help="inline apparatus, m")
    p.add_argument("--config-b", help="second apparatus, for a cross-spectrum")
    p.add_argument("--f-min", type=float, default=0.0)
    p.add_argument("--f-max", type=float, default=2.0e7)
    p.add_argument("--n-freq", type=int, default=2001)
    p.add_argument("--out", help="spectrum CSV path")
    p.add_argument("--floor", type=float, help="instrument floor m^2/Hz")
    p.add_argument("--band-lo", type=float, default=1.0e6)
    p.add_argument("--band-hi", type=float, default=5.0e6)
    p.add_argument("--integration-time", type=float, default=3600.0)
    p.set_defaults(func=_cmd_interferometer)

    p = sub.add_parser("bounds", allow_abbrev=False,
                       help="size/mass boundary lines and regimes")
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


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each number that starts with '-' joined to the long option
    before it as --flag=value, since argparse reads -1e5 or -inf as an option."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if token.startswith("-") and flag.startswith("--") and "=" not in flag:
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{flag}={token}"
                continue
        joined.append(token)
    return joined


def run(argv: list[str]) -> int:
    """Run one command: compute, write its files and manifest, then report."""
    parser = _build_parser()
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        # --help exits 0, and its text is printed like a report
        return int(exc.code) if exc.code else _print_report(help_text.getvalue())
    try:
        report, files = args.func(args, derive_planck_scale())
        for file in files:
            write_table(*file)
        if files:
            write_manifest(args, [file[0] for file in files])
    except (QGeomError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    if args.json:
        return _print_report(json.dumps(report, indent=2) + "\n")
    return _print_report("".join(f"{key} {value}\n" for key, value in report.items()))


def _print_report(text: str) -> int:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full device; the files written before stay
        print(f"error: cannot write the report: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


def rerun_from_manifest(path) -> int:
    """Re-execute a recorded run exactly as serialized; any other file is a QGeomError."""
    with opened(path) as fh:
        text = fh.read()
    try:
        manifest = json.loads(text)
    except (ValueError, RecursionError):
        manifest = None
    match manifest:
        case {"command": str(), "parameters": dict()}:
            return run(manifest_argv(manifest))
    raise QGeomError(f"{path}: not a manifest: no string command and object parameters")


def main() -> None:
    code = run(sys.argv[1:])
    # every file is closed, the fork pool ended and the report flushed, or
    # its failure reported: end without the interpreter's teardown, which
    # is mostly numpy's, and without a second flush of an unwritable stdout
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()

"""Output checks for the qgeom benchmark, and the tally they feed.

The reference values here are computed from CODATA 2018 constants and the
paper's closed forms, independently of qgeom, so that a check never
trusts the code it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HBAR = 1.054571817e-34
G = 6.67430e-11
C = 299792458.0
PLANCK_LENGTH = math.sqrt(HBAR * G / C ** 3)
LAM = PLANCK_LENGTH / math.sqrt(4.0 * math.pi)

CLOSED_FORM_RTOL = 1e-12
ARRAY_RTOL = 1e-9
RESIDUAL_MAX = 1e-12          # acceptance criterion 2
BAND_TOLERANCE = 0.2          # acceptance criterion 7
SERIES_VARIANCE_TOLERANCE = 0.05


class CheckError(Exception):
    """The program finished but its output is wrong."""


class ProgramFailed(Exception):
    """The program exited non-zero or raised."""


@dataclass
class Tally:
    """Outcome of every operation a run attempted, and its latency."""

    latencies: list = field(default_factory=list)
    items: float = 0.0
    ok: int = 0
    failed: int = 0
    wrong: int = 0
    messages: list = field(default_factory=list)
    between: Callable[[], None] | None = None   # run after each operation, outside its timing

    @property
    def attempted(self) -> int:
        return self.ok + self.failed + self.wrong

    def record(self, elapsed: float, items: float, verify) -> bool:
        """Count one operation; verify() raises if it failed or was wrong."""
        self.latencies.append(elapsed)
        self.items += items
        ok = self._judge(verify)
        if self.between is not None:
            self.between()
        return ok

    def _judge(self, verify) -> bool:
        try:
            verify()
        except ProgramFailed as exc:
            self.failed += 1
            self._note(f"failed: {exc}")
            return False
        except CheckError as exc:
            self.wrong += 1
            self._note(f"wrong: {exc}")
            return False
        self.ok += 1
        return True

    def reject(self, count: int, reason: str) -> None:
        """Turn `count` operations already counted as ok into wrong ones."""
        moved = min(count, self.ok)
        self.ok -= moved
        self.wrong += moved
        self._note(f"wrong: {reason}")

    def _note(self, message: str) -> None:
        if message not in self.messages:
            self.messages.append(message)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def expect_close(name: str, got: float, want: float,
                 rtol: float = CLOSED_FORM_RTOL) -> None:
    expect(math.isfinite(got) and abs(got - want) <= rtol * abs(want),
           f"{name} = {got!r}, expected {want!r} (rtol {rtol})")


def expect_exit(result) -> None:
    """result is (returncode, stdout, stderr); a crash is a failure, not wrong output."""
    code, _, err = result
    if code != 0:
        tail = err.strip().splitlines()[-1] if err.strip() else ""
        raise ProgramFailed(f"exit {code}: {tail}")


def parse_report(stdout: str) -> dict:
    """The CLI's `key value` lines as a dict of strings."""
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if value:
            fields[key] = value.strip()
    return fields


def report_float(fields: dict, key: str) -> float:
    expect(key in fields, f"missing {key!r} in output")
    try:
        return float(fields[key])
    except ValueError:
        raise CheckError(f"{key} = {fields[key]!r} is not a number") from None


def read_csv(path, header: str, rows: int, columns: int) -> np.ndarray:
    """Load a CSV output, requiring its header and exact shape."""
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            expect(first == header, f"{path}: header {first!r}, expected {header!r}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from None
    expect(data.shape == (rows, columns),
           f"{path}: shape {data.shape}, expected {(rows, columns)}")
    expect(bool(np.all(np.isfinite(data))), f"{path}: non-finite values")
    return data


def model_psd(f, lam_l: float, window: float, rate: float | None = None):
    """One-sided PSD of a boxcar-averaged process with variance lam_l.

    2 lam_l w sinc^2(f w) for f > 0 (DC undoubled). With `rate`, the
    spectrum of the same process sampled at that rate: the sum of its
    images at f + k*rate.
    """
    f = np.asarray(f, dtype=float)
    if rate is None:
        two_sided = lam_l * window * np.sinc(f * window) ** 2
    else:
        shifts = rate * np.arange(-400, 401)
        two_sided = lam_l * window * (np.sinc((f[:, None] + shifts) * window) ** 2).sum(axis=1)
    return np.where(f > 0.0, 2.0 * two_sided, two_sided)


def band_ratios(freqs, psd, model, tau: float) -> np.ndarray:
    """Mean PSD over model mean in acceptance criterion 7's bands.

    The bands are [k, k+1) * 0.1/tau for k = 1..29; pointwise comparison
    is ill-conditioned at the sinc zeros inside them.
    """
    ratios = []
    for k in range(1, 30):
        sel = (freqs >= k * 0.1 / tau) & (freqs < (k + 1) * 0.1 / tau)
        ratios.append(psd[sel].mean() / model[sel].mean() if sel.any() else math.nan)
    return np.array(ratios)


def bands_off(ratios) -> int:
    """Bands whose mean is more than criterion 7's 20% from the model's."""
    return int(np.count_nonzero(~(np.abs(np.asarray(ratios) - 1.0) <= BAND_TOLERANCE)))


# --- pipeline ---------------------------------------------------------------

def check_series(path, stdout: str, samples: int, rate: float, arm_length: float) -> None:
    """Series CSV: the sample count, a uniform time grid and variance lam*L."""
    fields = parse_report(stdout)
    expect(fields.get("samples") == str(samples),
           f"noise reported samples {fields.get('samples')!r}, expected {samples}")
    data = read_csv(path, "t_s,x_m", samples, 2)
    expect_close("last time stamp", data[-1, 0], (samples - 1) / rate, ARRAY_RTOL)
    target = LAM * arm_length
    variance = float(np.var(data[:, 1]))
    expect(abs(variance - target) <= SERIES_VARIANCE_TOLERANCE * target,
           f"series variance {variance:.4e}, expected {target:.4e} within 5%")


def check_spectrum(path, stdout: str, rate: float, arm_length: float,
                   segment_length: int, segments: int) -> int:
    """Spectrum CSV: grid, Welch segment count and band-averaged level.

    The bands must match, within criterion 7's 20%, the sampled spectrum
    of the documented window 2L/c or that of the whole-sample window
    round(rate * 2L/c) the generator averages today, so that neither the
    current generator nor one fixed to the documented window fails.
    Returns how many bands are more than 20% off the documented window's
    spectrum.
    """
    fields = parse_report(stdout)
    expect(fields.get("segments") == str(segments),
           f"spectrum reported segments {fields.get('segments')!r}, expected {segments}")
    data = read_csv(path, "f_hz,psd_m2_per_hz", segment_length // 2 + 1, 2)
    freqs, psd = data[:, 0], data[:, 1]
    expect(bool(np.allclose(freqs, np.arange(len(freqs)) * rate / segment_length,
                            rtol=ARRAY_RTOL, atol=0.0)),
           f"{path}: frequency grid is not k * rate / {segment_length}")
    tau = 2.0 * arm_length / C
    realized = round(rate * tau) / rate
    lam_l = LAM * arm_length
    off = {window: bands_off(band_ratios(freqs, psd, model_psd(freqs, lam_l, window, rate), tau))
           for window in (tau, realized)}
    expect(min(off.values()) == 0,
           f"{off[tau]} of 29 band averages more than 20% off the 2L/c window's model, "
           f"{off[realized]} off the {round(rate * tau)}-sample window's")
    return off[tau]


# --- ensemble (acceptance criterion 7) --------------------------------------

def check_ensemble(variances, acf_mean, psd_mean, freqs, rate: float,
                   arm_length: float) -> int:
    """Criterion 7 on an ensemble's mean statistics, bounds unchanged.

    Returns the bands more than 20% off the sampled model, as check_spectrum.
    """
    target = LAM * arm_length
    tau = 2.0 * arm_length / C
    members = len(variances)
    mean_var = float(np.mean(variances))
    sem = float(np.std(variances, ddof=1)) / math.sqrt(members)
    expect(abs(mean_var - target) < 3 * sem,
           f"mean variance {mean_var:.4e} more than 3 SEM ({sem:.2e}) from lam*L")
    c0 = acf_mean[0]
    half = int(round(rate * arm_length / C))
    expect(abs(acf_mean[0] - target) < 0.05 * target, "ACF(0) more than 5% from lam*L")
    expect(abs(acf_mean[half] - 0.5 * target) < 0.05 * c0, "ACF(tau/2) not at half height")
    expect(abs(acf_mean[2 * half]) < 0.05 * c0, "ACF(tau) not at zero")
    off = bands_off(band_ratios(freqs, psd_mean, model_psd(freqs, target, tau), tau))
    expect(off == 0, f"{off} of 29 band averages more than 20% off analytic_psd")
    return bands_off(band_ratios(freqs, psd_mean, model_psd(freqs, target, tau, rate), tau))


# --- algebra (acceptance criteria 2 and 4) ----------------------------------

def check_residual(spin: float, dim: int, residual: float) -> None:
    expect(dim == int(round(2 * spin)) + 1, f"spin {spin}: dimension {dim}")
    expect(residual < RESIDUAL_MAX,
           f"spin {spin}: commutator residual {residual:.3e} not below {RESIDUAL_MAX}")


def check_transverse(spin: float, variance: float, radial: float) -> None:
    """Criterion 4: 1 - 1/(2j) <= <x_perp^2> / (lam <L>) <= 1 + 1e-12."""
    expect_close(f"spin {spin}: radial observable", radial,
                 LAM * math.sqrt(spin * (spin + 1.0)), 1e-9)
    ratio = variance / (LAM * radial)
    expect(1.0 - 1.0 / (2.0 * spin) <= ratio <= 1.0 + 1e-12,
           f"spin {spin}: transverse ratio {ratio!r} outside criterion 4's bounds")


# --- cli_quick --------------------------------------------------------------

def check_bounds_point(stdout: str, mass: float, size: float) -> None:
    fields = parse_report(stdout)
    expect_close("planck_length_m", report_float(fields, "planck_length_m"), PLANCK_LENGTH)
    expect_close("intersection_m", report_float(fields, "intersection_m"),
                 math.sqrt(2.0) * PLANCK_LENGTH)
    compton = HBAR / (mass * C)
    schwarzschild = 2.0 * G * mass / C ** 2
    expect_close("compton_m", report_float(fields, "compton_m"), compton)
    expect_close("schwarzschild_m", report_float(fields, "schwarzschild_m"), schwarzschild)
    if size < compton and compton >= schwarzschild:
        regime = "forbidden_quantum"
    elif size < schwarzschild and schwarzschild > compton:
        regime = "forbidden_blackhole"
    else:
        regime = "field_theory_side" if mass < math.sqrt(HBAR * C / G) else "classical_matter_side"
    expect(fields.get("regime") == regime, f"regime {fields.get('regime')!r}, expected {regime}")


def check_bounds_curves(stdout: str, path, points: int) -> None:
    fields = parse_report(stdout)
    expect_close("intersection_m", report_float(fields, "intersection_m"),
                 math.sqrt(2.0) * PLANCK_LENGTH)
    data = read_csv(path, "mass_kg,compton_m,schwarzschild_m", points, 3)
    mass = data[:, 0]
    expect(bool(np.all(np.diff(mass) > 0)), f"{path}: masses not increasing")
    expect(bool(np.allclose(data[:, 1], HBAR / (mass * C), rtol=ARRAY_RTOL, atol=0.0)),
           f"{path}: compton column is not hbar/(m c)")
    expect(bool(np.allclose(data[:, 2], 2.0 * G * mass / C ** 2, rtol=ARRAY_RTOL, atol=0.0)),
           f"{path}: schwarzschild column is not 2 G m / c^2")


def check_model_psd(stdout: str, path, arm_length: float, points: int,
                    overlap: float = 1.0) -> None:
    """Model or cross PSD CSV: rms = sqrt(lam L) and overlap * 2 lam L tau sinc^2."""
    fields = parse_report(stdout)
    expect_close("rms_m", report_float(fields, "rms_m"), math.sqrt(LAM * arm_length))
    expect_close("knee_hz", report_float(fields, "knee_hz"), C / (2.0 * arm_length))
    data = read_csv(path, "f_hz,psd_m2_per_hz", points, 2)
    want = overlap * model_psd(data[:, 0], LAM * arm_length, 2.0 * arm_length / C)
    expect(bool(np.allclose(data[:, 1], want, rtol=ARRAY_RTOL, atol=1e-12 * want.max())),
           f"{path}: PSD differs from {overlap} * 2 lam L tau sinc^2(f tau)")


def check_verdict(stdout: str) -> None:
    verdict = parse_report(stdout).get("verdict")
    expect(verdict in ("detect", "marginal", "exclude"), f"verdict {verdict!r}")


def check_algebra_report(stdout: str, spin: float) -> None:
    fields = parse_report(stdout)
    expect(fields.get("dim") == str(int(round(2 * spin)) + 1), f"dim {fields.get('dim')!r}")
    expect_close("x3_max_m", report_float(fields, "x3_max_m"), spin * LAM, ARRAY_RTOL)
    expect_close("x3_min_m", report_float(fields, "x3_min_m"), -spin * LAM, ARRAY_RTOL)
    expect_close("radial_m", report_float(fields, "radial_m"),
                 LAM * math.sqrt(spin * (spin + 1.0)), ARRAY_RTOL)
    residual = report_float(fields, "commutator_residual")
    expect(residual < RESIDUAL_MAX, f"commutator residual {residual!r}")

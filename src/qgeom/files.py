"""The file formats: the CSV writer `write_table` and the series reader `read_series`."""

import os
import stat
import sys
import threading
import warnings

import numpy as np

from .errors import QGeomError, opened

CSV_CHUNK_ROWS = 1 << 16
# the most worker processes that format one CSV: the largest count
# measured, on a 2-CPU host (see CHANGES.md)
CSV_MAX_WORKERS = 2


def _format_rows(columns) -> str:
    # one C-level repr per value, so the bytes match repr(float(v))
    cells = (map(repr, c.tolist()) for c in columns)
    return "\n".join(map(",".join, zip(*cells))) + "\n"


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


def write_table(path, header: str, rows: int, chunk) -> None:
    """Write `rows` CSV rows of repr(float) values under header.

    Each command supplies its rows a chunk at a time, so no column is built
    whole only to be written: chunk(s, e) returns the float columns of rows
    s to e - 1. It is called in this process, CSV_CHUNK_ROWS rows at a time.
    A file of several chunks is formatted by forked workers, each sent only
    its chunk's arrays, and written in row order, so its bytes do not depend
    on the number of workers.
    """
    starts = range(0, rows, CSV_CHUNK_ROWS)
    chunks = (chunk(s, min(s + CSV_CHUNK_ROWS, rows)) for s in starts)
    workers = _csv_workers(len(starts))
    with opened(path, "w") as fh:
        fh.write(header + "\n")
        if workers == 1:
            fh.writelines(map(_format_rows, chunks))
            return
        import multiprocessing
        # forked workers never re-run the caller's __main__
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            fh.writelines(pool.imap(_format_rows, chunks))


def read_series(path):
    """The series of a CSV whose first line is t_s,x_m, on a uniform time grid."""
    from . import noise
    with opened(path) as fh, warnings.catch_warnings():
        # np.loadtxt opens the path again: a pipe's first buffer would be lost
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise QGeomError(f"{path}: not a regular file; write the series to a file first")
        header = fh.readline()
        if header and header.rstrip("\n") != "t_s,x_m":
            raise QGeomError(f"{path}: first line is not t_s,x_m")
        # an empty file, or one of no rows, is refused below in one error line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1)
        except UnicodeDecodeError:
            raise  # text that is not UTF-8, which `opened` reports
        except ValueError as exc:
            raise QGeomError(f"{path}: not a t_s,x_m CSV: {_bad_row(fh) or exc}") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise QGeomError(f"{path}: expected t_s,x_m rows")
    if not np.isfinite(data).all():
        raise QGeomError(f"{path}: non-finite time or sample")
    t, x = data[:, 0], data[:, 1]
    # a span of times that overflows gives the rate 0, and a subnormal step
    # the rate inf: the series refuses both, so they pass here unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(t)
        step = (t[-1] - t[0]) / (len(t) - 1)
        # a time value is rounded to a few ulps of its magnitude, which for a
        # large time offset exceeds 1e-6 of the step
        tol = max(1e-6 * step, 4.0 * np.spacing(np.abs(t).max()))
        if not steps.min() > 0.0 or max(step - steps.min(), steps.max() - step) > tol:
            raise QGeomError(f"{path}: times must increase in uniform steps")
        rate = float(1.0 / step)
    return noise.NoiseSeries(samples=x, sample_rate=rate)


def _bad_row(fh) -> str | None:
    """The first line of fh after its header that is not two numbers, as
    `line N: 'text'`, or None; like np.loadtxt, it skips an empty line and
    drops a '#' comment."""
    fh.seek(0)
    fh.readline()
    for number, line in enumerate(fh, 2):
        text = line.rstrip("\n")
        row = text.split("#", 1)[0]
        if not row:
            continue
        try:
            t, x = map(float, row.split(","))
        except ValueError:
            return f"line {number}: {text!r}"
    return None

"""Benchmark of the qgeom toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qgeom is imported from its `src/`.
With --trace 0 the run times whole operations and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
prints the per-layer metrics. The last line of stdout is the result as
JSON. `--workload all` runs every workload both ways, one process each.
See perfbench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pipeline", "ensemble", "algebra_sweep", "cli_quick")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3       # set-up is timed at least this often,
SETUP_SECONDS = 2.0     # and until this much set-up time is timed
RUN_SECONDS = 12        # BENCHMARK.json's run_seconds, which the bounds were set on
MIN_PASSES = 2          # one slow pass of `pipeline` can outlast the whole run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {"items_per_s": "items/s", "op_p50_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio", "setup_s": "s"}


def wall(cmd, env, cwd) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=cwd, check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    import numpy as np
    for pct in TAIL_PERCENTILES:
        if len(latencies) * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(latencies, pct))
    return None


def provenance(args, nproc: int) -> dict:
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "qgeom").glob("*.py")):
        sources.update(path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{read(index / 'level')} {read(index / 'type')}"] = read(index / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": sources.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "nproc": nproc, "cpu_model": cpu,
        "caches": caches, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": nproc,
    }


def measure(workload, ctx, tally, seconds: float, host) -> tuple[dict, dict]:
    """End-to-end metrics: whole passes, closed loop, until `seconds` are spent.

    Returns the metrics and the raw wall-clock values of the time metrics.
    The time metrics are divided by the run's host speed (hostspeed.py),
    sampled between operations throughout the run. items_per_s is the
    median over passes of a pass's items per second of operation latency,
    so that one pass slowed by the host moves it less. A run makes at
    least MIN_PASSES timed passes; an in-process workload first makes an
    untimed one.
    """
    tally.between = host.catch_up
    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        setup.append(wall([ctx.python, "-c", workload.setup_code], ctx.env, ctx.work))
        host.catch_up()
    if not workload.via_cli:
        # untimed warm-up: a process's first pass runs up to half again as
        # long, while the allocator and caches settle
        from checks import Tally
        workload.run_pass(ctx, Tally(between=host.catch_up))
    pass_rates = []
    deadline = time.perf_counter() + seconds
    while True:
        items, ops = tally.items, len(tally.latencies)
        workload.run_pass(ctx, tally)
        pass_rates.append((tally.items - items) / sum(tally.latencies[ops:]))
        if len(pass_rates) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    host.catch_up()
    speed = host.speed()
    who = resource.RUSAGE_CHILDREN if workload.via_cli else resource.RUSAGE_SELF
    raw = {
        "items_per_s": statistics.median(pass_rates),
        "op_p50_s": statistics.median(tally.latencies),
        "setup_s": statistics.median(setup),
    }
    return {
        "items_per_s": raw["items_per_s"] * speed,
        "op_p50_s": raw["op_p50_s"] / speed,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": tally.ok / tally.attempted,
        "setup_s": raw["setup_s"] / speed,
    }, raw


def layer_units() -> dict:
    """Every per-layer metric, by name, with its unit."""
    from tracer import COUNT_UNITS, SPAN_NAMES
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_UNITS)
    units.update({"import.python_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
                  "import.qgeom_s": "s", "import.modules": "count",
                  "import.scipy_modules": "count", "trace.overhead_s": "s"})
    return units


def trace(workload, ctx, tally, seconds: float, spans_path) -> dict:
    """Per-layer metrics: alternate untraced and traced in-process passes.

    Pass 0 is untraced and warms the process up (the first pass runs up to
    half again as long, while the allocator and caches settle); the
    overhead compares the traced passes with the untraced ones after it,
    so the run ends on an untraced pass.
    """
    from tracer import Tracer, import_breakdown
    python_s = statistics.median(wall([ctx.python, "-c", "pass"], ctx.env, ctx.work)
                                 for _ in range(SETUP_REPEATS))
    imports = import_breakdown(ctx.python, ctx.env, workload.setup_code, ctx.work)
    tracer = Tracer()
    program_s = {False: [], True: []}
    traced_passes = []
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        traced = index % 2 == 1
        before = len(tally.latencies)
        if traced:
            tracer.pass_id = index
            traced_passes.append(index)
            tracer.install()
            ctx.tracer = tracer
        try:
            workload.run_pass(ctx, tally)
        finally:
            if traced:
                ctx.tracer = None
                tracer.uninstall()
        if index > 0:
            program_s[traced].append(sum(tally.latencies[before:]))
        if index >= 2 and not traced and time.perf_counter() >= deadline:
            break
    tracer.write(spans_path)
    layers = dict(tracer.per_pass(traced_passes), **imports)
    layers["import.python_s"] = python_s
    layers["trace.overhead_s"] = (statistics.median(program_s[True])
                                  - statistics.median(program_s[False]))
    return layers


def run_one(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import hostspeed
    import workloads
    from qgeom import constants

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = workloads.Tally()
    host, raw = None, {}
    try:
        os.chdir(work)
        ctx = workloads.Context(work=work, seed=args.seed, python=sys.executable, env=env,
                                in_process=args.trace == 1 or not workload.via_cli,
                                rng=random.Random(args.seed), scale=constants.codata_scale())
        if args.trace:
            values = trace(workload, ctx, tally, args.seconds, OUT / f"{stem}-spans.json")
            units = layer_units()
        else:
            host = hostspeed.HostSpeed()
            values, raw = measure(workload, ctx, tally, args.seconds, host)
            units = END_TO_END_UNITS
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(args, nproc)
    print("provenance " + json.dumps(prov))
    for message in tally.messages:
        print(f"note {message}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        unit = f"{workload.items}/s" if name == "items_per_s" else metric["unit"]
        wall_clock = f" (wall clock {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"{args.workload} {name} {metric['value']:.6g} {unit}{wall_clock}")
    if not args.trace:
        speed = host.speed()
        print(f"{args.workload} host_speed {speed:.4g} (calibration median "
              f"{speed * hostspeed.REFERENCE_S:.4g} s over {len(host.samples)} samples in the run, "
              f"reference {hostspeed.REFERENCE_S} s)")
        found = tail([t / speed for t in tally.latencies])
        print(f"{args.workload} op_tail_s " + (
            f"p{found[0]:g} {found[1]:.6g} s" if found else
            "omitted (no percentile has 10 samples beyond it)")
              + f" n={len(tally.latencies)}")
        print(f"{args.workload} failed_frac {1.0 - tally.ok / tally.attempted:.6g} ratio"
              f" ({tally.failed + tally.wrong} of {tally.attempted})")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed + tally.wrong,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "notes": tally.messages,
         "wall_clock": raw,
         "calibration_s": host.samples if host else []},
        indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        for traced in (0, 1):
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(traced)]).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qgeom" / "__init__.py").is_file():
        print(f"perfbench: no qgeom sources at {SRC / 'qgeom'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around qgeom's public functions, and the import breakdown.

Spans are recorded from the benchmark's side: each traced function is
replaced, in every qgeom module that binds it, by a wrapper that opens a
span, calls the original and closes the span. A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict

TRACED = {
    "constants": ("derive_planck_scale", "codata_scale"),
    "noise": ("derive_stream_seed", "generate_timeseries", "autocorrelation",
              "power_spectrum", "analytic_psd"),
    "algebra": ("build_representation", "commutator_residual", "radial_observable",
                "highest_weight_state", "transverse_variance_operator"),
    "interferometer": ("load_config", "predict_output_psd", "cross_spectrum",
                       "detectability"),
    "bounds": ("compton_size", "schwarzschild_radius", "intersection_scale", "classify"),
    "cli": ("run", "write_manifest"),
}

SPAN_NAMES = [f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs]


def _count_rep(tracer, rep):
    tracer.add("algebra.dense_bytes", sum(x.nbytes for x in rep.components))
    tracer.maximum("algebra.max_dim", rep.dim)


# Work counts taken from a traced function's result, where the work happens.
RESULT_COUNTS = {
    "noise.generate_timeseries": lambda t, r: t.add("noise.samples", len(r.samples)),
    "noise.power_spectrum": lambda t, r: t.add("noise.welch_segments", r.segment_count),
    "noise.autocorrelation": lambda t, r: t.add("noise.acf_lags", len(r[0])),
    "algebra.build_representation": _count_rep,
}

COUNT_UNITS = {
    "cli.bytes_written": "bytes", "cli.bytes_read": "bytes", "noise.samples": "count",
    "noise.welch_segments": "count", "noise.acf_lags": "count",
    "algebra.dense_bytes": "bytes", "algebra.max_dim": "count",
    "noise.psd_bands_off_model": "count",
}


class Tracer:
    """Records spans and counts per pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = 0
        self._stack: list[dict] = []
        self._patches: list[tuple] = []
        self._ids = itertools.count()

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qgeom.{name}") for name in TRACED}
        binders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qgeom" or name.startswith("qgeom."))]
        for module, funcs in TRACED.items():
            for func in funcs:
                original = getattr(modules[module], func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for binder in binders:
                    for attr, value in list(vars(binder).items()):
                        if value is original:
                            self._patches.append((binder, attr, original))
                            setattr(binder, attr, wrapper)

    def uninstall(self) -> None:
        for binder, attr, original in reversed(self._patches):
            setattr(binder, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(self, result)
            return result
        return traced

    def _open(self, name: str) -> None:
        parent = self._stack[-1]["id"] if self._stack else None
        self._stack.append({"id": next(self._ids), "parent": parent,
                            "pass": self.pass_id, "name": name,
                            "start": time.perf_counter(), "children": 0.0})

    def _close(self) -> None:
        span = self._stack.pop()
        span["end"] = time.perf_counter()
        duration = span["end"] - span["start"]
        span["self"] = duration - span.pop("children")
        if self._stack:
            self._stack[-1]["children"] += duration
        self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    def maximum(self, name: str, value: float) -> None:
        counts = self.counts[self.pass_id]
        counts[name] = max(counts[name], value)

    def per_pass(self, passes) -> dict:
        """Calls and self time per traced function, and counts: medians over passes."""
        calls = {p: defaultdict(int) for p in passes}
        self_s = {p: defaultdict(float) for p in passes}
        for span in self.spans:
            if span["pass"] in calls:
                calls[span["pass"]][span["name"]] += 1
                self_s[span["pass"]][span["name"]] += span["self"]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = statistics.median(calls[p][name] for p in passes)
            out[f"{name}.self_s"] = statistics.median(self_s[p][name] for p in passes)
        for name in COUNT_UNITS:
            out[name] = statistics.median(self.counts[p][name] for p in passes)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def import_breakdown(python: str, env: dict, setup_code: str, cwd) -> dict:
    """Cumulative import times of a fresh interpreter running setup_code.

    Parses `-X importtime`. A package's time is the sum of the cumulative
    times of its outermost entries, so `qgeom` includes numpy and scipy.
    """
    probe = setup_code + (
        "\nimport sys\nprint(len(sys.modules), "
        "sum(1 for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([python, "-X", "importtime", "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120, check=True)
    modules, scipy_modules = (int(v) for v in proc.stdout.split()[-2:])
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = defaultdict(float)
    ancestors: list[str] = []
    # -X importtime prints children before their parent; reversed, parents come first
    for depth, cumulative, name in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top not in {a.split(".")[0] for a in ancestors}:
            totals[top] += cumulative * 1e-6
        ancestors.append(name)
    return {"import.numpy_s": totals["numpy"], "import.scipy_s": totals["scipy"],
            "import.qgeom_s": totals["qgeom"], "import.modules": modules,
            "import.scipy_modules": scipy_modules}

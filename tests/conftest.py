import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgeom
from qgeom.constants import codata_scale


def _largest_magnitude(expected):
    if isinstance(expected, dict):
        expected = list(expected.values())
    if hasattr(expected, "ndim"):  # a numpy array or scalar
        return float(abs(expected).max()) if expected.size else 0.0
    if isinstance(expected, (list, tuple)):
        return max(map(_largest_magnitude, expected), default=0.0)
    try:
        return abs(complex(expected))
    except (TypeError, ValueError):
        return 0.0


def pytest_configure(config):
    # approx keeps an absolute tolerance of 1e-12 unless given `abs`, so below
    # that any value passes: such a comparison must name its own `abs`
    approx = pytest.approx

    def strict_approx(expected, rel=None, abs=None, nan_ok=False):
        if abs is None and 0.0 < _largest_magnitude(expected) < 1e-12:
            raise ValueError(f"pytest.approx({expected!r}) without abs passes any value "
                             "below 1e-12; give abs=0.0 or a bound")
        return approx(expected, rel=rel, abs=abs, nan_ok=nan_ok)

    pytest.approx = strict_approx


@pytest.fixture(scope="session")
def scale():
    return codata_scale()


@pytest.fixture(scope="session")
def python():
    """Run `[sys.executable, *args]` on the qgeom these tests imported.

    The directory holding that qgeom goes first on the child's PYTHONPATH,
    so a run without `PYTHONPATH=src` tests the installed package. `env`
    overrides the inherited environment, where None removes a variable;
    other keywords go to `subprocess.run`, which captures text by default.
    """
    src = str(Path(qgeom.__file__).resolve().parents[1])

    def run(*args, env=None, **kwargs):
        base = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), **(env or {})}
        kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True,
                  "timeout": 120, **kwargs}
        return subprocess.run([sys.executable, *args],
                              env={k: v for k, v in base.items() if v is not None}, **kwargs)

    return run


def _numbers(text):
    """Every value of a report or CSV body that reads as a float."""
    for cell in text.replace("\n", ",").split(","):
        try:
            yield float(cell)
        except ValueError:
            pass


def _report_values(stdout):
    # a JSON report is one object; a text report is `key value` lines
    if stdout.startswith("{"):
        return [str(v) for v in json.loads(stdout).values()]
    return [line.split(" ", 1)[1] for line in stdout.splitlines()]


@pytest.fixture(scope="session")
def exit_contract():
    """Check one CLI run, given its exit code, stdout, stderr and the paths of
    the files it made, against the exit contract:

    0: the report and every CSV body hold only finite numbers;
    1: no report, exactly one `error:` line, and no file;
    2: no report, one `usage:` line and one `error:` line, and no file;
    and no traceback on any code.
    """
    def check(code, out, err, made):
        made = list(made)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            for value in _report_values(out):
                assert all(map(math.isfinite, _numbers(value))), (value, out)
            for path in made:
                if path.name.endswith(".csv"):
                    body = path.read_text().split("\n", 1)[1]
                    assert all(map(math.isfinite, _numbers(body))), path.name
            return
        assert out == "" and not made
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err.startswith("usage: ") and err.count("usage:") == err.count("error:") == 1

    return check

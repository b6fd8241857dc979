import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgeom
from qgeom.constants import codata_scale


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

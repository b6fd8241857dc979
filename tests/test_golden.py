"""Golden runs: the sha256 of the stdout and of every file written, manifests
included, of fixed argv run through `cli.run` in a fresh interpreter.

`GOLDEN` pins them under the versions that recorded it: a series' bits are
fixed for one numpy version, the `--help` text for one Python version.
`CPU_SETTINGS` compares them, under any versions, with a child run under
other OpenBLAS kernels, numpy's AVX-512 dispatch off or glibc's FMA variant
off. Only the outputs it lists may differ (ROADMAP item 13): the `bounds
--out` grid with AVX-512 off, and with glibc's FMA variant off the model and
cross spectra (libm `sin`) and the 8192-sample Welch PSD (libm `cos`).
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from qgeom import cli
from qgeom.noise import coherence_time

RECORDED_UNDER = ("3.11", "2.4.6")

CONFIGS = {"a.cfg": "label = a\narm_length_m = 40\nposition_m = 0,0,0\n",
           "b.cfg": "label = b\narm_length_m = 40\nposition_m = 40,0,0\n"}

# run in this order in one directory, since spectrum reads the series that
# noise writes; 250,000 series rows are four chunks, so the fork pool runs
GOLDEN = {
    "algebra --spin 3 --check --dump-matrices m": {
        "<stdout>": "b714757707e7a7e0f551aa3b5983af9ac4fd0210ec412176832a51e567c73057",
        "m_x1.csv": "04868a5daf35cf5c181c52c8b5acdf848a916ba2817de483d976d5dadc71df8b",
        "m_x1.csv.manifest.json":
            "b1cccb7a3e25d82700de702d1d3955deaaf222827a32dc12a37d75723b344a69",
        "m_x2.csv": "5dde2bb880ac8d4e83fac20e30740707758ba9eac0fea652afa7e11972d20c50",
        "m_x3.csv": "fc81a101a6c5b673c6b8bab68822cd60712f1796ccf60973806722cf713c10df",
    },
    "noise --arm-length 40 --rate 2.5e7 --duration 0.01 --seed 7 --out s.csv": {
        "<stdout>": "d45a028c5e9e4f5443016bf62f00e51d518d694a14e880ea5b6c1e7626e33cad",
        "s.csv": "f54b2bbc775aa7205bb909327a2530a8182cc4d0313593ce59eb268e557e899e",
        "s.csv.manifest.json": "c37a20df0a0aceb94207a3bf99db62853b32ab6088461dea759eaf27819913df",
    },
    "spectrum --input s.csv --arm-length 40 --out psd.csv": {
        "<stdout>": "0411313835e46a177f48a6209d6c97a86e90aa79a748745f5d40d622684e8808",
        "psd.csv": "bc0305502188800806d9d980a3ff41535c49e760b6df6e0f56c69699a871fa49",
        "psd.csv.manifest.json": "4327994a2cda6371d31dfce28e8d42e487779e52f38a3bedb544c3a0a96e0f1f",
    },
    "interferometer --arm-length 40 --out model_psd.csv --floor 1e-41": {
        "<stdout>": "1adeb220ea916d61651fcf72476760d839bf9bc6e159733e919f69ae084d208e",
        "model_psd.csv": "d9ecba7a30cb020bff5328080387d7bc95ee201d826de7065bbf9ed40dbd3691",
        "model_psd.csv.manifest.json":
            "5c0192b3cb5b56820a7d9974cf53380885847c0b3ac4459594e84953dd2ee6ef",
    },
    "--json interferometer --config a.cfg --config-b b.cfg --out cross.csv": {
        "<stdout>": "e46fb9bda0528f7cd9e98f35020214d259c70a3041a81751153510a35b6ae78e",
        "cross.csv": "6d24f168154866aa8a9cab10b65aba414bbe350f525000d169dc038798122826",
        "cross.csv.manifest.json":
            "c50b8754db0aad2c6a04ce55c1c27a10cde13ec6bbe81a4849f740ec72c511fd",
    },
    "bounds --mass 1.989e30 --size 1": {
        "<stdout>": "ff8b71533c4339c9d298d56d1a8d6daed5b8d0ba07f8d17d51554678114b419c",
    },
    "bounds --help": {
        "<stdout>": "135d797ad555ba283e96e4bbf67e74e1716a61c5317c708def881e21afe4889b",
    },
}


UMATH = (getattr(np, "_core", None) or np.core)._multiarray_umath  # numpy 2 or 1.x
# the host's features, in numpy's names, with its C library where that is
# glibc, and the AVX-512 paths numpy dispatches on it
FEATURES = {name for name, present in UMATH.__cpu_features__.items() if present}
if platform.libc_ver()[0] == "glibc":
    FEATURES.add("glibc")
AVX512 = [name for name in UMATH.__cpu_dispatch__
          if name in FEATURES and (name.startswith("AVX512") or name == "X86_V4")]

# setting: (its child's environment, the host features it needs, {output it
# may change: measured cause}). Forced OpenBLAS kernels stand in for other
# CPUs: a BLAS call in synthesis or Welch would take the series' bits from
# the CPU's kernel, as a dot product does from 12 samples on
CPU_SETTINGS = {
    "Prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, ["SSE3"], {}),
    "Nehalem": ({"OPENBLAS_CORETYPE": "Nehalem"}, ["SSSE3", "SSE41", "SSE42"], {}),
    "Sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, ["AVX"], {}),
    "Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ["AVX2", "FMA3"], {}),
    "AVX-512 off": ({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}, ["AVX512F"], {
        "curves.csv": "np.power in np.logspace: 61 of 1000 rows, by up to 4 ulp"}),
    # glibc picks an FMA variant of libm's sin, cos and pow per CPU
    "glibc FMA off": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable"},
                      ["FMA3", "glibc"], {
        "model_psd.csv": "libm sin in np.sinc: 2 of 2001 rows, by up to 4.8e-16",
        "cross.csv": "libm sin in np.sinc: 2 of 2001 rows, by up to 4.8e-16",
        "psd8192.csv": "np.cos in the Hann window: 208 of 4097 rows, by up to 2.5e-15"}),
}

# at L = 40 m, rate * 2L/c rounds to windows of 7, 12, 32 and 267 samples
WINDOWS = {7: 2.5e7, 12: 4.5e7, 32: 1.2e8, 267: 1e9}

# every golden argv, the CLI's other per-CPU candidates, and the series at
# each window with its Welch PSD, about 50,000 samples each
CPU_ARGV = [
    *GOLDEN, "bounds --out curves.csv", "algebra --spin 500 --check",
    "spectrum --input s.csv --arm-length 40 --segment-length 8192 --out psd8192.csv",
    *(f"noise --arm-length 40 --rate {rate:g} --duration {5e4 / rate:.3g} --seed 3 --out s{m}.csv"
      for m, rate in WINDOWS.items()),
    *(f"spectrum --input s{m}.csv --arm-length 40 --segment-length 256 --out psd{m}.csv"
      for m in WINDOWS),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_table(argvs):
    """Write CONFIGS to the working directory and run each argv there through
    `cli.run`, in order: the sha256 of its stdout and of each file it writes."""
    for name, text in CONFIGS.items():
        Path(name).write_text(text)
    table = {}
    for argv in argvs:
        before = set(Path().iterdir())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.run(argv.split()) == 0, argv
        table[argv] = {"<stdout>": sha256(stdout.getvalue().encode())}
        for path in sorted(set(Path().iterdir()) - before):
            table[argv][path.name] = sha256(path.read_bytes())
    return table


@pytest.fixture(scope="module")
def tables(python, tmp_path_factory):
    """The default table and each setting's that the host has, two at a time."""
    envs = {"default": {}, **{setting: env for setting, (env, needs, _) in CPU_SETTINGS.items()
                              if FEATURES.issuperset(needs)}}

    def run(setting):
        # this file as a script in a fresh interpreter, where the environment
        # still chooses OpenBLAS's, numpy's and libm's code; argparse wraps
        # the --help text to the terminal width
        proc = python(__file__, cwd=tmp_path_factory.mktemp("table"), env={
            "OPENBLAS_CORETYPE": None, "NPY_DISABLE_CPU_FEATURES": None, "GLIBC_TUNABLES": None,
            "COLUMNS": "80", **envs[setting]})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(envs, pool.map(run, envs)))


def test_golden_outputs(tables):
    versions = (f"{sys.version_info[0]}.{sys.version_info[1]}", np.__version__)
    if versions != RECORDED_UNDER:
        pytest.skip(f"recorded under Python {RECORDED_UNDER[0]} and numpy "
                    f"{RECORDED_UNDER[1]}, not {versions[0]} and {versions[1]}")
    assert {argv: tables["default"][argv] for argv in GOLDEN} == GOLDEN


@pytest.mark.parametrize("setting", CPU_SETTINGS)
def test_outputs_do_not_depend_on_cpu(setting, tables, scale):
    assert [round(rate * coherence_time(40.0, scale)) for rate in WINDOWS.values()] == [*WINDOWS]
    _, needs, may_change = CPU_SETTINGS[setting]
    if not FEATURES.issuperset(needs):
        pytest.skip(f"{setting}: the host lacks {' '.join(sorted(set(needs) - FEATURES))}")
    # every output keeps its bits, but those the setting may change
    kept = [{(argv, name): digest for argv, files in table.items()
             for name, digest in files.items() if name not in may_change}
            for table in (tables[setting], tables["default"])]
    assert kept[0] == kept[1]


def test_bounds_report_without_numpy(python):
    # a scalar report runs on math alone: with numpy unimportable, its bytes
    # are still the golden ones, under any Python and numpy version
    argv = "bounds --mass 1.989e30 --size 1"
    proc = python("-c", "import sys\nsys.modules['numpy'] = None\nfrom qgeom import cli\n"
                  f"sys.exit(cli.run({argv.split()!r}))\n", text=False)
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == GOLDEN[argv]["<stdout>"]


if __name__ == "__main__":
    print(json.dumps(golden_table(CPU_ARGV)))

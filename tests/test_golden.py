"""Golden runs: the sha256 of the stdout and of every file written, manifests
included, of fixed argv run through `cli.run`.

A series' bits are fixed for one numpy version, and the `--help` text for
one Python version, so the table is checked only under the versions that
recorded it. It holds with numpy's AVX-512 dispatch off
(`NPY_DISABLE_CPU_FEATURES`) and under `OPENBLAS_CORETYPE=Haswell`. The
`bounds --out` grid is left out: its bits are per CPU (ROADMAP item 13).
"""

import hashlib
import sys

import numpy as np
import pytest

from qgeom import cli

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_outputs(tmp_path, monkeypatch, capsys):
    versions = (f"{sys.version_info[0]}.{sys.version_info[1]}", np.__version__)
    if versions != RECORDED_UNDER:
        pytest.skip(f"recorded under Python {RECORDED_UNDER[0]} and numpy "
                    f"{RECORDED_UNDER[1]}, not {versions[0]} and {versions[1]}")
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    # argparse wraps the --help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    table = {}
    for argv in GOLDEN:
        before = set(tmp_path.iterdir())
        assert cli.run(argv.split()) == 0, argv
        table[argv] = {"<stdout>": sha256(capsys.readouterr().out.encode())}
        for path in sorted(set(tmp_path.iterdir()) - before):
            table[argv][path.name] = sha256(path.read_bytes())
    assert table == GOLDEN


def test_bounds_report_without_numpy(python):
    # a scalar report runs on math alone: with numpy unimportable, its bytes
    # are still the golden ones, under any Python and numpy version
    argv = "bounds --mass 1.989e30 --size 1"
    proc = python("-c", "import sys\nsys.modules['numpy'] = None\nfrom qgeom import cli\n"
                  f"sys.exit(cli.run({argv.split()!r}))\n", text=False)
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == GOLDEN[argv]["<stdout>"]

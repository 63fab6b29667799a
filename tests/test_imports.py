"""Which SciPy submodules each CLI step loads.

The package imports only the ``scipy`` package at top level; a submodule
loads the first time one of its attributes is used.  Importing a SciPy
submodule costs more than most of the work of a short CLI step: loading
``scipy.signal`` takes about a second (it pulls in ``scipy.stats``,
``interpolate`` and ``optimize``), and ``scipy.special`` or ``scipy.fft``
load SciPy's array-API layer, which pulls in ``numpy.f2py`` and
``numpy.testing``.  So ``ingest`` and ``analyze`` (whose binned KDE runs on
``numpy.fft``) load none.  Nor does a Gaussian ``simulate`` below 2**20
shocks, which takes NumPy's port of ``ndtri``; a larger or Student-t one
loads ``scipy.special`` only.
``ingest`` and ``analyze`` load no OpenSSL either: ``hashlib`` would load
``_hashlib`` and libcrypto, 3+ MB of RSS, to hash the config.
Each case runs in a fresh interpreter and reports the ``scipy.*`` modules
it ended with.
"""

import configparser
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import firmgrowth
from firmgrowth.cli import config_hash

SRC = str(Path(firmgrowth.__file__).resolve().parents[1])


def scipy_modules(code, also=()):
    """The ``scipy.*`` modules, and those of the modules named in `also`, loaded after
    running `code` in a fresh interpreter."""
    script = code + (
        f"\nimport json, sys\nalso = {list(also)!r}"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.') or m in also)))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare_scipy():
    # what `import scipy` loads by itself: private helpers, no submodule
    return scipy_modules("import scipy")


def run_cli(argv):
    return f"from firmgrowth.cli import main\nassert main({argv!r}) == 0"


def test_importing_the_cli_loads_no_scipy_submodule(bare_scipy):
    assert scipy_modules("import firmgrowth.cli") == bare_scipy


def test_ingest_loads_no_scipy_submodule(tmp_path, bare_scipy):
    rng = np.random.default_rng(1)
    rows = ["firm_id,year,quarter,size"] + [
        f"{firm},{2000 + i // 4},{i % 4 + 1},{rng.random() + 0.5:.6f}"
        for firm in ("a", "b", "c")
        for i in range(10)
    ]
    data = tmp_path / "quarters.csv"
    data.write_text("\n".join(rows) + "\n")
    argv = ["ingest", "--input", str(data), "--out-dir", str(tmp_path / "out")]
    # bare_scipy holds no _hashlib: `import scipy` loads no OpenSSL, and nor may ingest
    assert scipy_modules(run_cli(argv), also=["_hashlib"]) == bare_scipy


def test_analyze_loads_neither_signal_nor_stats(tmp_path, bare_scipy):
    # enough firms that the rescaled-volatility KDE takes the binned FFT path
    rng = np.random.default_rng(2)
    n_firms, n_periods = 12_000, 3
    firm_id = np.repeat(np.arange(n_firms), n_periods)
    period = np.tile(np.arange(n_periods), n_firms)
    size = np.exp(rng.normal(0.0, 2.0, firm_id.size))
    panel = tmp_path / "panel.csv"
    panel.write_text(
        "firm_id,period,size\n"
        + "".join(f"{f},{p},{s!r}\n" for f, p, s in zip(firm_id, period, size.tolist()))
    )
    argv = ["analyze", "--panel", str(panel), "--out-dir", str(tmp_path / "out")]
    loaded = scipy_modules(run_cli(argv), also=["numpy.fft", "_hashlib"])
    # the binned KDE ran: nothing else loads numpy.fft; and no OpenSSL was loaded
    assert loaded == bare_scipy | {"numpy.fft"}


def simulate_modules(tmp_path, model):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        f"[run]\nout_dir = {tmp_path / 'out'}\n\n[model]\nmu = 1.5\nalpha = 1.2\n{model}\n"
        "[simulate]\nn_firms = 50\nn_periods = 3\n"
    )
    return scipy_modules(run_cli(["--config", str(cfg), "simulate"]))


def test_gaussian_simulate_below_the_port_limit_loads_no_scipy_submodule(tmp_path, bare_scipy):
    assert simulate_modules(tmp_path, "") == bare_scipy


def test_student_t_simulate_loads_special_but_neither_fft_nor_optimize(tmp_path):
    loaded = simulate_modules(tmp_path, "shock_law = student_t\n")
    assert "scipy.special" in loaded
    assert not {m for m in loaded if m.split(".")[1] in ("fft", "optimize")}


@pytest.mark.parametrize("text", [
    "",
    "[run]\nseed = 7\n\n[model]\nmu = 1.5\nalpha = 1.2\n",
    "[ingest]\ninput = données/quarters.csv\nfirm_id_col = société\n",  # non-ASCII values
    "[DEFAULT]\nx = 1\n[fit]\nfamily = mig\ninput = 样本.csv\n",
])
def test_config_hash_is_hashlib_sha256(text):
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read_string(text)
    blob = json.dumps({s: dict(cfg[s]) for s in cfg.sections()}, sort_keys=True).encode()
    assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()[:16]

"""`distributions.ndtri`, NumPy's port of cephes' ``ndtri``, against SciPy bit for bit.

`simulate_panel` takes the port for Gaussian shocks below
``model._NDTRI_PORT_SHOCKS`` shocks a run, and ``scipy.special.ndtri`` (through
`shocks_from_uniforms`) above it.  Both must give the same bytes, so the
limit decides only what a run loads and how long it takes, never its output.
"""

import math

import numpy as np
import pytest
import scipy.special

from firmgrowth import model
from firmgrowth.distributions import ndtri
from firmgrowth.model import FixedCount, ModelParams, ParetoCount, simulate_panel


def test_matches_scipy_on_philox_uniforms():
    u = np.random.Generator(np.random.Philox(key=2024)).random(2_000_000)
    assert ndtri(u).tobytes() == scipy.special.ndtri(u).tobytes()


def test_matches_scipy_on_edge_values():
    e2 = math.exp(-2.0)
    points = [0.0, 2.0**-1074, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0, e2, 1.0 - e2, math.exp(-32.0)]
    near = [np.nextafter(p, d) for p in points for d in (0.0, 1.0)]
    # x = sqrt(-2 log y) crosses 8 at y = exp(-32), about 1.27e-14, in either tail
    switch = np.geomspace(1e-15, 1e-13, 1001)
    u = np.concatenate([points, near, switch, 1.0 - switch])
    out = ndtri(u)
    assert out.tobytes() == scipy.special.ndtri(u).tobytes()
    assert out[0] == -np.inf and out[5] == np.inf
    assert ndtri(0.5) == 0.0 and ndtri(1.0) == np.inf


def test_zero_and_one_raise_no_warning():
    with np.errstate(all="raise"):
        assert ndtri(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]


@pytest.mark.parametrize("k_mode, n_firms, n_periods", [
    (FixedCount(5000), 3, 40),  # 200,000 words a firm: a firm larger than a block
    (FixedCount(7), 2000, 20),  # 280,000 words: blocks cut between equal firms
    (ParetoCount(), 1500, 28),  # about 270,000 words: blocks cut after firms of any count
])
def test_simulate_panel_gives_the_same_bytes_on_either_side_of_the_limit(
    monkeypatch, k_mode, n_firms, n_periods
):
    # sigma0 large enough that some Gaussian multipliers are floored
    params = ModelParams(mu=1.6, alpha=1.2, sigma0=0.45, k_mode=k_mode)
    calls = []

    def counted(u):
        calls.append(u.size)
        return ndtri(u)

    monkeypatch.setattr(model, "ndtri", counted)
    runs = {}
    for limit in (0, 2**62):
        monkeypatch.setattr(model, "_NDTRI_PORT_SHOCKS", limit)
        panel, clamp_count = simulate_panel(params, n_firms, n_periods, 17)
        runs[limit] = panel.size.tobytes(), clamp_count, len(calls)
    assert runs[0][:2] == runs[2**62][:2]
    assert runs[0][1] > 0
    # limit 0 never took the port; 2**62 took it once per firm block, more than once
    assert runs[0][2] == 0 and runs[2**62][2] > 1

"""Peak memory of the blocked kernels does not grow with their input.

Each kernel runs on an input of 16 blocks under ``tracemalloc``, which counts
NumPy's array buffers.  Its peak may hold the output plus a fixed number of
blocks of temporaries, fewer than 16: one full-size temporary more fails.
simulate_panel's shock step writes its shocks over its uniforms, so a run of
one 16-block firm may hold those and the temporaries; firm_size_volatility is
counted from the end of its by-firm index.
table1's and fig5's GSE fits, which load ``scipy.optimize``, must start with
no sample array held.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.optimize  # noqa: F401  loaded here, like scipy.special, so imports are not traced
import scipy.special  # noqa: F401  loaded here, so its import is not traced as the kernels' memory

from firmgrowth import estimation, model
from firmgrowth.analysis import _kde_binned, kde_gaussian
from firmgrowth.distributions import MigParams, mig_sample
from firmgrowth.estimation import _mig_nll, firm_groups, firm_size_volatility
from firmgrowth.estimation import leave_one_out_rescale
from firmgrowth.experiments import run_fig5, run_table1
from firmgrowth.groups import _BLOCK
from firmgrowth.model import FixedCount, ModelParams, simulate_panel

N_BLOCKS = 16
BLOCK_BYTES = _BLOCK * 8
TEMPORARY_BLOCKS = 12


def traced_peak(f, *args):
    """The output of ``f(*args)`` and the peak bytes traced while it ran, beyond what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def assert_bounded(f, *args):
    out, peak = traced_peak(f, *args)
    assert peak <= out.nbytes + TEMPORARY_BLOCKS * BLOCK_BYTES, (
        f"peak {peak / BLOCK_BYTES:.1f} blocks for an output of {out.nbytes / BLOCK_BYTES:.1f}"
    )


RNG = np.random.default_rng(16)
N = N_BLOCKS * _BLOCK


def test_leave_one_out_rescale():
    assert_bounded(leave_one_out_rescale, RNG.standard_normal((N // 27, 27)))


def test_mig_sample():
    assert_bounded(mig_sample, MigParams(4.788, 4.620, 0.326), RNG.uniform(0.01, 0.99, N))


def test_kde_binned():
    assert_bounded(_kde_binned, RNG.standard_normal(N), np.linspace(-8.0, 8.0, 10_000), 0.05)


def test_kde_exact_path():
    grid = np.linspace(-4.0, 4.0, 1_000)
    samples = RNG.standard_normal(N // grid.size)
    assert samples.size * grid.size <= int(2e7)
    assert_bounded(lambda x, g: kde_gaussian(x, g).values, samples, grid)


@pytest.mark.parametrize("theta", [(4.788, 4.620, 0.326), (1e-6, 200.0, 1.0)])
def test_mig_nll_with_work_allocates_nothing_the_size_of_x(theta):
    x = RNG.uniform(0.5, 3.0, N)
    _, peak = traced_peak(_mig_nll, np.array(theta), x, np.empty_like(x))
    assert peak < BLOCK_BYTES


@pytest.mark.parametrize("law, limit", [
    ("gaussian", 2**62),    # the NumPy port
    ("gaussian", 0),        # SciPy's ndtri
    ("laplace", 0),
    ("student_t", 0),
])
def test_simulate_panel_of_one_firm_of_16_blocks(monkeypatch, law, limit):
    # one firm of N words: the shock step turns its uniforms into shocks in place,
    # so the run may hold them and no more than the temporaries besides
    monkeypatch.setattr(model, "_NDTRI_PORT_SHOCKS", limit)
    params = ModelParams(mu=1.6, k_mode=FixedCount(N // 8), shock_law=law)
    _, peak = traced_peak(simulate_panel, params, 1, 8, 3)
    assert peak <= (N + TEMPORARY_BLOCKS * _BLOCK) * 8, f"peak {peak / BLOCK_BYTES:.1f} blocks"


def test_firm_size_volatility_beyond_its_index(monkeypatch):
    # N rows of 8-period firms; the peak is counted from the end of firm_groups
    firm_id = np.repeat(RNG.permutation(N // 8), 8)
    period = np.tile(np.arange(8), N // 8)
    index = []

    def indexed(*args):
        firms = firm_groups(*args)
        index.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return firms

    monkeypatch.setattr(estimation, "firm_groups", indexed)
    tracemalloc.start()
    try:
        out = firm_size_volatility(firm_id, period, RNG.lognormal(size=N))
        peak = tracemalloc.get_traced_memory()[1] - index[0]
    finally:
        tracemalloc.stop()
    out_bytes = out[0].nbytes + out[1].nbytes
    assert peak <= out_bytes + TEMPORARY_BLOCKS * BLOCK_BYTES, (
        f"peak {peak / BLOCK_BYTES:.1f} blocks for an output of {out_bytes / BLOCK_BYTES:.1f}"
    )


@pytest.mark.parametrize("run, kwargs, n_fits", [
    (run_table1, {"n_firms": 5_000}, 2),       # 135,000 growths: 1.1 MB per rescaled array
    (run_fig5, {"n_samples": 300_000}, 1),
])
def test_no_sample_is_held_into_a_gse_fit(monkeypatch, run, kwargs, n_fits):
    held = []
    fit_gse_nls = estimation.fit_gse_nls

    def traced_fit(density):
        held.append(tracemalloc.get_traced_memory()[0])
        return fit_gse_nls(density)

    monkeypatch.setattr(estimation, "fit_gse_nls", traced_fit)
    tracemalloc.start()
    try:
        run(**kwargs)
    finally:
        tracemalloc.stop()
    assert len(held) == n_fits
    assert max(held) < BLOCK_BYTES, f"{max(held) / BLOCK_BYTES:.2f} blocks held at a fit"

"""`simulate_panel` against the per-firm loop it replaced, bit for bit.

The oracle draws each firm from its own generator, ``firm_stream(seed, i)``:
the count uniform (ParetoCount only), k sizes, then ``(T - 1) * k`` shock
uniforms in period-major order.  The array code must give the same sizes,
``tobytes()`` equal, and the same clamp count.
"""

import numpy as np
import pytest

from firmgrowth import model
from firmgrowth.distributions import pareto_sample
from firmgrowth.model import (
    FixedCount,
    ModelParams,
    ParetoCount,
    _philox_doubles,
    shocks_from_uniforms,
    simulate_panel,
)


def firm_stream(seed, firm_id):
    """Firm `firm_id`'s own generator: Philox keyed by (firm_id << 64) | (seed mod 2**64)."""
    return np.random.Generator(np.random.Philox(key=(int(firm_id) << 64) | (int(seed) % 2**64)))


def loop_panel(params, n_firms, n_periods, seed):
    """The per-firm simulation loop: one generator and one matrix product per firm."""
    sizes = np.empty((n_firms, n_periods))
    clamp_count = 0
    for i in range(n_firms):
        gen = firm_stream(seed, i)
        if isinstance(params.k_mode, FixedCount):
            k = params.k_mode.count
        else:
            k = int(np.ceil(pareto_sample(gen.random(), 1.0, params.alpha)))
        s = pareto_sample(gen.random(k), params.s0, params.mu)
        sizes[i, 0] = s.sum()
        eta = shocks_from_uniforms(
            gen.random((n_periods - 1, k)), params.shock_law, params.student_dof
        )
        mult = 1.0 + params.sigma0 * eta
        clamp_count += int((mult < model._MULTIPLIER_FLOOR).sum())
        np.maximum(mult, model._MULTIPLIER_FLOOR, out=mult)
        np.cumprod(mult, axis=0, out=mult)
        sizes[i, 1:] = mult @ s
    return sizes.ravel(), clamp_count


def assert_matches_loop(params, n_firms, n_periods, seed):
    panel, clamp_count = simulate_panel(params, n_firms, n_periods, seed)
    sizes, loop_clamps = loop_panel(params, n_firms, n_periods, seed)
    assert panel.size.tobytes() == sizes.tobytes()
    assert clamp_count == loop_clamps
    assert panel.firm_id.tolist() == np.repeat(np.arange(n_firms), n_periods).tolist()
    assert panel.period.tolist() == np.tile(np.arange(n_periods), n_firms).tolist()
    return clamp_count


K_MODES = {"fixed1": FixedCount(1), "fixed3": FixedCount(3), "pareto": ParetoCount()}


@pytest.mark.parametrize("n_periods", [2, 8, 28])
@pytest.mark.parametrize("seed", [0, 1, -5, 2**64 + 3])
@pytest.mark.parametrize("k_mode", sorted(K_MODES))
@pytest.mark.parametrize("law", ["gaussian", "laplace", "student_t"])
def test_matches_per_firm_loop(law, k_mode, seed, n_periods):
    # sigma0 large enough that laplace and student_t shocks floor some multipliers
    params = ModelParams(
        mu=1.6, alpha=1.2, sigma0=0.45, k_mode=K_MODES[k_mode], shock_law=law, student_dof=3.0
    )
    clamps = assert_matches_loop(params, 60, n_periods, seed)
    if law != "gaussian" and n_periods == 28:
        assert clamps > 0


@pytest.mark.parametrize("k_mode", sorted(K_MODES))
def test_one_firm(k_mode):
    assert_matches_loop(ModelParams(mu=1.5, alpha=1.2, k_mode=K_MODES[k_mode]), 1, 3, 9)


def test_firm_larger_than_a_block():
    # 5000 sub-units x 40 periods is 200,000 words, more than one firm block
    assert 5000 * 40 > model._BLOCK
    assert_matches_loop(ModelParams(mu=1.6, k_mode=FixedCount(5000)), 3, 40, 12)


def test_many_firm_blocks():
    # about 270,000 words: firm blocks cut after firms of any count
    params = ModelParams(mu=1.6, alpha=1.2, k_mode=ParetoCount(), shock_law="laplace")
    assert_matches_loop(params, 1500, 28, 21)


def test_philox_doubles_take_any_block_order():
    firm_ids = np.array([5, 2, 5, 2**40])
    counters = np.array([3, 0, 1, 2])
    rows = _philox_doubles(11, firm_ids, counters)
    for row, firm_id, b in zip(rows, firm_ids.tolist(), counters.tolist()):
        assert row.tobytes() == firm_stream(11, firm_id).random(4 * b + 4)[4 * b :].tobytes()

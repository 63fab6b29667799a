"""Segmented batch samplers against the serial draws they replaced.

``serial_firm_stats`` and ``serial_population`` are the earlier single-thread
bodies of ``sample_firm_stats`` and ``draw_population``.  The segmented code
must give the same bytes (``tobytes()``) for any segment count, and leave the
caller's generator where the serial code left it, which the next 7 draws
check.  Philox is started at each position within its 4-word block; SFC64
cannot jump, so it runs as one segment.
"""

import functools

import numpy as np
import pytest

from firmgrowth import model
from firmgrowth.experiments import _rng, _wb_stats
from firmgrowth.distributions import pareto_sample
from firmgrowth.model import (
    FirmPopulation,
    FixedCount,
    ModelParams,
    ParetoCount,
    _advanced,
    _draw_counts,
    draw_population,
    sample_firm_stats,
)

SEGMENTS = (1, 2, 3, 5)


# ---------------------------------------------------------------------------
# Serial references
# ---------------------------------------------------------------------------

def serial_firm_stats(params, k, n_samples, rng):
    sizes = np.empty(n_samples)
    hhi_out = np.empty(n_samples)
    block = max(1, int(8e6) // k)
    done = 0
    while done < n_samples:
        c = min(block, n_samples - done)
        s = pareto_sample(rng.random((c, k)), params.s0, params.mu)
        tot = s.sum(axis=1)
        sizes[done : done + c] = tot
        hhi_out[done : done + c] = (s * s).sum(axis=1) / tot**2
        done += c
    return sizes, hhi_out


def serial_population(params, n_firms, rng):
    counts = _draw_counts(params, n_firms, rng)
    total = int(counts.sum())
    flat = np.empty(total)
    block = 1 << 24
    for i in range(0, total, block):
        u = rng.random(out=flat[i : i + block])
        flat[i : i + block] = pareto_sample(u, params.s0, params.mu)
    return FirmPopulation(flat, counts)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def philox_at(words_drawn):
    def make():
        bit_generator = np.random.Philox(key=20260801)
        bit_generator.random_raw(words_drawn)
        return np.random.Generator(bit_generator)

    return make


GENERATORS = {
    **{f"philox_pos{p}": philox_at(p) for p in range(4)},
    "pcg64": lambda: np.random.Generator(np.random.PCG64(7)),
    "sfc64": lambda: np.random.Generator(np.random.SFC64(7)),
}


def plain(state):
    return {
        key: plain(v) if isinstance(v, dict) else v.tolist() if isinstance(v, np.ndarray) else v
        for key, v in state.items()
    }


def with_segments(monkeypatch, n_segments):
    monkeypatch.setattr(
        model, "_in_segments", functools.partial(model._in_segments, n_segments=n_segments)
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["philox_pos1", "philox_pos3", "pcg64"])
@pytest.mark.parametrize("half_word", [False, True])
def test_advanced_stands_where_raw_draws_leave(name, half_word):
    for words in range(14):
        rng = GENERATORS[name]()
        if half_word:
            rng.integers(0, 1 << 32, dtype=np.uint32)  # holds the other 32-bit half
        before = plain(rng.bit_generator.state)
        jumped = _advanced(rng.bit_generator, words)
        assert plain(rng.bit_generator.state) == before
        rng.bit_generator.random_raw(words)
        assert plain(jumped.state) == plain(rng.bit_generator.state), words


def test_advanced_declines_generators_that_cannot_jump():
    for bit_generator in (np.random.SFC64(1), np.random.MT19937(1), np.random.PCG64DXSM(1)):
        assert _advanced(bit_generator, 5) is None


CASES = [(k, n) for k in (1, 3, 64, 4096) for n in (1, 3, 10_001) if k * n < 10**6]


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("k, n_samples", CASES)
def test_firm_stats_match_serial(monkeypatch, name, k, n_samples):
    params = ModelParams(mu=1.5, k_mode=FixedCount(1))
    rng = GENERATORS[name]()
    expected = serial_firm_stats(params, k, n_samples, rng)
    after = rng.random(7)
    for n_segments in SEGMENTS:
        with_segments(monkeypatch, n_segments)
        rng = GENERATORS[name]()
        got = sample_firm_stats(params, k, n_samples, rng)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected], n_segments
        assert rng.random(7).tobytes() == after.tobytes(), n_segments


@pytest.mark.parametrize("name", ["philox_pos1", "pcg64"])
def test_firm_stats_match_serial_over_several_serial_blocks(monkeypatch, name):
    # 41M draws: the serial code took 6 blocks of up to 1953 rows, the segmented
    # one takes blocks of 32
    params = ModelParams(mu=1.5, k_mode=FixedCount(1))
    rng = GENERATORS[name]()
    expected = serial_firm_stats(params, 4096, 10_001, rng)
    after = rng.random(7)
    for n_segments in (2, 3):
        with_segments(monkeypatch, n_segments)
        rng = GENERATORS[name]()
        got = sample_firm_stats(params, 4096, 10_001, rng)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected], n_segments
        assert rng.random(7).tobytes() == after.tobytes(), n_segments


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("k_mode", [FixedCount(3), ParetoCount()])
@pytest.mark.parametrize("n_firms", [1, 3, 10_001])
def test_population_matches_serial(monkeypatch, name, k_mode, n_firms):
    params = ModelParams(mu=1.6, alpha=1.2, k_mode=k_mode)
    rng = GENERATORS[name]()
    expected = serial_population(params, n_firms, rng)
    after = rng.random(7)
    for n_segments in SEGMENTS:
        with_segments(monkeypatch, n_segments)
        rng = GENERATORS[name]()
        got = draw_population(params, n_firms, rng)
        assert got.counts.tobytes() == expected.counts.tobytes()
        assert got.sub_unit_sizes.tobytes() == expected.sub_unit_sizes.tobytes(), n_segments
        assert rng.random(7).tobytes() == after.tobytes(), n_segments


@pytest.mark.parametrize("with_growth", [False, True])
def test_wb_stats_are_consecutive_populations_of_chunk_firms(with_growth):
    params = ModelParams(mu=1.25, alpha=1.1, sigma0=0.1, k_mode=ParetoCount())
    got = _wb_stats(params, 10_000, _rng(5), with_growth=with_growth, chunk=4_000)
    rng = _rng(5)
    parts = []
    for n in (4_000, 4_000, 2_000):
        pop = draw_population(params, n, rng)
        part = [pop.counts, pop.sizes(), pop.hhi()]
        if with_growth:
            eta = rng.standard_normal(pop.sub_unit_sizes.size)
            part.append(pop.growth_rates(eta, params.sigma0))
        parts.append(part)
    expected = [np.concatenate(column) for column in zip(*parts)]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
    # the chunk is part of the draw order: one pass over all firms differs
    single = draw_population(params, 10_000, _rng(5))
    assert single.sizes().tobytes() != got[1].tobytes()

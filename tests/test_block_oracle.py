"""The blocked kernels against frozen copies of the whole-array code they replaced, byte for byte.

Each kernel on the battery's path works through its input in blocks of
``_BLOCK`` elements, so its peak memory does not grow with the input.  A block
must perform the same floating-point operations in the same order as the
whole-array code did.  The copies below are that code as it was; they must not
change with the kernels.  Sizes straddle the block: one short of it, exactly
one block, one over, and two blocks and a few.
"""

import math

import numpy as np
import pytest
import scipy

from firmgrowth.analysis import _convolve_same, _kde_binned, kde_gaussian
from firmgrowth.analysis import normal_reference_bandwidth
from firmgrowth.cli import main, write_table_csv
from firmgrowth.distributions import MigParams, mig_sample, ndtri, pareto_sample
from firmgrowth.estimation import _ADJ, _count_at_most, _mig_log_norm, _mig_nll
from firmgrowth.estimation import firm_groups, firm_size_volatility, leave_one_out_rescale
from firmgrowth.estimation import mad_volatility
from firmgrowth import experiments as xp
from firmgrowth import model
from firmgrowth.experiments import _mig_growths, _rng
from firmgrowth.groups import _BLOCK, Groups
from firmgrowth.model import FixedCount, ModelParams, Panel, ParetoCount, simulate_panel


def old_leave_one_out_rescale(series):
    g = np.asarray(series, dtype=float)
    n = g.shape[-1] if g.ndim else 0
    if n < 3:
        raise ValueError("need at least 3 observations")
    loo_mean = (g.sum(axis=-1, keepdims=True) - g) / (n - 1)
    srt = np.sort(g, axis=-1)
    pref = np.concatenate((np.zeros_like(srt[..., :1]), np.cumsum(srt, axis=-1)), axis=-1)
    below = _count_at_most(srt, loo_mean)
    pref_below = np.take_along_axis(pref, below, axis=-1)
    abs_sum = (
        loo_mean * below - pref_below + (pref[..., -1:] - pref_below) - loo_mean * (n - below)
    )
    own = np.abs(g - loo_mean)
    mad = _ADJ * (abs_sum - own) / (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mad > 0, (g - loo_mean) / mad, np.nan)


def old_mig_sample(p, u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0) or np.any(u >= 1):
        raise ValueError("uniforms must lie in (0, 1)")
    a, b, m = p.scale, p.shape, p.location
    f_m = scipy.special.gammaincc(b, a / m) if m > 0 else 0.0
    prob = f_m + u * (1.0 - f_m)
    with np.errstate(divide="ignore"):
        x = np.asarray(a / scipy.special.gammainccinv(b, prob) - m)
        lost = ~np.isfinite(x)
        if lost.any():
            kept = scipy.special.gammainc(b, a / m) if m > 0 else 1.0
            x[lost] = a / scipy.special.gammaincinv(b, (1.0 - u[lost]) * kept) - m
    if not np.isfinite(x).all():
        raise ValueError(f"{p} has draws beyond double precision")
    return x[()]


def old_kde_binned(samples, grid, h):
    lo = min(samples.min(), grid[0]) - 3 * h
    hi = max(samples.max(), grid[-1]) + 3 * h
    n_fine = 1 << 16
    step = (hi - lo) / (n_fine - 1)
    pos = (samples - lo) / step
    left = np.floor(pos).astype(np.int64)
    frac = pos - left
    weights = np.zeros(n_fine)
    np.add.at(weights, left, 1.0 - frac)
    np.add.at(weights, np.minimum(left + 1, n_fine - 1), frac)
    half_width = int(np.ceil(8.5 * h / step))
    offsets = np.arange(-half_width, half_width + 1) * step
    kernel = np.exp(-0.5 * (offsets / h) ** 2) / (h * np.sqrt(2 * np.pi))
    dens = _convolve_same(weights, kernel) / samples.size
    return np.interp(grid, lo + step * np.arange(n_fine), np.maximum(dens, 0.0))


def old_kde_exact(samples, grid):
    h = normal_reference_bandwidth(samples)
    values = np.zeros(grid.size)
    block = max(1, int(2e7) // grid.size)
    for i in range(0, samples.size, block):
        z = (grid[None, :] - samples[i : i + block, None]) / h
        values += np.exp(-0.5 * z * z).sum(axis=0)
    values /= samples.size * h * np.sqrt(2 * np.pi)
    return values


def old_mig_nll(theta, x):
    a, b, m = theta
    if not (a > 0 and b > 0 and m >= 0):
        return np.inf
    y = x + m
    with np.errstate(divide="ignore"):
        log_c = _mig_log_norm(MigParams(a, b, m))
    val = -(x.size * log_c) + (1.0 + b) * np.log(y).sum() + a * (1.0 / y).sum()
    return val if np.isfinite(val) else np.inf


def old_fig5_draws(rng, mig, n):
    g = old_mig_sample(mig, 1.0 - rng.random(n))
    g *= rng.standard_normal(n)
    return g


def assert_same_bytes(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def around(unit):
    """Sizes one short of `unit`, exactly `unit`, one over, and two units and three."""
    return [unit - 1, unit, unit + 1, 2 * unit + 3]


# ---------------------------------------------------------------------------
# Leave-one-out rescaling: blocks of rows
# ---------------------------------------------------------------------------

N_PERIODS = 27
LOO_ROWS = _BLOCK // N_PERIODS


def awkward_growth(n_rows, seed):
    """Growth rows with ties, NaN, and rows whose leave-one-out MAD is zero."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_rows, N_PERIODS)) * 10 ** rng.uniform(-2, 1, (n_rows, 1))
    g[::7] = np.round(g[::7], 1)           # ties between values and leave-one-out means
    g[3::11, :] = 0.0                      # every leave-one-out MAD zero
    g[5::13, 1:] = 0.0                     # all but one zero
    g[6::17, 4] = np.nan                   # a NaN poisons its row
    edge = min(LOO_ROWS, n_rows - 1)
    g[edge] = 0.0                          # a zero-MAD row on the block edge
    g[edge - 1, :3] = np.nan
    return g


@pytest.mark.parametrize("n_rows", around(LOO_ROWS))
def test_leave_one_out_blocks_match_whole_array(n_rows):
    g = awkward_growth(n_rows, n_rows)
    with np.errstate(invalid="ignore"):
        ref = old_leave_one_out_rescale(g)
        assert_same_bytes(leave_one_out_rescale(g), ref)
        # a strided view and a single series
        assert_same_bytes(leave_one_out_rescale(g[::2]), old_leave_one_out_rescale(g[::2]))
        row = g[n_rows // 2]
        assert_same_bytes(leave_one_out_rescale(row), old_leave_one_out_rescale(row))
    assert np.isnan(ref).any()


def test_leave_one_out_transposed_input_matches_whole_array():
    g = awkward_growth(2 * LOO_ROWS + 3, 1).T.copy().T  # Fortran order: rows are strided
    with np.errstate(invalid="ignore"):
        assert_same_bytes(leave_one_out_rescale(g), old_leave_one_out_rescale(g))


# ---------------------------------------------------------------------------
# MIG sampler: blocks of uniforms
# ---------------------------------------------------------------------------

MIG = MigParams(4.788, 4.620, 0.326)
# gammaincc(2, a / m) is 1 - 1e-12, so uniforms above about 1 - 5e-5 round
# the upper-tail probability to 1 and take the lower-tail fallback
NEAR_ONE = MigParams(1.4142135e-6, 2.0, 1.0)


@pytest.mark.parametrize("n", around(_BLOCK))
def test_mig_sample_blocks_match_whole_array(n):
    u = 1.0 - np.random.default_rng(n).random(n)
    assert_same_bytes(mig_sample(MIG, u), old_mig_sample(MIG, u))
    grid = u.reshape(-1, 1)
    assert_same_bytes(mig_sample(MIG, grid), old_mig_sample(MIG, grid))


@pytest.mark.parametrize("n", around(_BLOCK))
def test_mig_sample_fallback_on_both_sides_of_a_block_edge(n):
    u = np.random.default_rng(n).uniform(0.01, 0.99, n)
    near = sorted({i for i in (_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, n - 1) if i < n})
    u[near] = 1.0 - 1e-6
    b, a_m = NEAR_ONE.shape, NEAR_ONE.scale / NEAR_ONE.location
    f_m = scipy.special.gammaincc(b, a_m)
    falls_back = scipy.special.gammainccinv(b, f_m + u * (1.0 - f_m)) == 0
    assert np.array_equal(np.flatnonzero(falls_back), near)
    assert_same_bytes(mig_sample(NEAR_ONE, u), old_mig_sample(NEAR_ONE, u))


def test_mig_sample_scalar_and_every_block_all_fallback():
    p = MigParams(0.05, 12.0, 1.5)  # the upper tail rounds to 1 for every u
    u = np.random.default_rng(4).random(_BLOCK + 1)
    assert_same_bytes(mig_sample(p, u), old_mig_sample(p, u))
    assert mig_sample(MIG, 0.5) == old_mig_sample(MIG, 0.5)
    assert type(mig_sample(MIG, 0.5)) is type(old_mig_sample(MIG, 0.5))


# ---------------------------------------------------------------------------
# Binned KDE: blocks of samples, left nodes first
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", around(_BLOCK))
def test_kde_binned_blocks_match_whole_array(n):
    rng = np.random.default_rng(n)
    grid = np.linspace(-8.0, 8.0, 2_500)
    x = np.clip(rng.standard_t(3, n), -29.0, 29.0)
    x[:2] = -30.0, 30.0  # the sample range, so the fine grid is known
    h = 1e-3
    lo, hi = -30.0 - 3 * h, 30.0 + 3 * h
    step = (hi - lo) / ((1 << 16) - 1)
    nodes = lo + step * rng.integers(1_000, 64_000, 2_000)
    # samples exactly on fine-grid nodes, one node many times across the block
    # edge, and samples at both ends of the evaluation grid
    x[rng.choice(np.arange(2, n), nodes.size, replace=False)] = nodes
    x[_BLOCK - 50 : min(_BLOCK + 50, n)] = nodes[0]
    x[-2:] = grid[0], grid[-1]
    # thousands of samples on the first few nodes, where a position holds all
    # 53 bits, so their sums round and depend on the order they are added in
    edge = min(_BLOCK, n - 5_000)
    x[edge - 5_000 : edge + 5_000] = -30.0 + rng.uniform(0.0, 3 * step, 10_000)
    assert_same_bytes(_kde_binned(x, grid, h), old_kde_binned(x, grid, h))


# ---------------------------------------------------------------------------
# Exact KDE: blocks of kernel rows, the running sum carried over
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_grid", [1_000, 2_048, 140_000])
def test_kde_exact_blocks_match_whole_array(n_grid):
    rows = max(1, _BLOCK // n_grid)
    grid = np.linspace(-6.0, 6.0, n_grid)
    for n in around(rows):
        x = np.random.default_rng(n).standard_t(3, max(n, 2))
        x[: n // 3] = grid[np.arange(n // 3) % n_grid]  # samples on grid nodes
        x[-1] = grid[-1]
        assert x.size * n_grid <= int(2e7)  # the exact path
        assert_same_bytes(kde_gaussian(x, grid).values, old_kde_exact(x, grid))


EXACT_PATH_CFG = """
[run]
seed = 91
out_dir = {out}

[model]
mu = 1.6
alpha = 1.2
sigma0 = 0.1
k_mode = pareto

[simulate]
n_firms = 3000
n_periods = 5

[analyze]
n_bins = 5
panel = {out}/panel.csv
"""


def test_analyze_density_on_the_exact_path_matches_whole_array(tmp_path):
    out, cfg = tmp_path / "out", tmp_path / "config.ini"
    cfg.write_text(EXACT_PATH_CFG.format(out=out))
    assert main(["--config", str(cfg), "simulate"]) == 0
    assert main(["--config", str(cfg), "analyze"]) == 0
    density = out / "rescaled_vol_density.csv"
    pooled = np.loadtxt(out / "collapse.csv", delimiter=",", skiprows=1, usecols=1)
    grid = np.loadtxt(density, delimiter=",", skiprows=1, usecols=0)
    assert pooled.size * grid.size <= int(2e7)   # the exact path,
    assert pooled.size > 10 * (_BLOCK // grid.size)  # in many blocks
    write_table_csv(tmp_path / "old.csv", ["x", "density"], [grid, old_kde_exact(pooled, grid)])
    assert density.read_bytes() == (tmp_path / "old.csv").read_bytes()


# ---------------------------------------------------------------------------
# MIG likelihood: one reused work array
# ---------------------------------------------------------------------------

THETAS = [
    (4.788, 4.620, 0.326),
    (2.5, 0.7, 0.0),
    (0.5, 3.0, 0.2),
    (1e-6, 200.0, 1.0),      # the lower incomplete gamma underflows: inf
    (np.nan, 1.0, 0.5),      # inf
    (1.0, -1.0, 0.5),        # inf
    (1.0, 1.0, -1e-300),     # inf
    (1.0, 1.0, -0.0),
    (1e306, 1e-8, 0.0),      # the sum overflows: inf
]


@pytest.mark.parametrize("n", around(_BLOCK))
def test_mig_nll_with_and_without_work_matches_old(n):
    x = mig_sample(MIG, np.random.default_rng(n).random(n))
    x_before, work = x.copy(), np.empty_like(x)
    for theta in THETAS:
        theta = np.array(theta)
        with np.errstate(over="ignore"):
            ref = np.float64(old_mig_nll(theta, x))
            assert_same_bytes(np.float64(_mig_nll(theta, x)), ref)
            assert_same_bytes(np.float64(_mig_nll(theta, x, work)), ref)
    assert_same_bytes(x, x_before)  # the temporaries went to `work`, not `x`


def test_mig_nll_zero_shifted_sample_is_inf_as_before():
    x = np.array([0.0, 1.0, 2.0] * 40)
    work = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert old_mig_nll(np.array([1.0, 1.0, 0.0]), x) == np.inf
        assert _mig_nll(np.array([1.0, 1.0, 0.0]), x, work) == np.inf


# ---------------------------------------------------------------------------
# fig5's growth draws: every uniform, then every normal, a block at a time
# ---------------------------------------------------------------------------

def generator_state(rng):
    """The bit generator's state with its arrays as lists, so states compare with ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("n", around(_BLOCK))
def test_fig5_draws_match_whole_array(n):
    rng, ref_rng = _rng(n), _rng(n)
    assert_same_bytes(_mig_growths(rng, MIG, n), old_fig5_draws(ref_rng, MIG, n))
    assert generator_state(rng) == generator_state(ref_rng)


def test_laplace_sum_tables_do_not_depend_on_the_block(monkeypatch):
    def run(block):
        monkeypatch.setattr(xp, "_BLOCK", block)
        return xp.run_laplace_sum(n_sums=200_000, k_values=(2, 4))

    # 4e7 elements is the one block the old rule gave at these sizes; 1001 leaves a short last one
    whole, blocked = run(int(4e7)), run(1001)
    assert blocked.tables == whole.tables
    assert [c.value for c in blocked.checks] == [c.value for c in whole.checks]


# ---------------------------------------------------------------------------
# simulate_panel: the shock step in place, _BLOCK // 4 uniforms at a time
# ---------------------------------------------------------------------------

def old_counts(params, n_firms, seed):
    """Each firm's sub-unit count, and 1 if its count is word 0 of its stream, else 0."""
    if isinstance(params.k_mode, FixedCount):
        return np.full(n_firms, params.k_mode.count, dtype=np.int64), 0
    ids = np.arange(n_firms)
    u = model._philox_doubles(seed, ids, np.zeros_like(ids))[:, 0].tolist()
    return np.array([math.ceil(pareto_sample(x, 1.0, params.alpha)) for x in u]), 1


def old_simulate_panel(params, n_firms, n_periods, seed):
    """simulate_panel with one shock call over each firm block's whole uniform array."""
    ids = np.arange(n_firms)
    counts, head = old_counts(params, n_firms, seed)
    words = head + counts * n_periods
    port = (
        params.shock_law == "gaussian"
        and counts.sum() * (n_periods - 1) < model._NDTRI_PORT_SHOCKS
    )
    ends = np.cumsum(words)
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK)) + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n_firms]))).tolist()
    sizes = np.empty((n_firms, n_periods))
    clamp_count = 0
    for lo, hi in zip(bounds, bounds[1:]):
        n_blocks = (words[lo:hi] + 3) // 4
        first = np.cumsum(n_blocks) - n_blocks
        block = np.arange(first[-1] + n_blocks[-1]) - np.repeat(first, n_blocks)
        u = model._philox_doubles(seed, np.repeat(ids[lo:hi], n_blocks), block).ravel()
        eta = (
            ndtri(u) if port
            else model.shocks_from_uniforms(u, params.shock_law, params.student_dof)
        )
        groups = Groups.of(counts[lo:hi])
        by_count = zip(groups.keys.tolist(), groups.starts.tolist(), groups.counts.tolist())
        for k, start, n in by_count:
            firms = groups.order[start : start + n]
            at = (4 * first[firms] + head)[:, None] + np.arange(k * n_periods)
            s = pareto_sample(u[at[:, :k]], params.s0, params.mu)
            sizes[lo + firms, 0] = s.sum(axis=1)
            mult = 1.0 + params.sigma0 * eta[at[:, k:]].reshape(n, n_periods - 1, k)
            clamp_count += int(np.count_nonzero(mult < model._MULTIPLIER_FLOOR))
            np.maximum(mult, model._MULTIPLIER_FLOOR, out=mult)
            np.cumprod(mult, axis=1, out=mult)
            sizes[lo + firms, 1:] = np.matmul(mult, s[..., None])[..., 0]
    firm_id = np.repeat(np.arange(n_firms, dtype=np.int64), n_periods)
    period = np.tile(np.arange(n_periods, dtype=np.int64), n_firms)
    return Panel(firm_id, period, sizes.ravel()), clamp_count


def sim_params(k_mode, law="gaussian"):
    # sigma0 large enough that some multipliers are floored
    return ModelParams(
        mu=1.6, alpha=1.2, sigma0=0.45, k_mode=k_mode, shock_law=law, student_dof=4.0
    )


# (k_mode, n_firms, n_periods, seed): each run spans several shock chunks of _BLOCK // 4
# words and several firm blocks
PANELS = [
    (FixedCount(5000), 3, 40, 17),    # 200,000 words a firm: each firm a block of its own
    (FixedCount(7), 2000, 20, 17),    # 140 words a firm: blocks and chunks cut between firms
    (ParetoCount(), 1500, 28, 2),     # one firm of 137,341 words among small ones
]


def test_the_simulated_panels_hold_a_firm_larger_than_a_block():
    largest = []
    for k_mode, n_firms, n_periods, seed in PANELS:
        counts, head = old_counts(sim_params(k_mode), n_firms, seed)
        largest.append(int((head + counts * n_periods).max()))
    assert largest == [200_000, 140, 137_341] and _BLOCK < 137_341


@pytest.mark.parametrize("law, limit", [
    ("gaussian", 0),        # SciPy's ndtri
    ("gaussian", 2**62),    # the NumPy port
    ("laplace", 0),
    ("student_t", 0),
])
@pytest.mark.parametrize("k_mode, n_firms, n_periods, seed", PANELS)
def test_simulate_panel_matches_whole_block_shocks(
    monkeypatch, law, limit, k_mode, n_firms, n_periods, seed
):
    monkeypatch.setattr(model, "_NDTRI_PORT_SHOCKS", limit)
    params = sim_params(k_mode, law)
    panel, clamp_count = simulate_panel(params, n_firms, n_periods, seed)
    ref, ref_clamp_count = old_simulate_panel(params, n_firms, n_periods, seed)
    assert_same_bytes(panel.firm_id, ref.firm_id)
    assert_same_bytes(panel.period, ref.period)
    assert_same_bytes(panel.size, ref.size)
    assert clamp_count == ref_clamp_count > 0


# ---------------------------------------------------------------------------
# firm_size_volatility: blocks of whole firms, about _BLOCK // 4 rows each
# ---------------------------------------------------------------------------

def old_firm_size_volatility(firm_id, period, size):
    """firm_size_volatility with the lag pairing, growths and reductions over the whole panel."""
    firm_id, period, size = map(np.asarray, (firm_id, period, size))
    firms = firm_groups(firm_id, period)
    later = firms.lag_pairs(period, 1)
    paired = later >= 0
    growth = np.zeros(size.size)
    growth[paired] = size[later[paired]] / size[paired] - 1.0
    rated = firms.rows(paired)
    kept = rated.counts >= 2
    mean_sizes = firms.select(kept).reduce(size, lambda rows: rows.mean(axis=-1))
    vols = rated.select(kept).reduce(growth, mad_volatility)
    return mean_sizes, vols, firms.keys.size - np.count_nonzero(kept)


def gapped_panel(n_firms, long_firm, seed):
    """Firms of 1 to 11 rows with gaps in their periods, ties in their sizes, unsorted ids,
    and one firm of `long_firm` consecutive periods; rows sorted by (firm, period)."""
    rng = np.random.default_rng(seed)
    lengths = np.append(rng.integers(1, 12, n_firms), long_firm)
    rng.shuffle(lengths)
    ids = rng.choice(10**9, lengths.size, replace=False)
    periods = [
        np.arange(n) if n == long_firm else np.sort(rng.choice(2 * n + 1, n, replace=False))
        for n in lengths
    ]
    size = rng.lognormal(3.0, 1.5, lengths.sum())
    size[::5] = np.ceil(size[::5])  # equal sizes, so some growths are 0 and some tie
    return np.repeat(ids, lengths), np.concatenate(periods) - 3, size


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
@pytest.mark.parametrize("n_firms, long_firm", [
    (30_000, _BLOCK + 3),        # about 6 blocks of firms and one firm longer than a block
    (5_000, _BLOCK // 4),         # one firm exactly a block long
    (3, 2),                       # fewer rows than a block
])
def test_firm_size_volatility_matches_whole_panel(order, n_firms, long_firm):
    firm_id, period, size = gapped_panel(n_firms, long_firm, n_firms)
    rows = {
        "sorted": np.arange(size.size),
        "reversed": np.arange(size.size)[::-1],
        "shuffled": np.random.default_rng(1).permutation(size.size),
    }[order]
    args = firm_id[rows], period[rows], size[rows]
    mean_sizes, vols, dropped = firm_size_volatility(*args)
    ref_means, ref_vols, ref_dropped = old_firm_size_volatility(*args)
    assert_same_bytes(mean_sizes, ref_means)
    assert_same_bytes(vols, ref_vols)
    assert dropped == ref_dropped
    assert dropped > 0 and vols.size > 0


def test_firm_size_volatility_of_no_rows_matches_whole_panel():
    empty = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    for got, want in zip(firm_size_volatility(*empty), old_firm_size_volatility(*empty)):
        assert_same_bytes(got, want)

"""Grouped by-firm and by-bin reductions against the loops they replaced.

Each ``loop_*`` function below is the earlier implementation, which masked
the whole panel once per firm (or once per size bin).  The grouped code must reproduce it byte for
byte (``tobytes()`` / ``repr``) on gap-free inputs: unsorted rows, ragged
firms, firms with one or two rows, and string keys.
"""

import numpy as np
import pytest

from firmgrowth.analysis import (
    binned_volatility_moments,
    equal_count_bins,
    loglog_ols,
    rescale_collapse,
    upper_window_edges,
)
from firmgrowth.estimation import (
    _ADJ,
    firm_size_volatility,
    leave_one_out_rescale,
    mad_volatility,
)
from firmgrowth.experiments import _upper_window_moment_slopes
from firmgrowth.groups import Groups
from firmgrowth.model import FirmPopulation, Panel, fraction_few_subunits
from firmgrowth.panel import (
    _stat_row,
    annual_log_growth,
    descriptive_stats,
    filter_firms,
    normalize_by_year,
)


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------

def loop_firm_stats(firm_id, period, size):
    order = np.lexsort((period, firm_id))
    fid, per, siz = firm_id[order], period[order], size[order]
    sizes_mean, vols = [], []
    dropped = 0
    for firm in np.unique(fid):
        m = fid == firm
        s = siz[m][np.argsort(per[m])]
        if s.size < 3:
            dropped += 1
            continue
        growth = s[1:] / s[:-1] - 1.0
        sizes_mean.append(s.mean())
        vols.append(mad_volatility(growth))
    return np.array(sizes_mean), np.array(vols), dropped


def loop_normalize_by_year(panel):
    sizes = panel.size.copy()
    year = panel.period // 4
    for y in np.unique(year):
        m = year == y
        total = sizes[m].sum()
        if total <= 0:
            raise ValueError(f"year {y} has non-positive total size")
        sizes[m] = m.sum() * sizes[m] / total
    return sizes


def loop_filter_firms(panel, min_growth_obs=2, fiscal_december_only=False):
    growths = annual_log_growth(panel)
    g_firms, g_counts = np.unique(growths.firm_id, return_counts=True)
    count_by_firm = dict(zip(g_firms.tolist(), g_counts.tolist()))

    exclusion_log = {}
    keep_firms = set()
    for firm in np.unique(panel.firm_id).tolist():
        if fiscal_december_only:
            months = panel.fiscal_year_end_month[panel.firm_id == firm]
            if not np.all(months == 12):
                exclusion_log[firm] = "fiscal_year_not_december"
                continue
        if count_by_firm.get(firm, 0) < min_growth_obs:
            exclusion_log[firm] = "too_few_growth_rates"
            continue
        keep_firms.add(firm)

    mask = np.isin(panel.firm_id, sorted(keep_firms))
    return panel.select(mask), exclusion_log


def loop_descriptive_stats(panel):
    growths = annual_log_growth(panel)
    rows = [
        _stat_row("size", panel.size),
        _stat_row("growth_rate", growths.growth),
    ]
    vols = []
    counts = []
    for firm in np.unique(growths.firm_id):
        g = growths.growth[growths.firm_id == firm]
        counts.append(g.size)
        if g.size >= 2:
            vols.append(mad_volatility(g))
    rows.append(_stat_row("growth_volatility_mad", vols))
    rows.append(_stat_row("n_growth_rates_per_firm", counts))
    return rows


def rank_split(keys, n_bins):
    """Each key's equal-count bin: a stable argsort cut into n_bins runs."""
    order = np.argsort(keys, kind="stable")
    assign = np.empty(keys.size, dtype=np.int64)
    for b, group in enumerate(np.array_split(order, n_bins)):
        assign[group] = b
    return assign


def loop_binned_volatility_moments(sizes, vols, q_list, n_bins):
    assign = rank_split(sizes, n_bins)
    mean_size, n_firms, moments = [], [], {q: [] for q in q_list}
    for b in range(n_bins):
        m = assign == b
        v = vols[m]
        mean_size.append(sizes[m].mean())
        n_firms.append(int(m.sum()))
        for q in q_list:
            moments[q].append((v**q).mean())
    return np.array(mean_size), np.array(n_firms), {q: np.array(m) for q, m in moments.items()}


def loop_fraction_few_subunits(population, edges, k_threshold):
    sizes = population.sizes()
    few = population.counts <= int(k_threshold)
    idx = np.digitize(sizes, edges) - 1
    n_bins = edges.size - 1
    mean_size = np.full(n_bins, np.nan)
    fraction = np.full(n_bins, np.nan)
    n_firms = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        m = idx == b
        n = int(m.sum())
        n_firms[b] = n
        if n:
            mean_size[b] = sizes[m].mean()
            fraction[b] = few[m].mean()
    return mean_size, fraction, n_firms


def loop_upper_window_moment_slopes(sizes, vols, q_list, lo, trim, n_bins, min_count):
    idx = np.digitize(sizes, upper_window_edges(sizes, lo, trim, n_bins))
    out = {}
    for q in q_list:
        ms, mv = [], []
        for b in range(1, n_bins + 1):
            m = idx == b
            if m.sum() < min_count:
                continue
            ms.append(sizes[m].mean())
            mv.append((vols[m] ** q).mean())
        out[q] = loglog_ols(np.array(ms), np.array(mv))
    return out


def loop_leave_one_out_rescale(series):
    g = np.asarray(series, dtype=float)
    n = g.size
    loo_mean = (g.sum() - g) / (n - 1)
    srt = np.sort(g)
    pref = np.concatenate(([0.0], np.cumsum(srt)))
    below = np.searchsorted(srt, loo_mean, side="right")
    abs_sum = (
        loo_mean * below - pref[below] + (pref[n] - pref[below]) - loo_mean * (n - below)
    )
    own = np.abs(g - loo_mean)
    mad = _ADJ * (abs_sum - own) / (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mad > 0, (g - loo_mean) / mad, np.nan)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def ragged_lengths(rng, n_firms):
    # every length from 1 to 40, so firms with one and two rows occur and
    # pairwise summation (8 accumulators from 8 terms on) is exercised
    return np.concatenate((np.arange(1, 41), rng.integers(1, 41, n_firms - 40)))


def firm_panel(seed, string_keys=False, n_firms=300):
    """Gap-free (firm_id, period, size) rows, ragged, in shuffled order."""
    rng = np.random.default_rng(seed)
    lengths = ragged_lengths(rng, n_firms)
    ids = rng.choice(10**6, n_firms, replace=False)
    firm_id = np.repeat(ids, lengths)
    start = np.repeat(rng.integers(0, 5, n_firms), lengths)
    period = start + np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    size = np.exp(rng.normal(0.0, 2.0, period.size))
    if string_keys:
        firm_id = np.array([f"g{i:07d}" for i in firm_id.tolist()])
    shuffle = rng.permutation(period.size)
    return firm_id[shuffle], period[shuffle], size[shuffle]


def quarterly_panel(seed, n_firms=300):
    """String-keyed quarterly rows: ragged, shuffled, some non-December firms."""
    rng = np.random.default_rng(seed)
    lengths = ragged_lengths(rng, n_firms)
    firm = np.repeat(np.arange(n_firms), lengths)
    t = np.repeat(rng.integers(0, 8, n_firms), lengths)
    t = t + np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    fyr = np.where(rng.random(n_firms) < 0.2, 6, 12)
    shuffle = rng.permutation(t.size)
    firm, t = firm[shuffle], t[shuffle]
    return Panel(
        firm_id=np.array([f"F{f:05d}" for f in firm.tolist()]),
        period=4 * 2000 + t,
        size=np.exp(rng.normal(0.0, 1.5, t.size)),
        fiscal_year_end_month=fyr[firm],
    )


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Oracle tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("string_keys", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_firm_size_volatility_matches_loop(seed, string_keys):
    firm_id, period, size = firm_panel(seed, string_keys)
    sizes, vols, dropped = firm_size_volatility(firm_id, period, size)
    ref_sizes, ref_vols, ref_dropped = loop_firm_stats(firm_id, period, size)
    assert_same_array(sizes, ref_sizes)
    assert_same_array(vols, ref_vols)
    assert dropped == ref_dropped > 0


def test_firm_size_volatility_equal_lengths_matches_loop():
    # the simulated-panel shape: every firm has the same number of periods
    rng = np.random.default_rng(2)
    firm_id = np.repeat(np.arange(500), 8)
    period = np.tile(np.arange(8), 500)
    size = np.exp(rng.normal(0.0, 2.0, firm_id.size))
    got = firm_size_volatility(firm_id, period, size)
    ref = loop_firm_stats(firm_id, period, size)
    assert_same_array(got[0], ref[0])
    assert_same_array(got[1], ref[1])
    assert got[2] == ref[2] == 0


@pytest.mark.parametrize("fiscal_december_only", [False, True])
@pytest.mark.parametrize("min_growth_obs", [1, 2, 10])
def test_filter_firms_matches_loop(min_growth_obs, fiscal_december_only):
    panel = quarterly_panel(3)
    kept, growths, log = filter_firms(panel, min_growth_obs, fiscal_december_only)
    ref_kept, ref_log = loop_filter_firms(panel, min_growth_obs, fiscal_december_only)
    for column in ("firm_id", "period", "size", "fiscal_year_end_month"):
        assert_same_array(getattr(kept, column), getattr(ref_kept, column))
    assert repr(log) == repr(ref_log)
    assert log
    # the selected growth records are those of the filtered panel
    ref_growths = annual_log_growth(ref_kept)
    for column in ("firm_id", "period", "growth"):
        assert_same_array(getattr(growths, column), getattr(ref_growths, column))


@pytest.mark.parametrize("seed", [4, 5])
def test_normalize_by_year_matches_loop(seed):
    panel = quarterly_panel(seed)
    # one more row alone in its year, placed mid-panel
    at = panel.size.size // 2
    panel = Panel(
        firm_id=np.insert(panel.firm_id, at, "F99999"),
        period=np.insert(panel.period, at, 4 * 1990 + 2),
        size=np.insert(panel.size, at, 3.25),
        fiscal_year_end_month=np.insert(panel.fiscal_year_end_month, at, 12),
    )
    assert np.count_nonzero(panel.period // 4 == 1990) == 1
    assert np.any(np.diff(panel.period) < 0)
    assert_same_array(normalize_by_year(panel).size, loop_normalize_by_year(panel))


@pytest.mark.parametrize("seed", [4, 5])
def test_descriptive_stats_matches_loop(seed):
    panel = quarterly_panel(seed)
    assert repr(descriptive_stats(panel, annual_log_growth(panel))) == repr(
        loop_descriptive_stats(panel)
    )


@pytest.mark.parametrize("n_bins", [1, 7, 25, 3001])
def test_size_bins_match_mask_loop(n_bins):
    # unsorted sizes with runs of ties, so stable order within a bin matters
    rng = np.random.default_rng(8)
    sizes = np.round(np.exp(rng.normal(0.0, 2.0, 3001)), 1)
    vols = np.exp(rng.normal(-2.0, 1.0, sizes.size))
    check_size_bins(sizes, vols, n_bins)


@pytest.mark.parametrize("n_bins", [1, 7, 60])
def test_size_bins_with_nan_keys_match_mask_loop(n_bins):
    # NaN sizes rank last, in input order
    rng = np.random.default_rng(9)
    sizes = np.round(np.exp(rng.normal(0.0, 2.0, 60)), 1)
    sizes[rng.choice(sizes.size, 8, replace=False)] = np.nan
    check_size_bins(sizes, np.exp(rng.normal(-2.0, 1.0, sizes.size)), n_bins)


def check_size_bins(sizes, vols, n_bins):
    bins = equal_count_bins(sizes, n_bins)
    # the binning is the grouping of the rank split
    ref = Groups.of(rank_split(sizes, n_bins))
    for field in ("keys", "order", "starts", "counts"):
        assert_same_array(getattr(bins, field), getattr(ref, field))
    mean_size, moments = binned_volatility_moments(bins, sizes, vols, [1, 2, 3, 4])
    ref_size, ref_n, ref_moments = loop_binned_volatility_moments(sizes, vols, [1, 2, 3, 4], n_bins)
    assert_same_array(mean_size, ref_size)
    assert_same_array(bins.counts, ref_n)
    assert list(moments) == list(ref_moments)
    for q in moments:
        assert_same_array(moments[q], ref_moments[q])
    # the collapse's per-bin arrays, and each divided by its mean
    assign = rank_split(sizes, n_bins)
    per_bin = bins.split(vols)
    assert len(per_bin) == n_bins
    for b, (v, r) in enumerate(zip(per_bin, rescale_collapse(bins, vols))):
        assert_same_array(v, vols[assign == b])
        assert_same_array(r, v / v.mean())


def tied_population(seed, n_firms=20_000):
    """Unsorted firms of 1 to 6 sub-units, with runs of tied sizes."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 7, n_firms)
    sub_units = np.round(np.exp(rng.normal(0.0, 1.5, counts.sum())), 1) + 1.0
    return FirmPopulation(sub_units, counts)


@pytest.mark.parametrize("edges, empty_bins", [
    ([2.0, 5.0, 10.0, 40.0, 200.0], 0),
    # edges beyond the largest size
    ([1.5, 1.6, 1.7, 3.0, 1e6, 2e6], 1),
    ([1e6, 2e6, 3e6], 2),
])
def test_fraction_few_subunits_matches_loop(edges, empty_bins):
    population = tied_population(9)
    edges = np.asarray(edges)
    got = fraction_few_subunits(population, edges, 2)
    ref = loop_fraction_few_subunits(population, edges, 2)
    for a, b in zip(got, ref):
        assert_same_array(a, b)
    assert (ref[2] == 0).sum() == empty_bins


def test_upper_window_moment_slopes_match_loop():
    population = tied_population(10, n_firms=60_000)
    sizes = population.sizes()
    vols = np.exp(np.random.default_rng(11).normal(-2.0, 0.5, sizes.size))
    args = ([2, 3, 4], 5.0, 0.2, 12, 400)
    got = _upper_window_moment_slopes(sizes, vols, *args)
    ref = loop_upper_window_moment_slopes(sizes, vols, *args)
    assert repr(got) == repr(ref)
    assert len(np.unique([fit.slope for fit in got.values()])) == 3


def test_leave_one_out_rows_match_loop():
    rng = np.random.default_rng(6)
    growth = rng.standard_normal((500, 27)) * 10 ** rng.uniform(-2, 1, (500, 1))
    growth[:20] = np.round(growth[:20], 1)   # ties between values and means
    growth[20, :] = 0.0                      # every leave-one-out MAD zero
    growth[21, 1:] = 0.0                     # all but one zero
    ref = np.stack([loop_leave_one_out_rescale(row) for row in growth])
    assert_same_array(leave_one_out_rescale(growth), ref)
    assert_same_array(leave_one_out_rescale(growth[7]), ref[7])


def test_mad_volatility_rows_match_loop():
    rng = np.random.default_rng(7)
    for length in (2, 7, 8, 9, 17, 40):
        g = rng.standard_normal((50, length))
        ref = np.array([mad_volatility(row) for row in g])
        assert_same_array(mad_volatility(g), ref)


def test_groups_layout():
    groups = Groups.of(np.array(["b", "a", "c", "a", "b", "a"]))
    assert groups.keys.tolist() == ["a", "b", "c"]
    assert groups.counts.tolist() == [3, 2, 1]
    assert groups.order.tolist() == [1, 3, 5, 0, 4, 2]
    values = np.arange(6.0)
    assert groups.reduce(values, lambda rows: rows.sum(axis=-1)).tolist() == [9.0, 4.0, 2.0]
    two = groups.select(groups.counts >= 2)
    assert two.reduce(values, lambda rows: rows[:, -1]).tolist() == [5.0, 4.0]
    assert [part.tolist() for part in two.split(values)] == [[1.0, 3.0, 5.0], [0.0, 4.0]]
    empty = Groups.of(np.array([], dtype=np.int64))
    assert empty.keys.size == 0 and empty.reduce([], np.sum).size == 0
    assert empty.split([]) == []


def test_split_after_select_matches_masks():
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 40, 5000)
    values = rng.standard_normal(keys.size)
    groups = Groups.of(keys)
    chosen = groups.select(groups.keys % 3 == 0)
    parts = chosen.split(values)
    assert len(parts) == chosen.keys.size == 14
    for key, part in zip(chosen.keys, parts):
        assert_same_array(part, values[keys == key])


def test_reduce_after_select_matches_groups_of_those_rows():
    rng = np.random.default_rng(13)
    keys = rng.integers(0, 60, 4000)
    values = rng.standard_normal(keys.size)
    groups = Groups.of(keys)
    chosen = groups.select(groups.keys % 4 == 1)
    rows = np.isin(keys, chosen.keys)
    alone = Groups.of(keys[rows])
    for rowwise in (mad_volatility, lambda block: block.sum(axis=-1)):
        got = chosen.reduce(values, rowwise)
        assert got.tobytes() == alone.reduce(values[rows], rowwise).tobytes()

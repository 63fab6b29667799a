"""Grouped by-firm and by-bin reductions against the loops they replaced.

Each ``loop_*`` function below is the earlier implementation, which masked
the whole panel once per firm (or once per size bin).  The grouped code must reproduce it byte for
byte (``tobytes()`` / ``repr``) on gap-free inputs: unsorted rows, ragged
firms, firms with one or two rows, and string keys.  ``loop_ingest_csv`` is
the row-at-a-time ``csv.DictReader`` parse that the columnar, chunked
``ingest_csv`` replaced: same columns on well-formed exports, same
``ValueError`` text on malformed ones.  ``loop_annual_log_growth`` looks up
each row's (firm, period + 4) in a dict, with Python ints, so it holds on
gapped panels and at periods where int64 arithmetic would wrap.
"""

import csv
import re
from dataclasses import replace

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
from firmgrowth import panel as panel_module
from firmgrowth.cli import main
from firmgrowth.experiments import _upper_window_moment_slopes
from firmgrowth.groups import Groups
from firmgrowth.model import FirmPopulation, Panel, fraction_few_subunits
from firmgrowth.panel import (
    _INGEST_CHUNK,
    DEFAULT_SCHEMA,
    _stat_row,
    GrowthRecords,
    descriptive_stats,
    filter_firms,
    normalize_by_year,
)
from firmgrowth.panel import ingest_csv as ingest_coded


def annual_log_growth(panel):
    """Every firm's growth records: :func:`filter_firms` with no minimum drops no firm."""
    return filter_firms(panel, 0)[1]


def ingest_csv(path, schema=None):
    """`panel.ingest_csv`'s panel with each firm's rank code decoded back to its id."""
    ids, panel = ingest_coded(path, schema)
    return replace(panel, firm_id=ids[panel.firm_id])


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


def loop_annual_log_growth(panel):
    """Each row's record, by a dict lookup of its firm's row four quarters on."""
    keys = list(zip(panel.firm_id.tolist(), panel.period.tolist()))
    row_of = {}
    for row, key in enumerate(keys):
        if key in row_of:
            raise ValueError(
                f"row {row + 1}: duplicate rows for firm_id {key[0]}, period {key[1]}"
                f" (first seen at row {row_of[key] + 1})"
            )
        row_of[key] = row
    pairs = [(row, row_of[f, p + 4]) for row, (f, p) in enumerate(keys) if (f, p + 4) in row_of]
    base, later = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    growth = np.log(panel.size[later]) - np.log(panel.size[base])
    return panel.firm_id[base], panel.period[base], growth


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
    firm_of_growth, _, _ = loop_annual_log_growth(panel)
    g_firms, g_counts = np.unique(firm_of_growth, return_counts=True)
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
    growths = GrowthRecords(*loop_annual_log_growth(panel))
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


def loop_ingest_csv(path, schema=None):
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    fiscal_col = schema.get("fiscal_year_end_month")
    firm_ids, periods, sizes, months = [], [], [], []
    seen = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for logical in ("firm_id", "year", "quarter", "size"):
            col = schema.get(logical)
            if col is None:
                raise ValueError(f"schema is missing the {logical!r} column mapping")
            if col not in header:
                raise ValueError(f"missing column {col!r} (for {logical}) in {path}")
        if fiscal_col is not None and fiscal_col not in header:
            raise ValueError(f"missing column {fiscal_col!r} (for fiscal_year_end_month) in {path}")

        for row_no, row in enumerate(reader, start=1):
            firm = row[schema["firm_id"]].strip()
            if not firm:
                raise ValueError(f"row {row_no}: empty firm id")
            try:
                year = int(row[schema["year"]])
                quarter = int(row[schema["quarter"]])
            except (TypeError, ValueError):
                raise ValueError(f"row {row_no}: non-integer year/quarter") from None
            if not 1 <= quarter <= 4:
                raise ValueError(f"row {row_no}: quarter {quarter} outside 1..4")
            try:
                size = float(row[schema["size"]])
            except (TypeError, ValueError):
                raise ValueError(
                    f"row {row_no}: non-numeric size {row[schema['size']]!r}"
                ) from None
            if not size > 0 or not np.isfinite(size):
                raise ValueError(f"row {row_no}: non-positive size {size!r}")
            fiscal = -1
            if fiscal_col is not None and (row[fiscal_col] or "").strip():
                try:
                    fiscal = int(row[fiscal_col])
                except ValueError:
                    raise ValueError(
                        f"row {row_no}: non-integer fiscal month {row[fiscal_col]!r}"
                    ) from None
                if not 1 <= fiscal <= 12:
                    raise ValueError(f"row {row_no}: fiscal month {fiscal} outside 1..12")
            key = (firm, year, quarter)
            if key in seen:
                raise ValueError(
                    f"row {row_no}: duplicate observation for {key} (first seen at row {seen[key]})"
                )
            seen[key] = row_no
            firm_ids.append(firm)
            periods.append(4 * year + quarter - 1)
            sizes.append(size)
            months.append(fiscal)
    for firm in dict.fromkeys(firm_ids):
        if any(c in firm for c in ',"\r\n\x00'):
            raise ValueError(
                f"row {firm_ids.index(firm) + 1}: firm id {firm!r} holds a comma, a double quote,"
                " a line break or a NUL"
            )
    return Panel(firm_ids, periods, sizes, months)


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


def gapped_panel(seed, offset=0, far=0):
    """A shuffled ragged :func:`quarterly_panel` with about one row in five
    dropped and its periods moved by `offset`.  With `far`, the first row's
    firm moves on until its last period lies `far` above the panel's first."""
    panel = quarterly_panel(seed)
    keep = np.random.default_rng(seed).random(len(panel)) < 0.8
    firm_id, period = panel.firm_id[keep], panel.period[keep] + offset
    if far:
        moved = firm_id == firm_id[0]
        period[moved] += period.min() + far - period[moved].max()
    return Panel(firm_id, period, panel.size[keep], panel.fiscal_year_end_month[keep])


# an export with renamed columns, where `fyr` is repeated and its last column
# is the one read (a decoy fills the first)
EXPORT_SCHEMA = {"firm_id": "gvkey", "year": "fyearq", "quarter": "fqtr", "size": "atq",
                 "fiscal_year_end_month": "fyr"}
EXPORT_HEADER = ["gvkey", "fyr", "fyearq", "fqtr", "atq", "datadate", "fyr"]


def export_rows(seed, n_firms, shuffle=True):
    """Fields of a well-formed export, one list per row: ragged firms with
    zero-padded string ids, ``int()`` spellings such as ``" 7 "`` and ``+3``,
    unknown months (empty, blank or cut off by a short row) and extra
    trailing fields."""
    rng = np.random.default_rng(seed)
    lengths = ragged_lengths(rng, n_firms)
    ids = rng.choice(10**6, n_firms, replace=False)
    month = rng.choice(["12", "6", " 7 ", "+3", "09", "", "  "], n_firms)
    rows = []
    for firm in range(n_firms):
        start = int(rng.integers(0, 8))
        for t in range(start, start + lengths[firm]):
            year, quarter = 2000 + t // 4, t % 4 + 1
            rows.append([
                f"{ids[firm]:06d}" if rng.random() > 0.1 else f" {ids[firm]:06d} ",
                "decoy",
                str(year) if rng.random() > 0.1 else f" {year} ",
                str(quarter) if rng.random() > 0.1 else f"+{quarter}",
                repr(float(np.exp(rng.normal(3.0, 2.0)))) if rng.random() > 0.1 else " 2.5e1",
                f"{year}0331",
                str(month[firm]),
            ])
            if rng.random() < 0.05:
                rows[-1] = rows[-1][:6]  # ends before the month
            elif rng.random() < 0.05:
                rows[-1] += ["extra", ""]
    order = rng.permutation(len(rows)) if shuffle else np.arange(len(rows))
    return [rows[i] for i in order.tolist()]


def write_export(path, rows, blank_every=0):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EXPORT_HEADER)
        for i, row in enumerate(rows, start=1):
            writer.writerow(row)
            if blank_every and i % blank_every == 0:
                fh.write("\n")  # skipped, and not numbered
    return path


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
@pytest.mark.parametrize("min_growth_obs", [0, 1, 2, 10])
def test_filter_firms_matches_loop(min_growth_obs, fiscal_december_only):
    panel = quarterly_panel(3)
    kept, growths, log = filter_firms(panel, min_growth_obs, fiscal_december_only)
    ref_kept, ref_log = loop_filter_firms(panel, min_growth_obs, fiscal_december_only)
    for column in ("firm_id", "period", "size", "fiscal_year_end_month"):
        assert_same_array(getattr(kept, column), getattr(ref_kept, column))
    assert repr(log) == repr(ref_log)
    assert bool(log) == ((min_growth_obs, fiscal_december_only) != (0, False))  # 0 drops none
    # the selected growth records are those of the filtered panel
    ref_growths = GrowthRecords(*loop_annual_log_growth(ref_kept))
    for column in ("firm_id", "period", "growth"):
        assert_same_array(getattr(growths, column), getattr(ref_growths, column))


def renamed_firms(panel, ids):
    """`panel` with its i-th firm, in ascending id order, renamed ``ids[i]``."""
    _, firm = np.unique(panel.firm_id, return_inverse=True)
    return Panel(ids[firm], panel.period, panel.size, panel.fiscal_year_end_month)


def few_row_firms():
    """String ids: "a" has one row and no growth rate, "b" only non-December rows, "c" a
    non-December month among December ones and "d" only December rows."""
    firm = np.array(["d"] * 9 + ["b"] * 7 + ["a"] + ["c"] * 6)
    period = np.concatenate((np.arange(9), np.arange(3, 10), [4], np.arange(6)))
    months = np.array([12] * 9 + [3] * 7 + [12] + [12, 12, 12, 6, 12, 12])
    shuffle = np.random.default_rng(4).permutation(firm.size)
    size = np.exp(np.random.default_rng(5).normal(0.0, 1.0, firm.size))
    return Panel(firm[shuffle], 4 * 2001 + period[shuffle], size, months[shuffle])


def ids_with_gaps(n):
    return np.sort(np.random.default_rng(6).choice(np.arange(-5_000, 5_000, 3), n, replace=False))


def ids_beyond_2_40(n):
    return np.sort(np.random.default_rng(7).choice(2**50, n, replace=False) - 2**49)


@pytest.mark.parametrize("fiscal_december_only", [False, True])
@pytest.mark.parametrize("min_growth_obs", [0, 1, 2, 10])
@pytest.mark.parametrize("make, dropped_span", [
    (lambda: renamed_firms(quarterly_panel(8), ids_with_gaps(300)), 0),
    # ids too far apart for any table indexed by id
    (lambda: renamed_firms(quarterly_panel(9), ids_beyond_2_40(300)), 2**40),
    (few_row_firms, None),
], ids=["int_gaps_negative", "int_beyond_2_40", "string_few_rows"])
def test_filter_firms_of_more_ids_matches_loop(make, dropped_span, min_growth_obs,
                                              fiscal_december_only):
    panel = make()
    kept, growths, log = filter_firms(panel, min_growth_obs, fiscal_december_only)
    ref_kept, ref_log = loop_filter_firms(panel, min_growth_obs, fiscal_december_only)
    assert_same_panel(kept, ref_kept)
    assert repr(log) == repr(ref_log)  # the same keys, in the same order
    ref_growths = GrowthRecords(*loop_annual_log_growth(ref_kept))
    for column in ("firm_id", "period", "growth"):
        assert_same_array(getattr(growths, column), getattr(ref_growths, column))
    if (min_growth_obs, fiscal_december_only) == (0, False):
        assert not log  # no criterion drops a firm
    elif dropped_span is not None:
        assert np.ptp(list(log)) > dropped_span
    if fiscal_december_only and min_growth_obs == 2:
        assert set(log.values()) == {"too_few_growth_rates", "fiscal_year_not_december"}


@pytest.mark.parametrize("seed, offset, far", [
    (20, 0, 0),
    (21, -4 * 3000, 0),       # negative periods
    (22, -4 * 3000, 2**62),   # periods that span 2**62
])
def test_annual_log_growth_matches_dict_loop(seed, offset, far):
    panel = gapped_panel(seed, offset, far)
    assert not far or np.ptp(panel.period) == far
    got = annual_log_growth(panel)
    ref = loop_annual_log_growth(panel)
    for column, expected in zip(("firm_id", "period", "growth"), ref):
        assert_same_array(getattr(got, column), expected)
    # a firm without gaps has one row with no successor, its last
    keys = set(zip(panel.firm_id.tolist(), panel.period.tolist()))
    assert sum((f, p + 1) not in keys for f, p in keys) > np.unique(panel.firm_id).size
    assert len(got) > 0


def test_annual_log_growth_at_the_ends_of_int64_matches_dict_loop():
    # steps between these periods wrap round int64; none may pass for four quarters
    lo, hi = -(2**63), 2**63 - 1
    panel = Panel(np.array(list("xxxxyy")), [hi, lo + 4, hi - 4, lo, lo, hi], np.arange(1.0, 7.0))
    got = annual_log_growth(panel)
    ref = loop_annual_log_growth(panel)
    for column, expected in zip(("firm_id", "period", "growth"), ref):
        assert_same_array(getattr(got, column), expected)
    assert got.period.tolist() == [hi - 4, lo]


def test_annual_log_growth_of_periods_2_62_apart():
    panel = Panel(np.array(list("aabcdee")), [0, 20, 2**62, 1, 1, 0, 4], np.arange(1.0, 8.0))
    got = annual_log_growth(panel)
    assert got.firm_id.tolist() == ["e"] and got.period.tolist() == [0]
    assert got.growth.tolist() == [np.log(7.0) - np.log(6.0)]


def test_ingest_of_years_2_60_apart_pairs_no_rows(tmp_path, capsys):
    # no two rows of a firm lie four quarters apart, so no firm keeps a growth rate
    data = tmp_path / "quarters.csv"
    data.write_text(
        "firm_id,year,quarter,size\na,0,1,1\na,6,1,1\nb,1152921504606846976,1,1\n"
        "c,0,2,2\nd,0,2,2\ne,0,1,1\ne,2,1,1\n"
    )
    out = tmp_path / "out"
    cfg = tmp_path / "config.ini"
    cfg.write_text(f"[run]\nout_dir = {out}\n\n[ingest]\ninput = {data}\nmin_growth_obs = 1\n")
    assert main(["--config", str(cfg), "ingest"]) == 1
    assert "no observations survive the filters" in capsys.readouterr().err
    assert not out.exists()


def cited_rows(message):
    """The (second, first) 1-based rows a duplicate-key error cites."""
    match = re.fullmatch(r"row (\d+): .* \(first seen at row (\d+)\)", message)
    return int(match[1]), int(match[2])


def test_every_path_cites_the_same_repeat(tmp_path):
    panel = gapped_panel(23)
    take = list(range(len(panel)))
    # copies of rows 10 and 5 far on, and two of row 250 right after row 299
    for at, of in [(900, 10), (600, 5), (301, 250), (300, 250)]:
        take.insert(at, of)
    rows = Panel(panel.firm_id[take], panel.period[take], panel.size[take])
    with pytest.raises(ValueError) as expected:
        loop_annual_log_growth(rows)
    assert cited_rows(str(expected.value)) == (301, 251)
    for path in (annual_log_growth, lambda p: firm_size_volatility(p.firm_id, p.period, p.size)):
        with pytest.raises(ValueError) as got:
            path(rows)
        assert str(got.value) == str(expected.value)
    data = tmp_path / "quarters.csv"
    year, quarter = rows.period // 4, rows.period % 4 + 1
    data.write_text("firm_id,year,quarter,size\n" + "".join(
        f"{f},{y},{q},{s!r}\n" for f, y, q, s in zip(rows.firm_id, year, quarter, rows.size.tolist())
    ))
    with pytest.raises(ValueError, match=r"duplicate observation for \(") as got:
        ingest_csv(data)
    assert cited_rows(str(got.value)) == (301, 251)


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


def assert_same_panel(a, b):
    for name in ("firm_id", "period", "size", "fiscal_year_end_month"):
        assert_same_array(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("seed, n_firms, shuffle, blank_every", [
    (0, 40, True, 7),
    (1, 600, True, 0),      # about 12,000 rows: firms span the chunks
    (2, 600, False, 1000),
])
def test_ingest_csv_matches_loop(tmp_path, seed, n_firms, shuffle, blank_every):
    rows = export_rows(seed, n_firms, shuffle)
    path = write_export(tmp_path / "export.csv", rows, blank_every)
    panel = ingest_csv(path, EXPORT_SCHEMA)
    assert_same_panel(panel, loop_ingest_csv(path, EXPORT_SCHEMA))
    if n_firms > 100:
        assert len(panel) > _INGEST_CHUNK
    assert {-1, 3, 6, 7, 9, 12} == set(panel.fiscal_year_end_month.tolist())


@pytest.mark.parametrize("text", ["", "gvkey,fyr,fyearq,fqtr,atq\n", "\n"],
                         ids=["empty", "header", "blank"])
def test_ingest_csv_of_no_rows_matches_loop(tmp_path, text):
    path = tmp_path / "export.csv"
    path.write_text(text)
    try:
        expected = loop_ingest_csv(path, EXPORT_SCHEMA)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ingest_csv(path, EXPORT_SCHEMA)
        assert str(got.value) == str(exc)
    else:
        assert_same_panel(ingest_csv(path, EXPORT_SCHEMA), expected)


def set_field(row, column, value):
    def edit(rows):
        # the last column of that name, the one read
        rows[row - 1][len(EXPORT_HEADER) - 1 - EXPORT_HEADER[::-1].index(column)] = value
    return edit


def repeat_row(row, of):
    def edit(rows):
        rows[row - 1] = rows[of - 1][:]
    return edit


# each case edits a well-formed export of about 12,000 shuffled rows; rows
# are 1-based data rows
MALFORMED = {
    "earlier_row_wins": [set_field(90, "atq", "abc"), set_field(50, "fqtr", "5")],
    "earlier_row_wins_in_later_chunk": [set_field(9050, "gvkey", " "),
                                        set_field(9000, "atq", "-1.5")],
    "first_check_of_a_row": [set_field(70, "atq", "0"), set_field(70, "fqtr", "0")],
    "error_after_row_8192": [set_field(9001, "fyr", "13")],
    "error_on_row_8193": [set_field(8193, "fyearq", "2000.0")],
    "error_on_row_8192": [set_field(8192, "fyearq", "")],
    "duplicate_before_later_error": [repeat_row(701, of=300), set_field(9000, "atq", "x")],
    "duplicate_in_the_error_chunk": [repeat_row(8300, of=8200), set_field(8400, "fqtr", "x")],
    "error_before_later_duplicate": [set_field(100, "atq", "x"), repeat_row(200, of=10)],
    "error_on_the_duplicate_row": [repeat_row(200, of=10), set_field(200, "atq", "inf")],
    "duplicate_across_chunks": [repeat_row(9100, of=5)],
    "earliest_second_row_of_repeats": [repeat_row(20, of=10), repeat_row(30, of=10),
                                       repeat_row(25, of=15)],
    "duplicate_before_bad_id": [set_field(5, "gvkey", "a,b"), repeat_row(11000, of=4)],
    "error_before_bad_id": [set_field(5, "gvkey", 'say "hi"'), set_field(11000, "atq", "x")],
    "bad_id": [set_field(9500, "gvkey", "two\nlines"), set_field(9700, "gvkey", "a,b")],
    "blank_firm_id": [set_field(30, "gvkey", "  ")],
    "fiscal_month_minus_one": [set_field(40, "fyr", "-1")],
    "fiscal_month_zero": [set_field(40, "fyr", "0")],
    "fiscal_month_word": [set_field(40, "fyr", "Dec")],
    "fiscal_month_int_rejects": [set_field(40, "fyr", "\x1c12\x1c")],
    "nan_size": [set_field(60, "atq", "nan")],
    "negative_size": [set_field(60, "atq", "-0.0")],
    "quarter_spelled_plus_five": [set_field(60, "fqtr", " +5 ")],
    "row_ends_before_size": [lambda rows: rows.__setitem__(80, rows[80][:4])],
    "row_ends_before_quarter": [lambda rows: rows.__setitem__(80, rows[80][:3])],
}


@pytest.fixture(scope="module")
def long_export():
    return export_rows(1, 600)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_ingest_csv_error_matches_loop(tmp_path, long_export, case):
    rows = [row[:] for row in long_export]
    for edit in MALFORMED[case]:
        edit(rows)
    path = write_export(tmp_path / "export.csv", rows)
    with pytest.raises(ValueError) as expected:
        loop_ingest_csv(path, EXPORT_SCHEMA)
    with pytest.raises(ValueError) as got:
        ingest_csv(path, EXPORT_SCHEMA)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("year, overflows", [
    (2**61 - 1, False), (-(2**61), False), (2**61, True), (-(2**61) - 1, True), (2**64, True),
])
def test_ingest_csv_periods_beyond_int64_match_loop(tmp_path, year, overflows):
    # 4 * year + quarter - 1 must fit an int64 for every quarter; NumPy would wrap it silently
    path = tmp_path / "export.csv"
    path.write_text(f"firm_id,year,quarter,size\na,2000,1,1.0\nb,{year},4,2.0\nb,{year},1,2.0\n")
    if overflows:
        for parse in (loop_ingest_csv, ingest_csv):
            with pytest.raises(OverflowError, match="Python int too large to convert to C long"):
                parse(path)
    else:
        assert_same_panel(ingest_csv(path), loop_ingest_csv(path))


# ---------------------------------------------------------------------------
# Plain chunks: np.loadtxt against the loop
# ---------------------------------------------------------------------------

def plain_rows(seed, n_firms):
    """:func:`export_rows` with every month present and no short row, so its
    chunks are plain text (ASCII, no double quote) that ``np.loadtxt`` reads."""
    rows = export_rows(seed, n_firms)
    for row in rows:
        if len(row) < 7:
            row.append("12")
        elif not row[6].strip():
            row[6] = "12"
    return rows


def write_lines(path, rows, ends):
    """`rows` as csv.writer writes them, each ended by its own line end in
    `ends`; a str row is written as it is."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EXPORT_HEADER) + "\n")
        for row, end in zip(rows, ends):
            if isinstance(row, str):
                fh.write(row + end)
            else:
                csv.writer(fh, lineterminator=end).writerow(row)
    return path


def respell(row, column, spell):
    def edit(rows, ends):
        fields = rows[row - 1]
        at = len(EXPORT_HEADER) - 1 - EXPORT_HEADER[::-1].index(column)
        fields[at] = spell(fields[at])
    return edit


NEXT_CHUNK = _INGEST_CHUNK + 808  # a data row in the second chunk of lines
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")  # int() reads them

# each trap first appears in the second chunk, after a chunk that np.loadtxt reads
PLAIN_TRAPS = {
    "quoted_comma_in_id": respell(NEXT_CHUNK, "gvkey", lambda v: v + ",x"),
    # the quoted id's two lines are the second chunk's last line and the third's first
    "quoted_line_break_across_chunks": respell(2 * _INGEST_CHUNK, "gvkey", lambda v: v + "\nx"),
    "quoted_id_without_a_comma": lambda rows, ends: rows.__setitem__(
        NEXT_CHUNK - 1, '"' + ",".join(rows[NEXT_CHUNK - 1]).replace(",", '",', 1)
    ),
    "year_loadtxt_reads_and_int_rejects": respell(NEXT_CHUNK, "fyearq",
                                                  lambda v: f"\x1c{v.strip()}\x1c"),
    "year_with_underscore": respell(NEXT_CHUNK, "fyearq", lambda v: f"{v[:-3]}_{v[-3:]}"),
    "year_in_arabic_indic_digits": respell(NEXT_CHUNK, "fyearq",
                                           lambda v: v.translate(ARABIC_INDIC_DIGITS)),
    "whitespace_only_line": lambda rows, ends: rows.insert(NEXT_CHUNK - 1, " \t "),
    "cr_line_ends": lambda rows, ends: ends.__setitem__(
        slice(_INGEST_CHUNK, None), ["\r"] * (len(ends) - _INGEST_CHUNK)
    ),
    "empty_fiscal_month": respell(NEXT_CHUNK, "fyr", lambda v: ""),
    "hash_in_id": respell(NEXT_CHUNK, "gvkey", lambda v: "#" + v),
    "id_beyond_the_csv_field_limit": respell(NEXT_CHUNK, "gvkey",
                                             lambda v: v.rjust(csv.field_size_limit() + 1, "0")),
    # an id that ends in NUL is another firm than the id without it, though
    # NumPy's str arrays show the two alike, so it is rejected
    "id_ending_in_nul_beside_it_without": lambda rows, ends: rows.__setitem__(
        NEXT_CHUNK - 1, [rows[NEXT_CHUNK][0].strip() + "\x00", *rows[NEXT_CHUNK][1:]]
    ),
}


@pytest.fixture(scope="module")
def plain_export():
    rows = plain_rows(5, 1000)
    assert len(rows) > 2 * _INGEST_CHUNK + 1  # three chunks of lines
    return rows


def assert_same_outcome(path):
    try:
        expected = loop_ingest_csv(path, EXPORT_SCHEMA)
    except (ValueError, csv.Error) as exc:
        with pytest.raises(type(exc)) as got:
            ingest_csv(path, EXPORT_SCHEMA)
        assert str(got.value) == str(exc)
    else:
        assert_same_panel(ingest_csv(path, EXPORT_SCHEMA), expected)


def test_plain_ingest_matches_loop(tmp_path, plain_export):
    path = write_lines(tmp_path / "export.csv", plain_export, ["\n"] * len(plain_export))
    assert_same_panel(ingest_csv(path, EXPORT_SCHEMA), loop_ingest_csv(path, EXPORT_SCHEMA))


@pytest.mark.parametrize("case", list(PLAIN_TRAPS))
def test_plain_ingest_trap_matches_loop(tmp_path, plain_export, case):
    rows, ends = [row[:] for row in plain_export], ["\n"] * len(plain_export)
    PLAIN_TRAPS[case](rows, ends)
    assert_same_outcome(write_lines(tmp_path / "export.csv", rows, ends))


BLANK_FAULTS = {
    "duplicate_key": lambda rows, ends: rows.__setitem__(NEXT_CHUNK - 1, rows[4][:]),
    "quarter_outside_1_to_4": respell(NEXT_CHUNK, "fqtr", lambda v: "5"),
    # chunk 2 goes to csv.reader, and its duplicate is numbered after chunk 1's rows
    "duplicate_key_after_a_quoted_id": lambda rows, ends: (
        rows.__setitem__(NEXT_CHUNK - 1, rows[4][:]),
        rows.__setitem__(NEXT_CHUNK - 2, '"' + ",".join(rows[NEXT_CHUNK - 2]).replace(",", '",', 1)),
    ),
}


@pytest.mark.parametrize("fault", list(BLANK_FAULTS))
def test_blank_lines_in_a_plain_chunk_are_not_numbered(tmp_path, monkeypatch, plain_export, fault):
    """Blank lines ended by LF, CRLF and CR in chunk 1, which np.loadtxt reads, are
    skipped and not numbered, as csv.reader's are: a fault in chunk 2 names the
    same rows as the loop does."""
    rows, ends = [row[:] for row in plain_export], ["\n"] * len(plain_export)
    BLANK_FAULTS[fault](rows, ends)
    for at, end in zip((100, 101, 2000, 5000), ("\n", "\r\n", "\r", "\r\n")):
        rows.insert(at, "")
        ends.insert(at, end)
    path = write_lines(tmp_path / "export.csv", rows, ends)
    load_plain, loaded = panel_module._load_plain, []
    monkeypatch.setattr(panel_module, "_load_plain",
                        lambda *args: loaded.append(load_plain(*args)) or loaded[-1])
    with pytest.raises(ValueError) as got:
        ingest_csv(path, EXPORT_SCHEMA)
    assert loaded[0] is not None  # chunk 1 and its blank lines went through np.loadtxt
    with pytest.raises(ValueError) as expected:
        loop_ingest_csv(path, EXPORT_SCHEMA)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"row {NEXT_CHUNK}: ")


def test_plain_chunks_skip_the_csv_reader(tmp_path, monkeypatch, plain_export):
    parse_rows, calls = panel_module._parse_rows, []

    def refuse(rows, *cols):
        raise AssertionError("a plain chunk reached the csv.reader path")

    def record(rows, *cols):
        calls.append(len(rows))
        return parse_rows(rows, *cols)

    ends = ["\n"] * len(plain_export)
    path = write_lines(tmp_path / "plain.csv", plain_export, ends)
    monkeypatch.setattr(panel_module, "_parse_rows", refuse)
    assert len(ingest_csv(path, EXPORT_SCHEMA)) == len(plain_export)
    rows = [*plain_export[:-1], 'a"b,' + ",".join(plain_export[-1][1:])]  # one double quote
    path = write_lines(tmp_path / "quoted.csv", rows, ends)
    monkeypatch.setattr(panel_module, "_parse_rows", record)
    with pytest.raises(ValueError, match="holds a comma, a double quote"):
        ingest_csv(path, EXPORT_SCHEMA)
    assert calls == [len(rows) - 2 * _INGEST_CHUNK]  # the third chunk's rows


LAST_CHUNK = 2 * _INGEST_CHUNK + 100  # a data row in the third chunk of lines

# unknown fiscal months in chunks np.loadtxt reads, with a fault or none, and the first data
# row csv.reader then parses (None: no row): only a chunk with a failing row goes there
EMPTY_MONTHS = {
    "chunk_1": ([100], None, None),
    "chunk_1_blank_and_later_chunk": ([100, 101, NEXT_CHUNK], None, None),
    "later_chunk": ([NEXT_CHUNK], None, None),
    "every_month_of_chunk_1": (list(range(1, _INGEST_CHUNK + 1)), None, None),
    "chunk_1_and_a_duplicate_in_chunk_3": (
        [100], lambda rows, ends: rows.__setitem__(LAST_CHUNK - 1, rows[99][:]), None,
    ),
    "chunk_1_and_a_month_13_in_chunk_3": (
        [100], respell(LAST_CHUNK, "fyr", lambda v: "13"), 2 * _INGEST_CHUNK + 1,
    ),
    "chunk_1_and_a_month_word_in_chunk_1": ([100], respell(200, "fyr", lambda v: "Dec"), 1),
    "chunk_1_and_a_month_beyond_int64": ([100], respell(200, "fyr", lambda v: "9" * 20), 1),
}


@pytest.mark.parametrize("case", list(EMPTY_MONTHS))
def test_empty_fiscal_months_stay_on_loadtxt(tmp_path, monkeypatch, plain_export, case):
    """A plain chunk with unknown fiscal months gives the loop's panel or error text, and
    reaches csv.reader only if a row of it fails a check."""
    empty, fault, first_parsed = EMPTY_MONTHS[case]
    rows, ends = [row[:] for row in plain_export], ["\n"] * len(plain_export)
    for i, row in enumerate(empty):
        respell(row, "fyr", lambda v: ["", "  "][i % 2])(rows, ends)
    if fault:
        fault(rows, ends)
    path = write_lines(tmp_path / "export.csv", rows, ends)
    parse_rows, parsed = panel_module._parse_rows, []
    monkeypatch.setattr(panel_module, "_parse_rows",
                        lambda rows, *cols: parsed.append(rows[0]) or parse_rows(rows, *cols))
    assert_same_outcome(path)
    assert parsed[:1] == ([] if first_parsed is None else [rows[first_parsed - 1]])


def test_a_failing_chunk_without_months_is_not_loaded_again(tmp_path, monkeypatch, plain_export):
    """Without a fiscal month column, a plain chunk whose numbers fail to load goes
    straight to csv.reader: no second typed load, and the loop's panel or error text."""
    schema = {k: v for k, v in EXPORT_SCHEMA.items() if k != "fiscal_year_end_month"}
    rows = [row[:] for row in plain_export]
    respell(100, "fyearq", lambda v: v + "x")(rows, None)
    path = write_lines(tmp_path / "export.csv", rows, ["\n"] * len(rows))
    load, usecols = panel_module.load_csv_rows, []
    monkeypatch.setattr(panel_module, "load_csv_rows",
                        lambda lines, what, **kw: usecols.append(kw["usecols"]) or load(lines, what, **kw))
    with pytest.raises(ValueError) as got:
        ingest_csv(path, schema)
    with pytest.raises(ValueError) as expected:
        loop_ingest_csv(path, schema)
    assert str(got.value) == str(expected.value) == "row 100: non-integer year/quarter"
    assert len(usecols) == 2  # chunk 1's firm ids, then its numbers once


def test_ingest_csv_codes_are_the_ranks_of_the_ids(tmp_path):
    """`ingest_csv`'s ids and codes are np.unique's of the loop's string ids, return_inverse
    included, for ids in neither first-seen, sorted, length nor numeric order; "10" and the
    non-ASCII "Zürich" first appear in chunk 2 (so csv.reader parses it and the rest) and
    "010" in chunk 3, all sorting before chunk 1's "9" and "B"."""
    first_seen = {0: ["9", "B", "a"], NEXT_CHUNK: ["10", "Zürich"], 2 * _INGEST_CHUNK + 9: ["010"]}
    firms, rows = [], []
    for i in range(3 * _INGEST_CHUNK + 100):  # one period per row, so no key repeats
        firms += first_seen.get(i, [])
        firm = firms[-1] if i in first_seen else firms[i % len(firms)]
        rows.append([firm, "decoy", str(1000 + i // 4), str(i % 4 + 1), "1.5", "", "12"])
    path = write_export(tmp_path / "export.csv", rows)
    ids, panel = ingest_coded(path, EXPORT_SCHEMA)
    loop_ids = loop_ingest_csv(path, EXPORT_SCHEMA).firm_id
    assert ids.tolist() == ["010", "10", "9", "B", "Zürich", "a"]
    assert (ids[:-1] < ids[1:]).all()
    expected_ids, expected_codes = np.unique(loop_ids, return_inverse=True)
    assert_same_array(ids, expected_ids)  # the loop's str dtype too
    assert_same_array(panel.firm_id, expected_codes)

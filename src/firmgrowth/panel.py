"""Compustat-shaped quarterly panel ingestion and preprocessing.

The pipeline stages mirror the usual empirical workflow: parse and validate a
quarterly CSV, deflate nominal values, normalize sizes within each year so
their mean is one, build rolling annual log growth rates (exactly four
quarters apart, no imputation), filter firms, and produce descriptive
statistics.  Every dropped row or firm lands in an exclusion log with a
reason code so input counts always reconcile.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice
from operator import itemgetter

import numpy as np

from firmgrowth.estimation import firm_groups, mad_volatility
from firmgrowth.groups import Groups
from firmgrowth.model import Panel, load_csv_rows, read_columns

DEFAULT_SCHEMA = {
    "firm_id": "firm_id",
    "year": "year",
    "quarter": "quarter",
    "size": "size",
    # optional: "fiscal_year_end_month": <column>
}


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

_INGEST_CHUNK = 1 << 13  # lines (or csv rows) read at once, so a long export is never held whole
# Tab, CR, LF and printable ASCII but '"': np.loadtxt splits and converts such text as
# csv.reader, int() and float() do, or raises.  UTF-8 encodes the rest of Unicode in bytes >= 128.
_PLAIN = bytes([9, 10, 13, *range(32, 127)]).replace(b'"', b"")


def ingest_csv(path, schema=None) -> tuple[np.ndarray, Panel]:
    """Parse and validate quarterly observations from a CSV file.

    `schema` maps the logical fields (firm_id, year, quarter, size, and
    optionally fiscal_year_end_month) to column names, so arbitrary exports
    work without code changes.  Rows failing validation raise ValueError with
    the 1-based data row number; duplicate (firm, year, quarter) keys, and
    firm ids that hold a comma, a double quote or a line break (the growth
    CSV writes ids unquoted) or a NUL (NumPy's str arrays drop a trailing
    one), are rejected the same way.  Returns ``(ids, panel)``: `ids` are
    the distinct firm ids in ascending order, and `panel` has one row per
    CSV row, in file order: the index of the row's id in `ids`,
    period ``4 * year + quarter - 1``, nominal sizes, and fiscal year-end
    months (-1 where unknown).  ``np.loadtxt`` parses chunks of plain lines;
    from the first other or failing chunk on, ``csv.reader`` parses the rest.
    """
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    fields = ["firm_id", "year", "quarter", "size"]
    fields += [] if schema.get("fiscal_year_end_month") is None else ["fiscal_year_end_month"]
    # each chunk's firm codes, periods, sizes and months, after those of no rows
    parts, code_of, fault = [(np.zeros(0, np.int64),) * 4], {}, None
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        for logical in fields:
            col = schema.get(logical)
            if col is None:
                raise ValueError(f"schema is missing the {logical!r} column mapping")
            if col not in header:
                raise ValueError(f"missing column {col!r} (for {logical}) in {path}")
        # a repeated name resolves to its last column, as in csv.DictReader
        where = {name: i for i, name in enumerate(header)}
        cols = [where[schema[logical]] for logical in fields]
        # plain chunks until one is not: it and the rest of the file go to csv.reader
        while (lines := list(islice(fh, _INGEST_CHUNK))) and (chunk := _load_plain(lines, *cols)):
            parts.append(_coded(chunk, code_of))
        records = filter(None, csv.reader(chain(lines, fh)))  # blank rows are not numbered
        for rows in iter(lambda: list(islice(records, _INGEST_CHUNK)), []):
            chunk = _parse_rows(rows, *cols)
            if chunk is None:
                bad, fault = _first_fault(rows, *cols)
                chunk = _parse_rows(rows[:bad], *cols)
            parts.append(_coded(chunk, code_of))
            if fault:
                break
    codes, periods, sizes, months = map(np.concatenate, zip(*parts))
    del parts  # the chunks are not held beside the joined columns
    labels = list(code_of)
    _, repeat = Groups.by_firm(codes, periods)  # over the rows before a failing one
    if repeat:
        first, second = repeat
        key = (labels[codes[first]], *year_quarter(int(periods[first])))
        raise ValueError(
            f"row {second + 1}: duplicate observation for {key} (first seen at row {first + 1})"
        )
    if fault:
        raise ValueError(f"row {len(codes) + 1}: {fault}")
    bad = [code for code, firm in enumerate(labels) if any(c in firm for c in ',"\r\n\x00')]
    if bad:
        row = int(np.flatnonzero(np.isin(codes, bad))[0])
        what = "holds a comma, a double quote, a line break or a NUL"
        raise ValueError(f"row {row + 1}: firm id {labels[codes[row]]!r} {what}")
    ids, rank = np.unique(np.array(labels), return_inverse=True)
    return ids, Panel(rank[codes], periods, sizes, months)


def _coded(chunk, code_of):
    """A parsed chunk with its firm ids as codes; `code_of` numbers each new id."""
    firm, *numbers = chunk
    inverse = slice(None)  # csv.reader's str list (NUL kept): a lookup a row beats sorting it
    if not isinstance(firm, list):  # a plain chunk's str array: a lookup per distinct id
        labels, inverse = np.unique(firm, return_inverse=True)
        firm = labels.tolist()
    codes = np.fromiter((code_of.setdefault(f, len(code_of)) for f in firm), np.int64, len(firm))
    return codes[inverse], *numbers


def _load_plain(lines, firm_col, year_col, quarter_col, size_col, fiscal_col=None):
    """What :func:`_parse_rows` gives for the csv rows of `lines`, by ``np.loadtxt``; None if
    their text is not plain, a row does not load or a row fails a check."""
    too_long = max(map(len, lines)) > csv.field_size_limit()  # csv.reader rejects a longer field
    if too_long or "".join(lines).encode().translate(None, _PLAIN):
        return None
    cols = [col for col in (year_col, quarter_col, size_col, fiscal_col) if col is not None]
    dtype = [("year", np.int64), ("quarter", np.int64), ("size", float), ("month", np.int64)]
    try:
        firm = np.strings.strip(load_csv_rows(lines, "ingest", usecols=firm_col, dtype=str))
        try:
            numbers = load_csv_rows(lines, "ingest", usecols=cols, dtype=dtype[: len(cols)])
            month = numbers["month"].copy() if fiscal_col is not None else np.full(len(firm), -1)
            known = np.full(len(firm), fiscal_col is not None)
        except ValueError:  # a month may be empty: reread months as text (other faults fail again)
            if fiscal_col is None:  # no month to reread
                raise
            numbers = load_csv_rows(lines, "ingest", usecols=cols[:3], dtype=dtype[:3])
            text = np.strings.strip(load_csv_rows(lines, "ingest", usecols=fiscal_col, dtype=str))
            month = np.where(known := text != "", text, "-1").astype(np.int64)
    except (ValueError, OverflowError):
        return None
    return _checked(firm, numbers["year"], numbers["quarter"], numbers["size"].copy(), month, known)


def _parse_rows(rows, firm_col, year_col, quarter_col, size_col, fiscal_col=None):
    """Stripped firm ids, periods, sizes and months of `rows`, or None if a row fails a check."""
    n, width = len(rows), 1 + max(firm_col, year_col, quarter_col, size_col, fiscal_col or 0)
    rows = list(rows)  # a short row is padded with empty fields in this copy only
    for j in np.flatnonzero(np.fromiter(map(len, rows), np.intp, n) < width).tolist():
        rows[j] = rows[j] + [""] * (width - len(rows[j]))
    firm = list(map(str.strip, map(itemgetter(firm_col), rows)))
    raw = [""] * n if fiscal_col is None else list(map(itemgetter(fiscal_col), rows))
    stripped = list(map(str.strip, raw))
    known = np.fromiter(map(bool, stripped), bool, n)
    try:
        year, quarter = (
            np.fromiter(map(int, map(itemgetter(col), rows)), np.int64, n)
            for col in (year_col, quarter_col)
        )
        size = np.fromiter(map(float, map(itemgetter(size_col), rows)), float, n)
        month = np.full(n, -1)
        month[known] = np.fromiter(map(int, compress(raw, stripped)), np.int64)
    except (ValueError, OverflowError):
        return None
    return _checked(firm, year, quarter, size, month, known)


def _checked(firm, year, quarter, size, month, known):
    """A chunk's firm ids, periods, sizes and months, or None if a row fails a check."""
    ok = (
        (quarter >= 1) & (quarter <= 4) & np.isfinite(size) & (size > 0)
        & (~known | (month >= 1) & (month <= 12))
        & (-(2**61) <= year) & (year < 2**61)
    )
    return None if "" in firm or not ok.all() else (firm, 4 * year + quarter - 1, size, month)


def _first_fault(rows, firm_col, year_col, quarter_col, size_col, fiscal_col=None):
    """Index of the first row of `rows` that fails a check, with that row's first failure."""
    for j, row in enumerate(rows):
        cell = dict(enumerate(row)).get  # None past the row's end, and for no column
        if not (cell(firm_col) or "").strip():
            return j, "empty firm id"
        try:
            year, quarter = int(cell(year_col)), int(cell(quarter_col))
        except (TypeError, ValueError):
            return j, "non-integer year/quarter"
        if not 1 <= quarter <= 4:
            return j, f"quarter {quarter} outside 1..4"
        try:
            size = float(cell(size_col))
        except (TypeError, ValueError):
            return j, f"non-numeric size {cell(size_col)!r}"
        if not size > 0 or not np.isfinite(size):
            return j, f"non-positive size {size!r}"
        month = cell(fiscal_col)
        if (month or "").strip():
            try:
                fiscal = int(month)
            except ValueError:
                return j, f"non-integer fiscal month {month!r}"
            if not 1 <= fiscal <= 12:
                return j, f"fiscal month {fiscal} outside 1..12"
        if not -(2**61) <= year < 2**61:
            raise OverflowError("Python int too large to convert to C long")  # as Panel says it


# ---------------------------------------------------------------------------
# Deflation and normalization
# ---------------------------------------------------------------------------

@dataclass
class DeflatorSeries:
    """Price index by (year, quarter), base period = 1."""

    index: dict = field(default_factory=dict)

    @classmethod
    def from_csv(cls, path):
        """Read year,quarter,index rows; a repeated (year, quarter) raises ValueError."""
        columns = [("year", np.int64), ("quarter", np.int64), ("index", float)]
        rows = read_columns(path, f"deflator {path}", columns).tolist()
        table, first_row = {}, {}
        for row_no, (year, quarter, value) in enumerate(rows, start=1):
            key = (year, quarter)
            if value <= 0:
                raise ValueError(f"deflator row {row_no}: non-positive index")
            if not np.isfinite(value):
                raise ValueError(f"deflator row {row_no}: non-finite index {value!r}")
            if key in first_row:
                raise ValueError(
                    f"deflator rows {first_row[key]} and {row_no} both give {key[0]}Q{key[1]}"
                )
            first_row[key] = row_no
            table[key] = value
        return cls(table)

    def lookup(self, year, quarter):
        try:
            return self.index[(int(year), int(quarter))]
        except KeyError:
            raise ValueError(f"deflator does not cover {int(year)}Q{int(quarter)}") from None


def deflate(panel: Panel, deflator: DeflatorSeries) -> Panel:
    """Real sizes: nominal divided by the period's price index."""
    periods, period_of_row = np.unique(panel.period, return_inverse=True)
    index = np.array([deflator.lookup(*year_quarter(p)) for p in periods.tolist()])
    return replace(panel, size=panel.size / index[period_of_row])


def year_quarter(period):
    """The year and quarter (1-4) of a period index ``4 * year + quarter - 1``, or of an array."""
    year, q = divmod(period, 4)
    return year, q + 1


def normalize_by_year(panel: Panel) -> Panel:
    """Within each year, rescale sizes so their mean is exactly one.

    The normalized size is N_y * S / sum(S) over the observations of year y,
    which removes secular drift and makes the size distribution stationary
    across years.  Years scale independently.
    """
    years = Groups.of(panel.period // 4)
    totals = years.reduce(panel.size, lambda rows: rows.sum(axis=-1))
    bad = np.flatnonzero(totals <= 0)
    if bad.size:
        raise ValueError(f"year {years.keys[bad[0]]} has non-positive total size")
    sizes = np.empty_like(panel.size)
    sizes[years.order] = (
        np.repeat(years.counts, years.counts) * panel.size[years.order]
        / np.repeat(totals, years.counts)
    )
    return replace(panel, size=sizes)


# ---------------------------------------------------------------------------
# Growth rates and filters
# ---------------------------------------------------------------------------

@dataclass
class GrowthRecords:
    """Annual log growth rates, one per observation with a match 4 quarters on."""

    firm_id: np.ndarray
    period: np.ndarray  # the base period, 4 * year + quarter - 1
    growth: np.ndarray

    def __len__(self):
        return len(self.growth)


def filter_firms(panel: Panel, min_growth_obs=2, fiscal_december_only=False):
    """Keep firms meeting the active criteria; log every exclusion.

    A growth record is the log size difference of a firm's rows exactly four
    quarters apart (gaps are never imputed).  A firm is kept if it has at least
    `min_growth_obs` records and, under `fiscal_december_only`, only December
    fiscal year-ends.  Returns (filtered_panel, filtered_growths, exclusion_log):
    the kept firms' rows and records, each in input row order, and each dropped
    firm_id's reason code, in ascending firm_id order, so every input firm is
    either retained or logged.  A repeated (firm, period) pair raises ValueError
    citing the 1-based rows of its first two occurrences.
    """
    months = panel.fiscal_year_end_month
    if np.any(panel.size <= 0):
        raise ValueError("sizes must be positive to take logs")
    if fiscal_december_only and months is None:
        raise ValueError("fiscal_december_only needs fiscal year-end months")
    firms = firm_groups(panel.firm_id, panel.period)
    later = firms.lag_pairs(panel.period, 4)
    n_growth = np.add.reduceat((later >= 0)[firms.order], firms.starts, dtype=np.int64)
    december = np.ones(firms.keys.size, dtype=bool)
    if fiscal_december_only:
        december = np.logical_and.reduceat((months == 12)[firms.order], firms.starts)
    keep = december & (n_growth >= min_growth_obs)

    why = np.where(december[~keep], "too_few_growth_rates", "fiscal_year_not_december")
    exclusion_log = dict(zip(firms.keys[~keep].tolist(), why.tolist()))
    kept = np.empty(len(panel), dtype=bool)
    kept[firms.order] = np.repeat(keep, firms.counts)
    base = np.flatnonzero((later >= 0) & kept)
    growth = np.log(panel.size[later[base]]) - np.log(panel.size[base])
    growths = GrowthRecords(panel.firm_id[base], panel.period[base], growth)
    return panel.select(kept), growths, exclusion_log


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------

def _stat_row(name, values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return {"variable": name, "n": 0, "mean": np.nan, "sd": np.nan, "min": np.nan, "max": np.nan}
    sd = values.std(ddof=1) if values.size > 1 else 0.0
    return {
        "variable": name,
        "n": int(values.size),
        "mean": float(values.mean()),
        "sd": float(sd),
        "min": float(values.min()),
        "max": float(values.max()),
    }


def descriptive_stats(panel: Panel, growths: GrowthRecords):
    """Six-column summary rows for sizes, growth rates, volatilities, counts.

    `growths` are the panel's annual growth records (:func:`filter_firms`' second value).
    """
    if len(panel) == 0:
        raise ValueError("panel is empty")
    firms = Groups.of(growths.firm_id)
    vols = firms.select(firms.counts >= 2).reduce(growths.growth, mad_volatility)
    return [
        _stat_row("size", panel.size),
        _stat_row("growth_rate", growths.growth),
        _stat_row("growth_volatility_mad", vols),
        _stat_row("n_growth_rates_per_firm", firms.counts),
    ]

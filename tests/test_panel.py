import re
from dataclasses import replace

import numpy as np
import pytest

from firmgrowth.model import Panel
from firmgrowth.panel import (
    DeflatorSeries,
    deflate,
    descriptive_stats,
    filter_firms,
    normalize_by_year,
)
from firmgrowth.panel import ingest_csv as ingest_coded


def annual_log_growth(panel):
    """Every firm's growth records: :func:`filter_firms` with no minimum drops no firm."""
    return filter_firms(panel, 0)[1]


def ingest_csv(path, schema=None):
    """`panel.ingest_csv`'s panel, with each firm's rank code decoded back to its id, and months."""
    ids, panel, months = ingest_coded(path, schema)
    return replace(panel, firm_id=ids[panel.firm_id]), months


def make_panel(rows):
    # rows: (firm, year, quarter, size[, fiscal_month])
    return Panel(
        np.array([r[0] for r in rows]),
        [4 * r[1] + r[2] - 1 for r in rows],
        [r[3] for r in rows],
    )


def fiscal_months(rows):
    """The fiscal year-end months of :func:`make_panel`'s rows, -1 where a row gives none."""
    return np.array([r[4] if len(r) > 4 else -1 for r in rows])


def quarterly_firm(firm, sizes, start_year=2000, fiscal=12):
    rows = []
    for i, s in enumerate(sizes):
        rows.append((firm, start_year + i // 4, i % 4 + 1, s, fiscal))
    return rows


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "firm_id,year,quarter,size\nf1,2000,1,10.5\nf2,2000,1,3.25\n"
        )
        panel, months = ingest_csv(path)
        assert len(panel) == len(months) == 2
        first = (panel.firm_id[0], panel.period[0], panel.size[0], months[0])
        assert first == ("f1", 4 * 2000 + 1 - 1, 10.5, -1)

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "export.csv"
        path.write_text("gvkey,fyearq,fqtr,saleq,fyr\nA,1999,4,7.0,12\n")
        panel, months = ingest_csv(
            path,
            schema={
                "firm_id": "gvkey",
                "year": "fyearq",
                "quarter": "fqtr",
                "size": "saleq",
                "fiscal_year_end_month": "fyr",
            },
        )
        assert panel.firm_id[0] == "A" and panel.period[0] == 4 * 1999 + 4 - 1
        assert months[0] == 12

    def test_short_row_leaves_fiscal_month_unknown(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("firm_id,year,quarter,size,fyr\nf1,2000,1,1.0,12\nf1,2000,2,1.0\n")
        schema = {"firm_id": "firm_id", "year": "year", "quarter": "quarter", "size": "size",
                  "fiscal_year_end_month": "fyr"}
        assert ingest_csv(path, schema)[1].tolist() == [12, -1]

    def test_non_integer_fiscal_month_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("firm_id,year,quarter,size,fyr\nf1,2000,1,1.0,12\nf1,2000,2,1.0,Dec\n")
        schema = {"firm_id": "firm_id", "year": "year", "quarter": "quarter", "size": "size",
                  "fiscal_year_end_month": "fyr"}
        with pytest.raises(ValueError, match="row 2: non-integer fiscal month 'Dec'"):
            ingest_csv(path, schema)

    def test_non_numeric_size_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("firm_id,year,quarter,size\nf1,2000,1,1.0\nf1,2000,2,abc\n")
        with pytest.raises(ValueError, match="row 2"):
            ingest_csv(path)

    def test_non_positive_size(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("firm_id,year,quarter,size\nf1,2000,1,0.0\n")
        with pytest.raises(ValueError, match="non-positive"):
            ingest_csv(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("firm_id,year,quarter,size\nf1,2000,1,1.0\nf1,2000,1,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("firm_id,year,size\nf1,2000,1.0\n")
        with pytest.raises(ValueError, match="missing column"):
            ingest_csv(path)


class TestDeflate:
    def test_unit_index(self):
        panel = make_panel([("f1", 2000, 1, 100.0)])
        deflator = DeflatorSeries({(2000, 1): 1.0})
        assert deflate(panel, deflator).size[0] == pytest.approx(100.0)

    def test_half_index_doubles(self):
        panel = make_panel([("f1", 2000, 1, 100.0)])
        deflator = DeflatorSeries({(2000, 1): 0.5})
        assert deflate(panel, deflator).size[0] == pytest.approx(200.0)

    def test_missing_period(self):
        panel = make_panel([("f1", 1999, 4, 100.0)])
        with pytest.raises(ValueError, match="1999Q4"):
            deflate(panel, DeflatorSeries({(2000, 1): 1.0}))

    def test_from_csv(self, tmp_path):
        path = tmp_path / "deflator.csv"
        path.write_text("year,quarter,index\n2000,1,0.8\n2000,2,0.9\n")
        d = DeflatorSeries.from_csv(path)
        assert d.lookup(2000, 2) == pytest.approx(0.9)

    @pytest.mark.parametrize("index, message", [
        ("inf", "non-finite index inf"), ("nan", "non-finite index nan"),
        ("-inf", "non-positive index"), ("0", "non-positive index"),
    ])
    def test_from_csv_rejects_bad_index_citing_its_row(self, tmp_path, index, message):
        path = tmp_path / "deflator.csv"
        path.write_text(f"year,quarter,index\n2000,1,0.8\n2000,2,{index}\n")
        with pytest.raises(ValueError, match=f"^deflator row 2: {message}$"):
            DeflatorSeries.from_csv(path)

    def test_from_csv_rejects_repeated_quarter(self, tmp_path):
        path = tmp_path / "deflator.csv"
        path.write_text("year,quarter,index\n2000,1,0.8\n2000,2,0.9\n2000,1,0.85\n")
        with pytest.raises(ValueError, match="rows 1 and 3 both give 2000Q1"):
            DeflatorSeries.from_csv(path)

    def test_from_csv_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "deflator.csv"
        path.write_text("year,quarter,index\n\n")
        with pytest.raises(ValueError, match=re.escape(f"deflator {path} has no data rows")):
            DeflatorSeries.from_csv(path)

    def test_from_csv_names_a_missing_column(self, tmp_path):
        path = tmp_path / "deflator.csv"
        path.write_text("year,quarter,price\n2000,1,0.8\n")
        with pytest.raises(ValueError, match=re.escape(f"deflator {path} lacks column(s) index")):
            DeflatorSeries.from_csv(path)

    def test_from_csv_reads_quoted_names_and_cells_in_any_order(self, tmp_path):
        path = tmp_path / "deflator.csv"
        path.write_bytes(b'"index","year","quarter"\r\n"0.8","2000",1\r\n0.9,2000,"2"\r\n')
        assert DeflatorSeries.from_csv(path).index == {(2000, 1): 0.8, (2000, 2): 0.9}

    def test_from_csv_cites_the_file_and_row_of_a_non_numeric_cell(self, tmp_path):
        path = tmp_path / "deflator.csv"
        path.write_text("year,quarter,index\n2000,1,0.8\n\n2000,Q2,0.9\n")
        message = f"deflator {path}, row 2: could not convert string 'Q2' to int64 in column 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            DeflatorSeries.from_csv(path)


class TestNormalize:
    def test_two_observations(self):
        panel = make_panel([("f1", 2000, 1, 3.0), ("f2", 2000, 1, 1.0)])
        out = normalize_by_year(panel)
        assert out.size == pytest.approx([1.5, 0.5])

    def test_yearly_mean_is_one(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(60):
            rows.append((f"f{i % 10}", 2000 + i % 3, i % 4 + 1, float(rng.random() + 0.1)))
        out = normalize_by_year(make_panel(rows))
        for y in (2000, 2001, 2002):
            assert out.size[out.period // 4 == y].mean() == pytest.approx(1.0, abs=1e-12)

    def test_years_scale_independently(self):
        panel = make_panel([("f1", 2000, 1, 2.0), ("f1", 2001, 1, 200.0)])
        out = normalize_by_year(panel)
        assert out.size == pytest.approx([1.0, 1.0])

    def test_non_positive_year_total_named(self):
        panel = make_panel([("f1", 2002, 1, 2.0), ("f1", 2001, 1, 2.0), ("f2", 2001, 2, 3.0)])
        panel.size[1:] *= -1.0
        with pytest.raises(ValueError, match="year 2001 has non-positive total size"):
            normalize_by_year(panel)


class TestAnnualGrowth:
    def test_log_two(self):
        panel = make_panel([("f1", 2000, 1, 100.0), ("f1", 2001, 1, 200.0)])
        g = annual_log_growth(panel)
        assert len(g) == 1
        assert g.growth[0] == pytest.approx(np.log(2))
        assert divmod(g.period[0], 4) == (2000, 1 - 1)

    def test_gap_produces_no_record(self):
        panel = make_panel([("f1", 2000, 1, 100.0), ("f1", 2001, 2, 200.0)])
        assert len(annual_log_growth(panel)) == 0

    def test_constant_sizes_zero_growth(self):
        panel = make_panel(quarterly_firm("f1", [5.0] * 8))
        g = annual_log_growth(panel)
        assert len(g) == 4
        assert np.allclose(g.growth, 0.0)

    def test_rolling_overlap(self):
        panel = make_panel(quarterly_firm("f1", np.linspace(1, 2, 12).tolist()))
        g = annual_log_growth(panel)
        assert len(g) == 8  # 12 quarters - 4

    def test_negative_periods_pair_rows_of_one_firm(self):
        # firm a never changes size and firm b is 100 times larger: a key that
        # mixed the firms' rows would give a growth of +-log 100
        firm_id = np.array(["a"] * 7 + ["b"] * 9)
        period = np.concatenate([np.arange(7), np.arange(-9, 0)])
        size = np.array([1.0] * 7 + [100.0] * 9)
        g = annual_log_growth(Panel(firm_id, period, size))
        shifted = annual_log_growth(Panel(firm_id, period + 40, size))
        assert g.firm_id.tolist() == shifted.firm_id.tolist()
        assert (g.period + 40).tolist() == shifted.period.tolist()
        assert g.growth.tolist() == shifted.growth.tolist() == [0.0] * 8

    def test_repeated_firm_period_is_error(self):
        # the period-0 row would pair with only one of the two period-4 rows
        panel = Panel(np.array(["a"] * 6), [0, 1, 4, 4, 5, 8], [1.0, 2.0, 3.0, 30.0, 4.0, 5.0])
        msg = r"row 4: duplicate rows for firm_id a, period 4 \(first seen at row 3\)"
        with pytest.raises(ValueError, match=msg):
            annual_log_growth(panel)
        with pytest.raises(ValueError, match=msg):
            filter_firms(panel)

    def test_normalization_shifts_growth_by_year_constant(self):
        rng = np.random.default_rng(1)
        rows = []
        for f in range(6):
            rows.extend(quarterly_firm(f"f{f}", (rng.random(8) + 0.5).tolist()))
        panel = make_panel(rows)
        g_raw = annual_log_growth(panel)
        g_norm = annual_log_growth(normalize_by_year(panel))
        # difference depends only on the base year (log of the yearly factors)
        diff = g_norm.growth - g_raw.growth
        base_year = g_raw.period // 4
        for y in np.unique(base_year):
            d = diff[base_year == y]
            assert np.max(np.abs(d - d[0])) < 1e-12


class TestFilterFirms:
    def test_min_growth_obs(self):
        rows = quarterly_firm("keep", [1.0] * 12) + [
            ("drop", 2000, 1, 1.0),
            ("drop", 2001, 1, 1.2),
        ]
        panel = make_panel(rows)
        kept, _, log = filter_firms(panel, min_growth_obs=2)
        assert set(np.unique(kept.firm_id)) == {"keep"}
        assert log == {"drop": "too_few_growth_rates"}

    def test_filters_are_nested(self):
        rng = np.random.default_rng(2)
        rows = []
        for f in range(8):
            n_q = int(rng.integers(5, 30))
            rows.extend(quarterly_firm(f"f{f}", (rng.random(n_q) + 0.5).tolist()))
        panel = make_panel(rows)
        loose, _, _ = filter_firms(panel, min_growth_obs=2)
        strict, _, _ = filter_firms(panel, min_growth_obs=20)
        assert set(np.unique(strict.firm_id)) <= set(np.unique(loose.firm_id))

    def test_fiscal_december_filter_logs_missing_flag(self):
        rows = quarterly_firm("dec", [1.0] * 8, fiscal=12) + quarterly_firm(
            "june", [1.0] * 8, fiscal=6
        )
        noflag = [("noflag", 2000, q, 1.0) for q in (1, 2, 3, 4)]
        noflag += [("noflag", 2001, q, 1.0) for q in (1, 2, 3, 4)]
        panel = make_panel(rows + noflag)
        kept, _, log = filter_firms(panel, min_growth_obs=2, months=fiscal_months(rows + noflag))
        assert set(np.unique(kept.firm_id)) == {"dec"}
        assert log["june"] == "fiscal_year_not_december"
        assert log["noflag"] == "fiscal_year_not_december"

    def test_counts_reconcile(self):
        rng = np.random.default_rng(3)
        rows = []
        for f in range(10):
            n_q = int(rng.integers(2, 16))
            rows.extend(quarterly_firm(f"f{f}", (rng.random(n_q) + 0.5).tolist()))
        panel = make_panel(rows)
        kept, _, log = filter_firms(panel, min_growth_obs=4)
        assert len(set(np.unique(panel.firm_id))) == len(set(np.unique(kept.firm_id))) + len(log)


class TestDescriptiveStats:
    def test_single_firm_two_equal_sizes(self):
        panel = make_panel([("f1", 2000, 1, 1.0), ("f1", 2000, 2, 1.0)])
        rows = descriptive_stats(panel, annual_log_growth(panel))
        size_row = next(r for r in rows if r["variable"] == "size")
        assert size_row["n"] == 2
        assert size_row["mean"] == pytest.approx(1.0)
        assert size_row["sd"] == pytest.approx(0.0)

    def test_growth_count_matches_construction(self):
        n_quarters = 16
        rows = []
        rng = np.random.default_rng(4)
        for f in range(5):
            rows.extend(quarterly_firm(f"f{f}", (rng.random(n_quarters) + 0.5).tolist()))
        panel = make_panel(rows)
        stats = descriptive_stats(panel, annual_log_growth(panel))
        count_row = next(r for r in stats if r["variable"] == "n_growth_rates_per_firm")
        assert count_row["mean"] == pytest.approx(n_quarters - 4)

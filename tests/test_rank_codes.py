"""`ingest` runs its stages on firm codes: each id's rank among the panel's ids.

``np.unique(firm_id, return_inverse=True)`` gives the sorted ids (``labels``)
and each row's code.  Codes keep the ids' order, so every stable sort, every
record order and every summation order on the coded panel are those on the
string panel, and mapping codes back through ``labels`` gives the same bytes.
"""

from dataclasses import replace

import numpy as np
import pytest

from firmgrowth import panel as panel_module
from firmgrowth.cli import main
from firmgrowth.model import Panel
from firmgrowth.panel import descriptive_stats, filter_firms


def annual_log_growth(panel):
    """Every firm's growth records: :func:`filter_firms` with no minimum drops no firm."""
    return filter_firms(panel, 0)[1]


# NumPy's string order differs from length and numeric order ("010" < "10" < "9"),
# puts upper case first ("B" < "a") and non-ASCII last
IDS = ["9", "10", "010", "100", "a", "B", "b", "Ab", "aB", "é", "Zürich", "ß", "x"]


def string_panel(seed):
    """Shuffled quarterly rows of the :data:`IDS` firms, ragged, each with a gap and some
    firms with one row, and their fiscal year-end months: some firms' are June."""
    rng = np.random.default_rng(seed)
    firm_id, period, month = [], [], []
    for i, firm in enumerate(IDS):
        n = 1 if i % 5 == 0 else int(rng.integers(2, 40))
        quarters = np.delete(np.arange(n + 1), rng.integers(0, n + 1)) + rng.integers(0, 8)
        firm_id += [firm] * n
        period += (4 * 2000 + quarters).tolist()
        month += [6 if i % 4 == 1 else 12] * n
    shuffle = rng.permutation(len(period))
    panel = Panel(
        np.array(firm_id)[shuffle], np.array(period)[shuffle],
        np.exp(rng.normal(0.0, 1.5, len(period))),
    )
    return panel, np.array(month)[shuffle]


def assert_same_columns(a, b, labels, names):
    for name in names:
        got = getattr(b, name)
        got = labels[got] if name == "firm_id" else got
        expected = getattr(a, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


def test_ids_sort_in_neither_length_nor_numeric_order():
    labels = np.unique(IDS).tolist()
    assert labels != sorted(IDS, key=len) and labels.index("010") < labels.index("9")
    assert labels.index("B") < labels.index("a") < labels.index("ß") < labels.index("é")


@pytest.mark.parametrize("december_only", [False, True])
@pytest.mark.parametrize("min_growth_obs", [1, 2, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_coded_panel_gives_the_string_panel_results(seed, min_growth_obs, december_only):
    panel, months = string_panel(seed)
    months = months if december_only else None
    labels, codes = np.unique(panel.firm_id, return_inverse=True)
    twin = replace(panel, firm_id=codes)
    assert twin.firm_id.dtype.kind == "i"

    records = ("firm_id", "period", "growth")
    assert_same_columns(annual_log_growth(panel), annual_log_growth(twin), labels, records)

    kept, growths, log = filter_firms(panel, min_growth_obs, months)
    kept_c, growths_c, log_c = filter_firms(twin, min_growth_obs, months)
    columns = ("firm_id", "period", "size")
    assert_same_columns(kept, kept_c, labels, columns)
    assert_same_columns(growths, growths_c, labels, records)
    # the same firms and reasons, in the same order
    assert list(log.items()) == list(zip(labels[list(log_c)].tolist(), log_c.values()))
    assert log and len(kept)

    assert repr(descriptive_stats(kept, growths)) == repr(descriptive_stats(kept_c, growths_c))


def test_ingest_filters_firm_codes(tmp_path, monkeypatch):
    """`cmd_ingest` hands `filter_firms` and `descriptive_stats` int firm codes, not strings."""
    kinds = []

    def spy(name):
        stage = getattr(panel_module, name)

        def wrapped(panel, *args):
            kinds.append((name, panel.firm_id.dtype.kind))
            return stage(panel, *args)
        monkeypatch.setattr(panel_module, name, wrapped)

    spy("filter_firms")
    spy("descriptive_stats")
    rows = ["firm_id,year,quarter,size"]
    for firm in ("b", "a10", "a9"):
        rows += [f"{firm},{2000 + i // 4},{i % 4 + 1},{1.0 + i}" for i in range(10)]
    data = tmp_path / "quarters.csv"
    data.write_text("\n".join(rows) + "\n")
    config = tmp_path / "config.ini"
    config.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n[ingest]\ninput = {data}\n")
    assert main(["--config", str(config), "ingest"]) == 0
    assert kinds == [("filter_firms", "i"), ("descriptive_stats", "i")]
    firms = [line.split(",")[0] for line in (tmp_path / "out" / "growth.csv").read_text().split()]
    assert firms == ["firm_id", *["a10"] * 6, *["a9"] * 6, *["b"] * 6]  # id order, not the file's

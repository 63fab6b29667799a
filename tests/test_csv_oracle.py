"""write_table_csv against a frozen copy of the formatting it replaced, byte for byte.

Before one writer produced every CSV, each value was formatted on its own: a
float (Python or NumPy) as ``repr(float(value))``, anything else as
``str(value)``, one LF-ended line per row.  descriptive_stats.csv came from
csv.DictWriter, whose lines end in CRLF.  The copies below are that
reference; they must not change with the writer.
"""

import csv

import numpy as np
import pytest

from firmgrowth.cli import write_table_csv
from firmgrowth.model import Panel
from firmgrowth.panel import descriptive_stats, filter_firms


def annual_log_growth(panel):
    """Every firm's growth records: :func:`filter_firms` with no minimum drops no firm."""
    return filter_firms(panel, 0)[1]


def old_fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def old_write(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(old_fmt(v) for v in row) + "\n")


def old_write_stats(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variable", "n", "mean", "sd", "min", "max"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def assert_same_bytes(tmp_path, header, columns):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old_write(old, header, zip(*columns))
    write_table_csv(new, header, columns)
    assert new.read_bytes() == old.read_bytes()


EDGE = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 9999999999999998.0,
        0.1, 1 / 3, 2.0**53 + 2, 1.7976931348623157e308, 2.2250738585072014e-308, -1.5]
INT64 = np.iinfo(np.int64)


def float32_array(values):
    """Widened to Python floats, as before; the largest doubles overflow to inf."""
    with np.errstate(over="ignore"):
        return np.array(values, dtype=np.float32)


@pytest.mark.parametrize("as_column", [
    np.array,                                     # a float64 array
    list,                                         # Python floats
    lambda v: [np.float64(x) for x in v],         # NumPy scalars in a list, as experiments give
    lambda v: tuple(np.float64(x) for x in v),    # a transposed row list
    float32_array,
], ids=["float64_array", "float_list", "float64_scalars", "float64_tuple", "float32_array"])
def test_edge_floats(tmp_path, as_column):
    assert_same_bytes(tmp_path, ["x"], [as_column(EDGE)])


def test_integers_bools_and_strings(tmp_path):
    ints = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]
    flags = [True, False, True, True, False, False, True]
    ids = ["001004", "f1", "a b", "x-1", "", "Ω", "12"]
    assert_same_bytes(tmp_path, ["i", "i_scalars", "big", "b", "b_scalars", "id", "id_array"], [
        np.array(ints, dtype=np.int64),
        [np.int64(i) for i in ints],
        [2**70, -(2**70), 0, 1, 2, 3, 4],
        np.array(flags),
        [np.bool_(f) for f in flags],
        ids,
        np.array(ids),
    ])


@pytest.mark.parametrize("columns", [[], [np.zeros(0), np.zeros(0, np.int64)]],
                         ids=["no_columns", "empty_columns"])
def test_empty_table_writes_its_header(tmp_path, columns):
    path = tmp_path / "empty.csv"
    write_table_csv(path, ["bin", "value"], columns)
    assert path.read_bytes() == b"bin,value\n"


@pytest.mark.parametrize("n_rows", [8191, 8192, 8193, 2 * 8192 + 1])
def test_rows_across_the_chunk_boundary(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    # every bit pattern: subnormals, huge and tiny exponents, NaNs of either sign
    bits = rng.integers(0, 2**64, n_rows, dtype=np.uint64).view(np.float64)
    ids = rng.integers(0, 10**6, n_rows).astype(str)
    assert_same_bytes(tmp_path, ["firm_id", "period", "size", "bits"], [
        ids, np.arange(n_rows, dtype=np.int64) % 7, rng.lognormal(0.0, 2.0, n_rows), bits,
    ])


def test_descriptive_stats_keeps_the_crlf_of_dictwriter(tmp_path):
    firms = np.repeat(np.array(["f1", "f2", "f3"]), 9)
    periods = np.tile(4 * 2000 + np.arange(9), 3)
    sizes = np.random.default_rng(5).lognormal(0.0, 1.0, 27)
    panel = Panel(firms, periods, sizes)
    short = panel.select(panel.period < 8004)  # no growth rates: rows of NaN statistics
    for rows in (descriptive_stats(panel, annual_log_growth(panel)),
                 descriptive_stats(short, annual_log_growth(short))):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old_write_stats(old, rows)
        # as cmd_ingest writes descriptive_stats.csv
        write_table_csv(new, list(rows[0]), list(zip(*map(dict.values, rows))), newline="\r\n")
        assert new.read_bytes() == old.read_bytes()
        assert new.read_bytes().count(b"\r\n") == 1 + len(rows)

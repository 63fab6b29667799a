"""Benchmark inputs, generated from the benchmark seed with NumPy alone.

    python3 inputs.py quarterly|volatilities SEED DIR

Nothing here imports ``firmgrowth``: a change to one of the package's
samplers must not change another workload's input.  Each generator writes
its files into a directory and returns what the benchmark needs to check the
outputs made from them; run as a script, it prints that as JSON.  The
benchmark runs it as a child process, so NumPy and the generated rows never
enter the process that spawns the timed steps.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

# ingest_quarterly: a Compustat-shaped quarterly export
N_FIRMS = 5_000
N_QUARTERS = 48
FIRST_YEAR = 2000
MIN_LIFE, MAX_LIFE = 6, 39          # quarters a firm is listed; mean 22.5
MISSING_QUARTER = 0.02              # share of listed quarters with no row
NON_DECEMBER = 0.15                 # share of firms with another fiscal year end
EXPORT_COLUMNS = ("gvkey", "datadate", "fyearq", "fqtr", "fyr", "atq")
QUARTER_END = {1: "0331", 2: "0630", 3: "0930", 4: "1231"}

# paper_battery: the published rescaled-volatility law (scale, shape, location)
MIG_SCALE, MIG_SHAPE, MIG_LOCATION = 4.788, 4.620, 0.326
N_VOLATILITIES = 200_000


def _rng(seed, stream):
    # one independent stream per input kind, so adding a generator never
    # shifts another one's draws
    return np.random.default_rng([int(seed) % 2**64, stream])


def quarterly_export(seed, out_dir):
    """Write ``quarterly.csv`` and ``deflator.csv``; return what ingest must produce.

    About 5,000 string-keyed firms enter and leave at random over 48
    quarters, about 2 % of their listed quarters are missing and about 15 %
    of them close their fiscal year outside December.  Sizes follow a
    log-normal random walk.  The returned dict holds the input firm count,
    the exclusion log that ``fiscal_december_only = true`` and
    ``min_growth_obs = 2`` imply, and the number of growth rates (pairs of
    rows exactly four quarters apart) of the retained firms.
    """
    rng = _rng(seed, 1)
    out_dir = Path(out_dir)
    ids = np.sort(rng.choice(1_000_000, N_FIRMS, replace=False))
    life = rng.integers(MIN_LIFE, MAX_LIFE + 1, N_FIRMS)
    start = rng.integers(0, N_QUARTERS - life + 1)
    fyr = np.where(rng.random(N_FIRMS) < NON_DECEMBER, rng.choice([3, 6, 9], N_FIRMS), 12)
    log_size0 = rng.normal(4.0, 2.0, N_FIRMS)

    offsets = np.concatenate(([0], np.cumsum(life)))
    firm = np.repeat(np.arange(N_FIRMS), life)
    t = start[firm] + np.arange(offsets[-1]) - offsets[firm]
    walk = np.cumsum(rng.normal(0.01, 0.08, offsets[-1]))
    log_size = log_size0[firm] + walk - np.repeat(walk[offsets[:-1]], life)
    keep = rng.random(offsets[-1]) >= MISSING_QUARTER
    firm, t, log_size = firm[keep], t[keep], log_size[keep]
    size = np.maximum(np.round(np.exp(log_size), 3), 0.001)

    year, quarter = FIRST_YEAR + t // 4, t % 4 + 1
    lines = [",".join(EXPORT_COLUMNS)]
    lines.extend(
        f"{g:06d},{y}{QUARTER_END[q]},{y},{q},{m},{s:.3f}"
        for g, y, q, m, s in zip(
            ids[firm].tolist(), year.tolist(), quarter.tolist(), fyr[firm].tolist(), size.tolist()
        )
    )
    (out_dir / "quarterly.csv").write_text("\n".join(lines) + "\n")

    qt = np.arange(N_QUARTERS)
    index = 1.005**qt * (1.0 + rng.normal(0.0, 0.002, N_QUARTERS))
    (out_dir / "deflator.csv").write_text(
        "year,quarter,index\n"
        + "".join(f"{FIRST_YEAR + k // 4},{k % 4 + 1},{v:.6f}\n" for k, v in zip(qt, index))
    )

    # growth rates: rows whose firm also has a row four quarters later
    listed = np.zeros((N_FIRMS, N_QUARTERS + 4), dtype=bool)
    listed[firm, t] = True
    pairs = (listed[:, :-4] & listed[:, 4:]).sum(axis=1)
    present = np.unique(firm)
    excluded = {}
    for f in present.tolist():
        if fyr[f] != 12:
            excluded[f"{ids[f]:06d}"] = "fiscal_year_not_december"
        elif pairs[f] < 2:
            excluded[f"{ids[f]:06d}"] = "too_few_growth_rates"
    retained = present[(fyr[present] == 12) & (pairs[present] >= 2)]
    return {
        "n_firms": int(present.size),
        "excluded_firms": excluded,
        "n_retained_firms": int(retained.size),
        "n_growth_rates": int(pairs[retained].sum()),
    }


def mig_volatilities(seed, out_dir):
    """Write ``volatilities.csv``: modified-inverse-gamma draws, one per line under a header.

    Each draw is ``scale / Gamma(shape)`` shifted down by the location;
    non-positive values are rejected and redrawn.  Nothing is left to check
    beyond the fit itself, so the returned dict is empty.
    """
    rng = _rng(seed, 2)
    draws = np.empty(0)
    while draws.size < N_VOLATILITIES:
        x = MIG_SCALE / rng.gamma(MIG_SHAPE, size=N_VOLATILITIES) - MIG_LOCATION
        draws = np.concatenate((draws, x[x > 0]))
    (Path(out_dir) / "volatilities.csv").write_text(
        "sigma\n" + "".join(f"{v!r}\n" for v in draws[:N_VOLATILITIES].tolist())
    )
    return {}


GENERATORS = {"quarterly": quarterly_export, "volatilities": mig_volatilities}

if __name__ == "__main__":
    kind, seed, out_dir = sys.argv[1:]
    print(json.dumps(GENERATORS[kind](int(seed), Path(out_dir))))

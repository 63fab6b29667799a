#!/usr/bin/env python3
"""A quarterly panel pipeline walk-through on synthetic data.

Builds a Compustat-shaped quarterly CSV from a simulated firm panel, then
runs the full preprocessing chain: ingestion with schema mapping, deflation,
within-year normalization, rolling annual log growth rates, firm filters,
descriptive statistics, and finally leave-one-out rescaled growth rates with
a stretched-exponential fit of their distribution.
"""

import tempfile
from pathlib import Path

import numpy as np

from firmgrowth.analysis import kde_gaussian
from firmgrowth.estimation import fit_gse_nls, gaussian_mass_fraction, leave_one_out_rescale
from firmgrowth.groups import Groups
from firmgrowth.model import ModelParams, ParetoCount, simulate_panel
from firmgrowth.panel import (
    DeflatorSeries,
    deflate,
    descriptive_stats,
    filter_firms,
    ingest_csv,
    normalize_by_year,
)

workdir = Path(tempfile.mkdtemp(prefix="firmgrowth_demo_"))

# --- 1. synthesize a quarterly export (one model period = one quarter) ----
params = ModelParams(mu=1.6, alpha=1.2, sigma0=0.12, k_mode=ParetoCount())
panel, _ = simulate_panel(params, n_firms=4_000, n_periods=24, seed=6)
csv_path = workdir / "quarterly.csv"
with open(csv_path, "w") as fh:
    fh.write("gvkey,fyearq,fqtr,saleq\n")
    for fid, per, size in zip(panel.firm_id, panel.period, panel.size):
        # nominal values drift upward 0.8% per quarter to exercise deflation
        nominal = size * 1.008**per
        fh.write(f"F{fid:05d},{2000 + per // 4},{per % 4 + 1},{float(nominal)!r}\n")
deflator_path = workdir / "deflator.csv"
with open(deflator_path, "w") as fh:
    fh.write("year,quarter,index\n")
    for per in range(24):
        fh.write(f"{2000 + per // 4},{per % 4 + 1},{float(1.008**per)!r}\n")
print(f"wrote synthetic export ({panel.n_records} rows) to {csv_path}")

# --- 2. ingest with a schema mapping --------------------------------------
# quarterly rows become panel rows with period = 4 * year + quarter - 1
_, qp = ingest_csv(
    csv_path,
    schema={"firm_id": "gvkey", "year": "fyearq", "quarter": "fqtr", "size": "saleq"},
)
print(f"ingested {len(qp)} validated observations")

# --- 3. deflate, normalize, growth, filter --------------------------------
qp = deflate(qp, DeflatorSeries.from_csv(deflator_path))
qp = normalize_by_year(qp)
for year in (2000, 2003, 2005):
    mean = qp.size[qp.period // 4 == year].mean()
    print(f"  mean normalized size in {year}: {mean:.12f}")

qp, growths, exclusions = filter_firms(qp, min_growth_obs=10)
print(f"firm filter: kept {np.unique(qp.firm_id).size} firms,"
      f" excluded {len(exclusions)}")
print(f"rolling annual growth rates: {len(growths)}"
      " (each quarter paired with the one 4 quarters later)")

print("\ndescriptive statistics:")
for row in descriptive_stats(qp, growths):
    print(f"  {row['variable']:<26} n={row['n']:>6} mean={row['mean']:>9.4f}"
          f" sd={row['sd']:>9.4f}")

# --- 4. leave-one-out rescaled growth and its distribution ----------------
rescaled = np.concatenate([
    leave_one_out_rescale(g)
    for g in Groups.of(growths.firm_id).split(growths.growth)
    if g.size >= 3
])
rescaled = rescaled[np.isfinite(rescaled)]

grid = np.linspace(-8, 8, 2_500)
dens = kde_gaussian(np.clip(rescaled, -20, 20), grid)
fit = fit_gse_nls(dens)
p = fit.params
w = min(p["crossover"], 7.9)
print(f"\nstretched-exponential fit of the rescaled growth density"
      f" ({rescaled.size} observations):")
print(f"  amplitude {p['amplitude']:.3f}, core width {p['core_width']:.3f},"
      f" center {p['center']:+.3f}")
print(f"  crossover {p['crossover']:.3f}, stretch {p['stretch']:.3f}")
print(f"  probability mass inside the Gaussian window: "
      f"{gaussian_mass_fraction(dens, w):.3f}")
if p["crossover"] > 8.0:
    print(
        "\nThe crossover sits outside the fitted window: once each firm's"
        "\ngrowth is standardized by its own leave-one-out volatility, this"
        "\nmodel's rescaled rates are practically Gaussian (the family is"
        "\nunidentified along its Gaussian ridge).  That is the granular"
        "\nprediction itself; observed panels keep stretched tails instead."
    )
else:
    print("\nA stretch below 1 means the tails decay slower than an"
          "\nexponential even after firm-level standardization.")

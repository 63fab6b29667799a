#!/usr/bin/env python3
"""How concentration of sub-unit sizes scales with the number of sub-units.

A firm made of K sub-units with Pareto(mu) sizes does not diversify at the
1/K rate: the largest sub-units dominate.  Three statistics of the
Herfindahl-Hirschman index H scale with three different exponents,

    E[H | K]       ~ K^(1 - mu)          (driven by rare concentrated firms)
    E[sqrt(H) | K] ~ K^((1 - mu) / mu)   (driven by the typical firm)
    median H       ~ K^(2 (1 - mu) / mu)

and because growth volatility is sigma0 * sqrt(H), the same split carries
over to volatility-size scaling.  This script measures all three by Monte
Carlo and compares them with the exponents above.
"""

import numpy as np

from firmgrowth.analysis import loglog_ols
from firmgrowth.model import FixedCount, ModelParams, sample_firm_stats

MU = 1.5
N_PER_K = 4_000
K_GRID = [2**j for j in range(5, 13)]

params = ModelParams(mu=MU, k_mode=FixedCount(1))
rng = np.random.default_rng(1)

print(f"sub-unit size tail index mu = {MU}, {N_PER_K} firms per K\n")
print(f"{'K':>6} {'E[H|K]':>10} {'E[sqrt H]':>10} {'median H':>10}")
rows = []
for k in K_GRID:
    h = sample_firm_stats(params, k, N_PER_K, rng)[1]
    rows.append((k, h.mean(), np.sqrt(h).mean(), np.median(h)))
    print(f"{k:>6} {rows[-1][1]:>10.5f} {rows[-1][2]:>10.5f} {rows[-1][3]:>10.5f}")

ks = np.array([r[0] for r in rows], dtype=float)
targets = [
    ("E[H|K]", np.array([r[1] for r in rows]), 1 - MU),
    ("E[sqrt(H)|K]", np.array([r[2] for r in rows]), (1 - MU) / MU),
    ("median H", np.array([r[3] for r in rows]), 2 * (1 - MU) / MU),
]
print("\nlog-log slopes vs K:")
for name, values, theory in targets:
    fit = loglog_ols(ks, values)
    print(f"  {name:<14} measured {fit.slope:+.3f} (se {fit.se:.3f}),"
          f" theory {theory:+.3f}")

print(
    "\nThe mean and the median scale differently: the mean is pulled up by a"
    "\nsmall population of firms whose size sits in one or two sub-units,"
    "\nwhile the median follows the well-diversified majority."
)

#!/usr/bin/env python3
"""Volatility-size scaling when both sub-unit sizes and counts are heavy-tailed.

With Pareto(alpha) sub-unit counts and Pareto(mu) sizes (1 < alpha < mu < 2),
large firms come in three kinds: well diversified, many-sub-units-but-
concentrated, and few-sub-units.  Their mixture makes the moments of growth
volatility scale with size at different rates:

    E[sigma   | S]  ->  S^-((mu-1)/mu)   over the diversified class
    E[sigma^q | S]  ->  S^(alpha-mu)     for q >= 2 (few-sub-unit dominated)

This script simulates the double-granularity model, bins firms by size, and
prints both the headline 25-bin table and the class-resolved slopes.
"""

import numpy as np

from firmgrowth.analysis import binned_volatility_moments, equal_count_bins
from firmgrowth.estimation import power_law_exponent_profile
from firmgrowth.experiments import _diversified_mean_slope, _upper_window_moment_slopes, _wb_stats
from firmgrowth.model import ModelParams, ParetoCount

MU, ALPHA, SIGMA0 = 1.25, 1.1, 0.1
N_FIRMS = 1_000_000

params = ModelParams(mu=MU, alpha=ALPHA, sigma0=SIGMA0, k_mode=ParetoCount())
rng = np.random.default_rng(2)
counts, sizes, hhi = _wb_stats(params, N_FIRMS, rng)
vols = SIGMA0 * np.sqrt(hhi)

print(f"double granularity: mu={MU}, alpha={ALPHA}, {N_FIRMS} firms")
print(f"expected count per firm {counts.mean():.1f}, size range"
      f" [{sizes.min():.2f}, {sizes.max():.0f}]\n")

bins = equal_count_bins(sizes, 25)
mean_size, moments = binned_volatility_moments(bins, sizes, vols, [1, 2, 3, 4])
print("25 equal-count size bins (every 4th shown):")
print(f"{'bin':>4} {'mean size':>12} {'mean vol':>10}")
for b, s, v in list(zip(bins.keys, mean_size, moments[1]))[::4]:
    print(f"{b:>4} {s:>12.2f} {v:>10.5f}")

profile = power_law_exponent_profile(mean_size, moments)
print("\nunconditional binned slopes (all firms pooled):")
for q in (1, 2, 3, 4):
    print(f"  q={q}: {profile[q].slope:+.3f}")
print("these are flattened by the few-sub-unit firms, whose volatility stays"
      "\nnear sigma0 at every size.\n")

div_fit, n_div = _diversified_mean_slope(counts, sizes, vols, MU)
print(f"diversified class only (count * E[s] >= size/2, {n_div} firms):")
print(f"  q=1 slope {div_fit.slope:+.3f}   theory {-(MU - 1) / MU:+.3f}")

upper = _upper_window_moment_slopes(sizes, vols, [2, 3, 4])
print("\nupper size window, all classes (log-spaced bins, size >= 300):")
for q in (2, 3, 4):
    print(f"  q={q} slope {upper[q].slope:+.3f}   common theory target {ALPHA - MU:+.3f}")
print("\nhigher moments inherit a shared scaling from the few-sub-unit class;"
      "\nthe convergence toward it is slow and only visible at the largest sizes.")

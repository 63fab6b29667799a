#!/usr/bin/env python3
"""Curve collapse: size-conditioned volatility distributions share one shape.

Rescaling each size bin's volatilities by the bin mean makes the bins'
distributions collapse onto a single master curve (up to finite-size
effects).  The pooled master curve is then summarized with a modified
inverse gamma fit.
"""

import numpy as np

from firmgrowth.analysis import equal_count_bins, ks_2sample, rescale_collapse
from firmgrowth.estimation import fit_mig_mle
from firmgrowth.model import FixedCount, ModelParams, sample_firm_stats

MU, SIGMA0 = 1.9, 0.1
N_PER_CLASS = 4_000
K_CLASSES = np.unique(np.round(np.exp(np.linspace(np.log(512), np.log(4096), 18))).astype(int))

params = ModelParams(mu=MU, k_mode=FixedCount(1))
rng = np.random.default_rng(3)

sizes, vols = [], []
for k in K_CLASSES:
    s, h = sample_firm_stats(params, int(k), N_PER_CLASS, rng)
    sizes.append(s)
    vols.append(SIGMA0 * np.sqrt(h))
sizes = np.concatenate(sizes)
vols = np.concatenate(vols)

n_bins = len(K_CLASSES)
rescaled = rescale_collapse(equal_count_bins(sizes, n_bins), vols)

print(f"mu={MU}, {n_bins} sub-unit count classes from {K_CLASSES[0]} to {K_CLASSES[-1]}")
print("\npairwise KS distances between rescaled interior bins:")
probe = [7, 11, 15]
for i, a in enumerate(probe):
    for b in probe[i + 1:]:
        print(f"  bins {a + 1} vs {b + 1}: {ks_2sample(rescaled[a], rescaled[b]):.4f}")
print("(interior bins collapse; the outermost bins keep the ranking artifacts"
      "\nof a finite population and are excluded from collapse claims)")

pooled = np.concatenate(rescaled[6:])
fit = fit_mig_mle(pooled)
p, se = fit.params, fit.se
print("\nmodified inverse gamma fit of the pooled rescaled volatilities:")
print(f"  scale    {p['scale']:.3f} ({se['scale']:.3f})")
print(f"  shape    {p['shape']:.3f} ({se['shape']:.3f})")
loc_se = f"({se['location']:.3f})" if "location" in se else "(boundary, no wald se)"
print(f"  location {p['location']:.3f} {loc_se}")
print("the fitted right-tail exponent -(1 + shape) is far steeper than the"
      f"\nasymptotic -(1 + mu) = {-(1 + MU):.1f}: at reachable sub-unit counts"
      "\nthe power-law window is squeezed by the hard bound vol <= sigma0.")

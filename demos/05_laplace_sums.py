#!/usr/bin/env python3
"""Sums of Laplace variables: the cusp is not stable under aggregation.

The normalized sum of k unit Laplace variables has a closed-form density
(a polynomial times a two-sided exponential).  Already at k = 2 the central
cusp is gone, and by k = 8 the density is close to Gaussian while the tails
stay exponential.
"""

import numpy as np

from firmgrowth.distributions import laplace_sum_pdf

print("density at selected points (closed form vs Monte Carlo, 2e6 sums):")
rng = np.random.default_rng(5)
for k in (1, 2, 4, 8):
    draws = rng.laplace(size=(2_000_000, k)).sum(axis=1) / np.sqrt(2 * k)
    for y in (0.0, 1.0, 3.0):
        width = 0.05
        mc = ((np.abs(draws - y) < width / 2).mean()) / width
        print(f"  k={k} y={y:.0f}: model {laplace_sum_pdf(k, y):.5f}  mc {mc:.5f}")
    gauss_peak = 1 / np.sqrt(2 * np.pi)
    print(f"  k={k} peak {laplace_sum_pdf(k, 0.0):.5f}"
          f" (Gaussian limit {gauss_peak:.5f})\n")

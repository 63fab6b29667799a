"""Descriptive machinery: size binning, scaling fits, densities, tail indices.

All reductions are deterministic given input order (stable sorts only) and
safe to evaluate concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from firmgrowth.groups import _BLOCK, Groups


# ---------------------------------------------------------------------------
# Equal-count binning and binned moments
# ---------------------------------------------------------------------------

def equal_count_bins(keys, n_bins):
    """Group rows into n_bins contiguous rank bins of the keys.

    Keys are sorted once (stable, so ties keep input order) and the sorted
    rows are cut into runs whose sizes differ by at most one, larger runs
    first, as ``np.array_split`` cuts them.  Returns the :class:`Groups` with
    keys 0..n_bins-1, rows in input order within a bin.
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        raise ValueError("keys must be non-empty")
    if not 1 <= n_bins <= keys.size:
        raise ValueError(f"n_bins must lie in [1, {keys.size}], got {n_bins}")
    order = np.argsort(keys, kind="stable")
    counts = np.full(n_bins, keys.size // n_bins)
    counts[: keys.size % n_bins] += 1
    starts = np.cumsum(counts) - counts
    for s, n in zip(starts.tolist(), counts.tolist()):
        order[s : s + n].sort()
    return Groups(np.arange(n_bins), order, starts, counts)


def upper_window_edges(sizes, lo, trim_decades, n_bins):
    """n_bins + 1 log-spaced size-bin edges over the upper size range.

    The window runs from lo up to the largest size trimmed by trim_decades:
    the extreme order statistics alone are too noisy to bin.
    """
    hi = np.log10(np.max(sizes)) - trim_decades
    if 10.0**hi <= lo:
        raise ValueError("size range above the floor is empty")
    return np.logspace(np.log10(lo), hi, n_bins + 1)


def edge_bins(sizes, edges):
    """Group the rows with ``edges[b] <= size < edges[b + 1]`` as bin b.

    Keys are the non-empty bins; rows outside the edges are in no group.
    """
    idx = np.digitize(sizes, edges) - 1
    inside = np.flatnonzero((idx >= 0) & (idx < len(edges) - 1))
    bins = Groups.of(idx[inside])
    return Groups(bins.keys, inside[bins.order], bins.starts, bins.counts)


def binned_means(bins, values):
    """For each array in the iterable `values`, read one at a time, its mean per bin.

    A bin's rows keep their input order, so each mean sees the elements a
    mask per bin would select, in their order.
    """
    return [np.array([part.mean() for part in bins.split(v)]) for v in values]


def binned_volatility_moments(bins, sizes, vols, q_list):
    """Per-bin mean size and ``{q: E[vol^q]}`` over the size `bins`, as arrays."""
    sizes = np.asarray(sizes, dtype=float)
    vols = np.asarray(vols, dtype=float)
    if sizes.shape != vols.shape:
        raise ValueError("sizes and vols must cover the same rows")
    # a generator, so only one power of the volatilities exists at a time
    mean_size, *moments = binned_means(bins, itertools.chain([sizes], (vols**q for q in q_list)))
    return mean_size, dict(zip(q_list, moments))


# ---------------------------------------------------------------------------
# Log-log OLS
# ---------------------------------------------------------------------------

@dataclass
class ScalingFit:
    slope: float
    intercept: float
    se: float  # of the slope
    r2: float


def loglog_ols(x, y):
    """OLS of log y on log x with the textbook slope standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive values")
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    sxx = np.sum((lx - lx.mean()) ** 2)
    if sxx == 0:
        raise ValueError("x values are all equal")
    slope = np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (slope * lx + intercept)
    ssr = float(resid @ resid)
    sst = float(np.sum((ly - ly.mean()) ** 2))
    se = np.sqrt(ssr / max(n - 2, 1) / sxx) if n > 2 else np.inf
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return ScalingFit(float(slope), float(intercept), float(max(se, 1e-300)), float(r2))


def weighted_loglog_slope(x, y, weights):
    """Weighted OLS slope of log y on log x (inverse-variance style weights)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(x <= 0) or np.any(y <= 0) or np.any(w <= 0):
        raise ValueError("weighted log-log fit needs positive values and weights")
    lx, ly = np.log(x), np.log(y)
    xb = np.sum(w * lx) / w.sum()
    yb = np.sum(w * ly) / w.sum()
    sxx = np.sum(w * (lx - xb) ** 2)
    slope = np.sum(w * (lx - xb) * (ly - yb)) / sxx
    return float(slope)


# ---------------------------------------------------------------------------
# Kernel density estimation
# ---------------------------------------------------------------------------

@dataclass
class DensityEstimate:
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.size != self.values.size:
            raise ValueError("grid and values must align")
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("grid must be finite")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")


def normal_reference_bandwidth(samples):
    """1.06 min(sd, IQR/1.34) n^(-1/5); falls back to sd when the IQR is zero."""
    samples = np.asarray(samples, dtype=float)
    sd = samples.std(ddof=1)
    if sd == 0:
        raise ValueError("samples have zero dispersion")
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    a = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 1.06 * a * samples.size ** (-0.2)


def kde_gaussian(samples, grid):
    """Gaussian-kernel density estimate on an explicit evaluation grid.

    The bandwidth is the normal reference rule.  Small problems are
    evaluated exactly; large ones (n_samples x n_grid above ~2e7) go through
    linear binning on a fine internal grid plus FFT convolution, which is
    accurate to well below the statistical error of the estimate.
    """
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    h = normal_reference_bandwidth(samples)
    if not h > 0:
        raise ValueError("bandwidth must be positive")

    if samples.size * grid.size <= int(2e7):
        # blocks of about _BLOCK kernel values; a sum over axis 0 adds the rows
        # one after another, so the running sum goes on in the next block's first row
        rows = max(1, _BLOCK // grid.size)
        values = None
        for i in range(0, samples.size, rows):
            z = (grid[None, :] - samples[i : i + rows, None]) / h
            e = np.exp(-0.5 * z * z)
            if values is not None:
                e[0] += values
            values = e.sum(axis=0)
        values /= samples.size * h * np.sqrt(2 * np.pi)
    else:
        values = _kde_binned(samples, grid, h)
    return DensityEstimate(grid, values)


def _kde_binned(samples, grid, h):
    lo = min(samples.min(), grid[0]) - 3 * h
    hi = max(samples.max(), grid[-1]) + 3 * h
    n_fine = 1 << 16
    step = (hi - lo) / (n_fine - 1)
    # linear binning: split each sample's mass between its two nearest nodes,
    # in blocks of _BLOCK samples; every left-node weight goes in first, then
    # every right-node one, so each node sums its weights in the whole-array order
    weights = np.zeros(n_fine)
    for right in (False, True):
        for i in range(0, samples.size, _BLOCK):
            pos = (samples[i : i + _BLOCK] - lo) / step
            left = np.floor(pos).astype(np.int64)
            frac = pos - left
            if right:
                np.add.at(weights, np.minimum(left + 1, n_fine - 1), frac)
            else:
                np.add.at(weights, left, 1.0 - frac)
    half_width = int(np.ceil(8.5 * h / step))
    offsets = np.arange(-half_width, half_width + 1) * step
    kernel = np.exp(-0.5 * (offsets / h) ** 2) / (h * np.sqrt(2 * np.pi))
    dens = _convolve_same(weights, kernel) / samples.size
    return np.interp(grid, lo + step * np.arange(n_fine), np.maximum(dens, 0.0))


def _convolve_same(a, kernel):
    """``scipy.signal.fftconvolve(a, kernel, mode="same")`` for 1-D real arrays.

    The same real transforms at the same length, so the result is bit-identical
    (NumPy 2's pocketfft gives ``scipy.fft``'s bits); no SciPy module loads.
    """
    n = a.size + kernel.size - 1
    nfft = _next_fast_len(n)
    full = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(kernel, nfft), nfft)
    return full[(n - a.size) // 2 :][: a.size]


def _next_fast_len(n):
    """The smallest ``2**a * 3**b * 5**c >= n``, as ``scipy.fft.next_fast_len(n, True)``."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power of two that takes p35 to n or beyond
            best, p35 = min(best, p35 << (-(-n // p35) - 1).bit_length()), p35 * 3
        p5 *= 5
    return best


# ---------------------------------------------------------------------------
# Curve collapse
# ---------------------------------------------------------------------------

def rescale_collapse(bins, vols):
    """Each size bin's volatilities divided by the bin's mean, so every bin has mean one.

    A bin whose mean is not positive raises ValueError naming the bin.
    """
    vols = np.asarray(vols, dtype=float)
    (means,) = binned_means(bins, [vols])
    for key, mean in zip(bins.keys.tolist(), means.tolist()):
        if not mean > 0:
            raise ValueError(f"bin {key} has mean {mean!r}, so it cannot be rescaled by it")
    return [v / mean for v, mean in zip(bins.split(vols), means)]


# ---------------------------------------------------------------------------
# Tail index
# ---------------------------------------------------------------------------

def hill_estimator(samples, top_fraction):
    """Hill tail-index estimate over the top order statistics.

    Returns (index, se) with se = index / sqrt(k).  Requires at least 50
    samples in the selected top fraction.
    """
    samples = np.asarray(samples, dtype=float)
    if not 0 < top_fraction < 1:
        raise ValueError("top_fraction must lie in (0, 1)")
    if np.any(samples <= 0):
        raise ValueError("hill estimator needs positive samples")
    k = int(np.floor(samples.size * top_fraction))
    if k < 50:
        raise ValueError(f"only {k} samples in the top fraction; need at least 50")
    srt = np.sort(samples)[::-1]
    threshold = srt[k]
    if srt[0] <= threshold or threshold <= 0:
        raise ValueError("degenerate tail: top samples are all equal")
    index = k / np.sum(np.log(srt[:k] / threshold))
    return float(index), float(index / np.sqrt(k))


def hill_profile(samples, fractions=(0.005, 0.01, 0.02, 0.05)):
    """Hill estimates across several top fractions.

    A stable plateau across fractions indicates a genuine power-law tail;
    an index drifting upward as the fraction shrinks is the signature of a
    thin (e.g. exponential) tail.
    """
    return {f: hill_estimator(samples, f) for f in fractions}


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distances
# ---------------------------------------------------------------------------

def ks_distance(samples, cdf):
    """Sup-norm distance between the empirical CDF and a reference CDF."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    n = samples.size
    ref = np.asarray(cdf(samples), dtype=float)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_2sample(a, b):
    """Two-sample sup-norm distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    allv = np.concatenate([a, b])
    allv.sort(kind="mergesort")
    ca = np.searchsorted(a, allv, side="right") / a.size
    cb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.abs(ca - cb).max())

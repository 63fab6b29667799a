"""Granular firm populations: sub-unit draws, concentration, growth, panels.

A firm is a vector of positive sub-unit sizes.  Two generative modes are
supported: a fixed sub-unit count per firm, and a Pareto-distributed count
(heavy-tailed in both the number and the size of sub-units).  Large-scale
Monte Carlo work uses :class:`FirmPopulation`, a flat ragged-array layout.

Randomness contract: each firm of a simulated panel has its own Philox4x64-10
substream, keyed by ``(firm_id << 64) | (seed mod 2**64)`` with the counter
starting at zero.
:func:`simulate_panel` builds no generator per firm: it computes the Philox
blocks of a whole block of firms at once in NumPy (:func:`_philox_doubles`),
so every firm gets exactly the numbers its own generator would draw, however
the firms are blocked.  Batch experiment samplers instead consume a single
generator with a documented draw order (counts first, then sizes, both in
firm order), which is deterministic for a fixed seed.  They draw that one
stream in contiguous segments, one thread per core, each from a copy of the
generator jumped to the segment's first word (see :func:`_in_segments`), so
the numbers do not depend on the core count.
"""

from __future__ import annotations

import copy
import csv
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy

from firmgrowth.analysis import binned_means, edge_bins, upper_window_edges, weighted_loglog_slope
from firmgrowth.distributions import ndtri, pareto_sample
from firmgrowth.groups import _BLOCK, Groups

_SEED_MASK = (1 << 64) - 1
_MULTIPLIER_FLOOR = 1e-6
# simulate_panel's Gaussian shocks below which ndtri's port costs less than loading scipy.special
_NDTRI_PORT_SHOCKS = 1 << 20


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedCount:
    """Every firm has exactly `count` sub-units."""

    count: int

    def __post_init__(self):
        if not (isinstance(self.count, (int, np.integer)) and self.count >= 1):
            raise ValueError(f"count must be a positive integer, got {self.count}")


@dataclass(frozen=True)
class ParetoCount:
    """Sub-unit count drawn as ceil of a continuous Pareto(1, alpha) variable."""


_SHOCK_LAWS = ("gaussian", "laplace", "student_t")


@dataclass(frozen=True)
class ModelParams:
    """Generative parameters shared by both granular models.

    mu is the sub-unit size tail index (1 < mu < 2), alpha the sub-unit count
    tail index (used only with ParetoCount, 1 < alpha < mu), s0 the minimal
    sub-unit size and sigma0 the common shock scale.  Shock laws are
    normalized to unit variance.
    """

    mu: float
    s0: float = 1.0
    sigma0: float = 0.1
    k_mode: Union[FixedCount, ParetoCount] = field(default_factory=lambda: FixedCount(1))
    alpha: float | None = None
    shock_law: str = "gaussian"
    student_dof: float = 5.0

    def __post_init__(self):
        if not 1.0 < self.mu < 2.0:
            raise ValueError(f"mu must lie in (1, 2), got {self.mu}")
        if not 0 < self.s0 < math.inf:
            raise ValueError(f"s0 must be positive and finite, got {self.s0}")
        if not 0 <= self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be non-negative and finite, got {self.sigma0}")
        if isinstance(self.k_mode, ParetoCount):
            if self.alpha is None or not 1.0 < self.alpha < self.mu:
                raise ValueError(
                    f"ParetoCount requires 1 < alpha < mu, got alpha={self.alpha}, mu={self.mu}"
                )
        elif not isinstance(self.k_mode, FixedCount):
            raise ValueError(f"unknown k_mode {self.k_mode!r}")
        if self.shock_law not in _SHOCK_LAWS:
            raise ValueError(f"shock_law must be one of {_SHOCK_LAWS}, got {self.shock_law!r}")
        if self.shock_law == "student_t" and not 2 < self.student_dof < math.inf:
            raise ValueError(f"student_t needs a finite student_dof > 2, got {self.student_dof}")

    def to_dict(self):
        if isinstance(self.k_mode, FixedCount):
            k_mode = {"mode": "fixed", "count": int(self.k_mode.count)}
        else:
            k_mode = {"mode": "pareto"}
        return {
            "mu": self.mu,
            "alpha": self.alpha,
            "s0": self.s0,
            "sigma0": self.sigma0,
            "k_mode": k_mode,
            "shock_law": self.shock_law,
            "student_dof": self.student_dof if self.shock_law == "student_t" else None,
        }


def shocks_from_uniforms(u, law="gaussian", student_dof=5.0):
    """Unit-variance shock(s) from uniform(s) by inverse CDF."""
    u = np.asarray(u, dtype=float)
    if law == "gaussian":
        return scipy.special.ndtri(u)
    if law == "laplace":
        b = 1.0 / np.sqrt(2.0)
        return np.where(
            u < 0.5,
            b * np.log(np.maximum(2.0 * u, 1e-300)),
            -b * np.log(np.maximum(2.0 * (1.0 - u), 1e-300)),
        )
    if law == "student_t":
        return scipy.special.stdtrit(student_dof, u) * np.sqrt((student_dof - 2.0) / student_dof)
    raise ValueError(f"unknown shock law {law!r}")


# ---------------------------------------------------------------------------
# RNG substreams
# ---------------------------------------------------------------------------

# Philox4x64-10 as NumPy computes it: round multipliers and key (Weyl) bumps
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Philox blocks per kernel pass: each temporary is 128 kB and stays in cache
_PHILOX_CHUNK = 1 << 14
_LO32 = np.uint64(0xFFFFFFFF)


def _mulhilo(a, m):
    """The high and low 64-bit words of the 128-bit products ``a * m``, from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> 32
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    mid = a_hi * m_lo + ((a_lo * m_lo) >> 32)
    cross = a_lo * m_hi + (mid & _LO32)
    return a_hi * m_hi + (mid >> 32) + (cross >> 32), a * np.uint64(m)


def _philox_doubles(seed, firm_ids, counters):
    """Row i: the 4 doubles of block ``counters[i]`` of firm ``firm_ids[i]``'s substream.

    A firm's substream is NumPy's Philox generator keyed by
    ``(firm_id << 64) | (seed mod 2**64)``, its counter starting at zero.
    Block b holds its words 4b to 4b + 3: Philox4x64-10 under key
    ``(seed mod 2**64, firm_id)`` and counter ``(b + 1, 0, 0, 0)``, each word
    made a double in [0, 1) as ``(word >> 11) * 2**-53``.  So the rows of one
    firm's blocks 0, 1, ... flatten to what its generator's ``random`` returns.
    """
    firm_ids, counters = np.asarray(firm_ids), np.asarray(counters)
    out = np.empty((firm_ids.size, 4))
    for lo in range(0, firm_ids.size, _PHILOX_CHUNK):
        hi = min(lo + _PHILOX_CHUNK, firm_ids.size)
        key0, key1 = int(seed) & _SEED_MASK, firm_ids[lo:hi].astype(np.uint64)
        zero = np.zeros(hi - lo, dtype=np.uint64)
        ctr = (counters[lo:hi].astype(np.uint64) + np.uint64(1), zero, zero, zero)
        for r in range(10):
            if r:
                key0 = (key0 + _PHILOX_W[0]) & _SEED_MASK
                key1 += np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(ctr[0], _PHILOX_M[0])
            hi1, lo1 = _mulhilo(ctr[2], _PHILOX_M[1])
            ctr = (hi1 ^ ctr[1] ^ np.uint64(key0), lo1, hi0 ^ ctr[3] ^ key1, lo0)
        for j, word in enumerate(ctr):
            np.multiply(word >> 11, 2.0**-53, out=out[lo:hi, j])
    return out


# ---------------------------------------------------------------------------
# Firms and populations
# ---------------------------------------------------------------------------

class FirmPopulation:
    """Ragged collection of firms stored as a flat sub-unit array.

    Per-firm sums use ``np.add.reduceat`` on `offsets`, not :class:`Groups`:
    it reads each sub-unit once, where ``Groups.reduce`` copies them all and
    scans every firm once per distinct count.  At fig4's seed, 2,000,000 firms
    hold 24.5M sub-units in 1,742 counts: ``sizes()`` took 0.08 s, ``Groups``
    0.65 s to sort and 3.9 s to reduce (2 cores), and 16 % of its sums differ
    from ``reduceat``'s in the last bit.
    """

    def __init__(self, sub_unit_sizes, counts):
        self.sub_unit_sizes = np.asarray(sub_unit_sizes, dtype=float)
        self.counts = np.asarray(counts, dtype=np.int64)
        if np.any(self.counts < 1):
            raise ValueError("every firm needs at least one sub-unit")
        if self.counts.sum() != self.sub_unit_sizes.size:
            raise ValueError("counts do not match the flat sub-unit array")
        self.offsets = np.concatenate(([0], np.cumsum(self.counts)))
        self._sizes = None

    @property
    def n_firms(self):
        return self.counts.size

    def sizes(self):
        """Each firm's size, the sum of its sub-units: summed on the first call only.

        The array is shared between calls, so it is read-only.
        """
        if self._sizes is None:
            self._sizes = np.add.reduceat(self.sub_unit_sizes, self.offsets[:-1])
            self._sizes.flags.writeable = False
        return self._sizes

    def hhi(self):
        s2 = np.add.reduceat(self.sub_unit_sizes**2, self.offsets[:-1])
        return s2 / self.sizes() ** 2

    def growth_rates(self, shocks, sigma0):
        """One-period growth rates given one unit-variance shock per sub-unit."""
        shocks = np.asarray(shocks, dtype=float)
        if shocks.size != self.sub_unit_sizes.size:
            raise ValueError("need exactly one shock per sub-unit")
        num = np.add.reduceat(self.sub_unit_sizes * shocks, self.offsets[:-1])
        return sigma0 * num / self.sizes()


# ---------------------------------------------------------------------------
# Drawing firms
# ---------------------------------------------------------------------------

def _draw_counts(params: ModelParams, n, rng):
    if isinstance(params.k_mode, FixedCount):
        return np.full(n, params.k_mode.count, dtype=np.int64)
    # continuous Pareto(1, alpha) rounded up to an integer count
    return np.ceil(pareto_sample(rng.random(n), 1.0, params.alpha)).astype(np.int64)


def _advanced(bit_generator, words):
    """A copy of `bit_generator` moved on by `words` 64-bit words, or None.

    The copy stands where `words` calls of ``random_raw`` would leave the
    original, which does not move.  Philox and PCG64 can jump there without
    drawing the words in between; for any other bit generator this returns
    None.
    """
    before = bit_generator.state
    jumped = copy.deepcopy(bit_generator)
    if isinstance(jumped, np.random.Philox):
        # Philox makes 4 words per counter block: use up the buffered block,
        # skip whole blocks, then draw the rest of the last one, so that its
        # buffer holds what a serial draw would leave there
        left = min(words, 4 - before["buffer_pos"])
        jumped.random_raw(left)
        if words > left:
            blocks, rest = divmod(words - left - 1, 4)
            jumped.advance(blocks)
            jumped.random_raw(rest + 1)
    elif isinstance(jumped, np.random.PCG64):
        jumped.advance(words)
    else:
        return None
    # advance() also drops a held 32-bit half word, which no 64-bit draw uses
    state = jumped.state
    state["has_uint32"], state["uinteger"] = before["has_uint32"], before["uinteger"]
    jumped.state = state
    return jumped


def _in_segments(rng, n_rows, row_words, fill, n_segments=None):
    """Call ``fill(gen, lo, hi)`` on segments of rows [0, n_rows), as one serial draw would.

    Row i owns words ``[i * row_words, (i + 1) * row_words)`` of `rng`'s
    stream, and `fill` must draw exactly those for rows lo to hi from `gen`.
    The rows are cut into `n_segments` contiguous segments (one per usable
    core by default), each filled on its own thread from a copy of the bit
    generator jumped to its first row (:func:`_advanced`); then `rng` is set
    to where the serial draw would leave it.  So the numbers do not depend on
    the segment count.  When the bit generator cannot jump, one segment is
    filled on the calling thread from `rng` itself.
    """
    if n_segments is None:
        # the cores this process may run on (all of them where that is unknown)
        affinity = getattr(os, "sched_getaffinity", None)
        n_segments = len(affinity(0)) if affinity else os.cpu_count() or 1
    bounds = sorted({n_rows * i // n_segments for i in range(n_segments + 1)})
    bit_generator = rng.bit_generator
    gens = [_advanced(bit_generator, lo * row_words) for lo in bounds[:-1]]
    if len(gens) == 1 or gens[0] is None:
        fill(rng, 0, n_rows)
        return
    from concurrent.futures import ThreadPoolExecutor

    # NumPy releases the GIL in Generator.random(out=) and in the ufunc loops
    with ThreadPoolExecutor(len(gens)) as pool:
        futures = [
            pool.submit(fill, np.random.Generator(gen), lo, hi)
            for gen, lo, hi in zip(gens, bounds, bounds[1:])
        ]
        for future in futures:
            future.result()
    bit_generator.state = _advanced(bit_generator, n_rows * row_words).state


def draw_population(params: ModelParams, n_firms, rng) -> FirmPopulation:
    """Draw a population of `n_firms` firms.

    Draw order is fixed: all counts in firm order, then all sub-unit sizes in
    firm order, so a given generator state determines the population exactly.
    The sizes are drawn in blocks of ``_BLOCK`` on :func:`_in_segments`' threads.
    """
    if n_firms < 1:
        raise ValueError("n_firms must be >= 1")
    counts = _draw_counts(params, n_firms, rng)
    flat = np.empty(int(counts.sum()))

    def fill(gen, lo, hi):
        for a in range(lo, hi, _BLOCK):
            u = gen.random(out=flat[a : min(a + _BLOCK, hi)])
            u[:] = pareto_sample(u, params.s0, params.mu)

    _in_segments(rng, flat.size, 1, fill)
    return FirmPopulation(flat, counts)


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

_PANEL_COLUMNS = [("firm_id", np.int64), ("period", np.int64), ("size", float)]
# NumPy's messages for a cell it cannot convert, whose row it counts from 0, and for a row too
# short for a column, whose row it counts from 1; compiled on the first fault, not at import
_UNCONVERTED = r"(could not convert .*) at row (\d+), column (\d+)\."
_SHORT_ROW = r"invalid column index (\d+) at row (\d+) with (\d+) columns"


def load_csv_rows(source, what, **kwargs):
    """``np.loadtxt`` of comma-separated data rows (blank lines skipped), at least 1-D.

    ``#`` starts no comment, so a cell that holds one fails to convert.  No data rows give an
    empty array, without NumPy's warning.  A cell NumPy cannot convert, or a row too short for
    a column, raises ValueError ``"{what}, row N: ..."`` with its 1-based data row, as every
    other reader counts rows, and its 1-based column.
    """
    with warnings.catch_warnings():  # no data rows is the caller's to report
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(source, delimiter=",", ndmin=1, comments=None, **kwargs)
        except ValueError as exc:
            if fault := re.fullmatch(_UNCONVERTED, str(exc)):
                row, cause = int(fault[2]) + 1, f"{fault[1]} in column {fault[3]}"
            elif fault := re.fullmatch(_SHORT_ROW, str(exc)):
                row, cause = fault[2], f"has {fault[3]} column(s), needs column {int(fault[1]) + 1}"
            else:
                raise
            raise ValueError(f"{what}, row {row}: {cause}") from None


def read_columns(path, what, columns):
    """The `columns`, (name, dtype) pairs, of a CSV file whose header row names them in any order.

    A structured array read by :func:`load_csv_rows`, quoted as ``csv.reader`` reads; a repeated
    name is its last column.  A missing name raises ValueError ``"{what} lacks column(s) ..."``,
    and a file without data rows ``"{what} has no data rows"``.
    """
    with open(path) as fh:
        where = {name.strip(): i for i, name in enumerate(next(csv.reader(fh), []))}
        missing = [name for name, _ in columns if name not in where]
        if missing:
            raise ValueError(f"{what} lacks column(s) {', '.join(missing)}")
        cols = [where[name] for name, _ in columns]
        rows = load_csv_rows(fh, what, usecols=cols, dtype=columns, quotechar='"')
    if rows.size == 0:
        raise ValueError(f"{what} has no data rows")
    return rows


@dataclass
class Panel:
    """Firm-by-period size observations in long format, one row per firm and period.

    ``period`` is an integer index: 0, 1, ... on a simulated panel and
    ``4 * year + quarter - 1`` on quarterly data, so one period is one
    quarter and a year is four.  ``fiscal_year_end_month`` holds each row's
    fiscal year-end month (-1 where unknown), or None on a simulated panel.
    ``dataclasses.replace(panel, size=...)`` copies it with new sizes.
    """

    firm_id: np.ndarray
    period: np.ndarray
    size: np.ndarray
    fiscal_year_end_month: np.ndarray | None = None

    def __post_init__(self):
        self.firm_id = np.asarray(self.firm_id)
        self.period = np.asarray(self.period, dtype=np.int64)
        self.size = np.asarray(self.size, dtype=float)
        columns = [self.firm_id, self.period, self.size]
        if self.fiscal_year_end_month is not None:
            self.fiscal_year_end_month = np.asarray(self.fiscal_year_end_month, dtype=np.int64)
            columns.append(self.fiscal_year_end_month)
        if len({len(col) for col in columns}) != 1:
            raise ValueError("panel columns must have equal length")

    def __len__(self):
        return len(self.firm_id)

    @property
    def n_records(self):
        return len(self)

    def select(self, mask):
        """The rows where `mask` is true, in their order."""
        months = self.fiscal_year_end_month
        return Panel(
            self.firm_id[mask], self.period[mask], self.size[mask],
            None if months is None else months[mask],
        )

    @classmethod
    def read_csv(cls, path):
        """Read a panel CSV by :func:`read_columns`; the first size that is not a positive
        finite number raises ValueError with its 1-based data row."""
        rows = read_columns(path, f"panel CSV {path}", _PANEL_COLUMNS)
        bad = np.flatnonzero(~(np.isfinite(rows["size"]) & (rows["size"] > 0)))
        if bad.size:
            raise ValueError(
                f"panel CSV {path}, row {bad[0] + 1}: size {float(rows['size'][bad[0]])!r}"
                " is not a positive finite number"
            )
        return cls(rows["firm_id"], rows["period"], rows["size"])


@np.errstate(over="ignore", invalid="ignore")  # a size that overflows raises below
def simulate_panel(params: ModelParams, n_firms, n_periods, seed):
    """Simulate a panel of firm sizes under multiplicative sub-unit shocks.

    Each firm evolves on its own substream, Philox keyed by
    ``(firm_id << 64) | (seed mod 2**64)`` with the counter at zero: first
    the count draw (ParetoCount only), then the initial sizes, then one block
    of shock uniforms per period in period-major order.  Per-period size
    multipliers 1 + sigma0 * shock are floored at 1e-6 to preserve positivity;
    the number of floored multipliers is returned as the clamp count.

    The firms go in blocks of about ``_BLOCK`` words, the firms of one sub-unit
    count k side by side in a block's :func:`_philox_doubles` streams, whose
    uniforms become shocks in place, ``_BLOCK // 4`` at a time: NumPy's
    ``ndtri`` port below ``_NDTRI_PORT_SHOCKS`` Gaussian shocks a run, else
    :func:`shocks_from_uniforms` (the same bits).  The firms of each k are
    reduced as one (firms, periods, k) view, row by row as a single firm.  So
    every firm's sizes are bit-identical to simulating it alone from its own
    generator, and none depends on the order or blocking of the firms.

    Returns (Panel, clamp_count); a size that is not finite raises ValueError.
    """
    if n_firms < 1:
        raise ValueError("n_firms must be >= 1")
    if n_periods < 2:
        raise ValueError("n_periods must be >= 2")

    if isinstance(params.k_mode, FixedCount):
        head = 0
        counts = np.full(n_firms, params.k_mode.count, dtype=np.int64)
    else:
        # the count is word 0; its Pareto draw stays a Python float, whose
        # power may differ from the array one in the last bit
        head = 1
        u = _philox_doubles(seed, np.arange(n_firms), np.zeros(n_firms, np.int64))[:, 0].tolist()
        counts = np.array([math.ceil(pareto_sample(x, 1.0, params.alpha)) for x in u])
        del u  # a Python float per firm, not to be held through the firm blocks
    words = head + counts * n_periods
    port = params.shock_law == "gaussian" and counts.sum() * (n_periods - 1) < _NDTRI_PORT_SHOCKS
    # firm blocks of about _BLOCK words; a firm with more words is a block of its own
    ends = np.cumsum(words)
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK)) + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n_firms]))).tolist()

    sizes = np.empty((n_firms, n_periods))
    clamp_count = sum(
        _simulate_block(params, seed, head, port, lo, counts[lo:hi], sizes)
        for lo, hi in zip(bounds, bounds[1:])
    )
    if not np.isfinite(sizes).all():
        raise ValueError(f"firm {np.argwhere(~np.isfinite(sizes))[0, 0]}: a size is not finite")

    firm_id = np.repeat(np.arange(n_firms, dtype=np.int64), n_periods)
    period = np.tile(np.arange(n_periods, dtype=np.int64), n_firms)
    return Panel(firm_id, period, sizes.ravel()), clamp_count


def _simulate_block(params, seed, head, port, lo, counts, sizes):
    """Rows ``lo, lo + 1, ...`` of `sizes`, for firms of sub-unit counts `counts`, as
    :func:`simulate_panel` draws them; returns their clamp count."""
    n_periods = sizes.shape[1]
    # the block's streams, its firms ordered by sub-unit count k: the firms of one k
    # are consecutive rows of u, each firm a row of its 4 * n_blocks words
    groups = Groups.of(counts)
    firms = lo + groups.order
    n_blocks = (head + counts[groups.order] * n_periods + 3) // 4
    first = np.concatenate(([0], np.cumsum(n_blocks)))
    block = np.arange(first[-1]) - np.repeat(first[:-1], n_blocks)
    u = _philox_doubles(seed, np.repeat(firms, n_blocks), block).ravel()
    at = (4 * first).tolist()  # each firm's first word, then the end
    runs = zip(groups.keys.tolist(), groups.starts.tolist(), groups.counts.tolist())
    by_count = [(k, firms[i : i + n], u[at[i] : at[i + n]].reshape(n, -1)) for k, i, n in runs]
    # each firm's k sub-unit sizes from its first k words, before the shocks overwrite them
    initial = [pareto_sample(x[:, head : head + k], params.s0, params.mu) for k, _, x in by_count]
    # the shock step, in place and _BLOCK // 4 at a time, so a shock call's temporaries stay small
    for i in range(0, u.size, _BLOCK // 4):
        v = u[i : i + _BLOCK // 4]
        v[:] = ndtri(v) if port else shocks_from_uniforms(v, params.shock_law, params.student_dof)
    clamp_count = 0
    for (k, f, x), s in zip(by_count, initial):
        sizes[f, 0] = s.sum(axis=1)
        # (firm, period, sub-unit): each period's multipliers, in place of its shocks
        mult = x[:, head + k : head + k * n_periods].reshape(f.size, n_periods - 1, k)
        mult *= params.sigma0
        mult += 1.0
        clamp_count += int(np.count_nonzero(mult < _MULTIPLIER_FLOOR))
        np.maximum(mult, _MULTIPLIER_FLOOR, out=mult)
        np.cumprod(mult, axis=1, out=mult)
        sizes[f, 1:] = np.matmul(mult, s[..., None])[..., 0]
    return clamp_count


# ---------------------------------------------------------------------------
# Population-level diagnostics
# ---------------------------------------------------------------------------

def fraction_few_subunits(population: FirmPopulation, size_bin_edges, k_threshold):
    """Per size bin, the fraction of firms with at most k_threshold sub-units.

    Returns (mean_size, fraction, n_firms) arrays, one entry per bin between
    consecutive edges.  Empty bins are reported as NaN, never as zero.
    """
    edges = np.asarray(size_bin_edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("size_bin_edges must be increasing with at least two entries")
    sizes = population.sizes()
    bins = edge_bins(sizes, edges)
    n_firms = np.zeros(edges.size - 1, dtype=np.int64)
    n_firms[bins.keys] = bins.counts
    mean_size, fraction = np.full((2, n_firms.size), np.nan)
    mean_size[bins.keys], fraction[bins.keys] = binned_means(
        bins, (sizes, population.counts <= int(k_threshold))
    )
    return mean_size, fraction, n_firms


# the upper size window of few_subunit_tail_slope
_TAIL_SIZE_FLOOR = 40.0
_TAIL_BINS = 10
_TAIL_TRIM_DECADES = 0.2
_TAIL_MIN_COUNT = 150


def few_subunit_tail_slope(population: FirmPopulation, k_threshold):
    """Log-log slope of the few-sub-unit fraction over the upper size range.

    Log-spaced bins run from _TAIL_SIZE_FLOOR up to the largest size trimmed
    by _TAIL_TRIM_DECADES (see :func:`firmgrowth.analysis.upper_window_edges`).
    Bins need _TAIL_MIN_COUNT firms and a nonzero fraction; the fit weights each
    bin by n * f / (1 - f), the inverse variance of log of a binomial rate.
    Per the tail structure of the size distribution the slope estimates
    alpha - mu.  Returns (slope, n_bins_used, table), where table is the
    (mean_size, fraction, n_firms) result of :func:`fraction_few_subunits`
    over all bins.
    """
    edges = upper_window_edges(population.sizes(), _TAIL_SIZE_FLOOR, _TAIL_TRIM_DECADES, _TAIL_BINS)
    table = fraction_few_subunits(population, edges, k_threshold)
    mean_size, fraction, counts = table
    keep = (counts >= _TAIL_MIN_COUNT) & (fraction > 0) & np.isfinite(fraction)
    if keep.sum() < 3:
        raise ValueError("fewer than 3 usable bins for the tail-fraction fit")
    weights = counts[keep] * fraction[keep] / (1.0 - np.minimum(fraction[keep], 1 - 1e-9))
    slope = weighted_loglog_slope(mean_size[keep], fraction[keep], weights)
    return slope, int(keep.sum()), table


def aggregate_firms(population: FirmPopulation, group_size, rng) -> FirmPopulation:
    """Merge firms into supra-firms of `group_size` by random partition.

    Sub-unit vectors are concatenated, so the total economy size is conserved
    exactly.  When the population size is not a multiple of group_size the
    remainder firms form one final smaller group.
    """
    g = int(group_size)
    n = population.n_firms
    if g < 1:
        raise ValueError("group_size must be >= 1")
    if g > n:
        raise ValueError(f"group_size {g} exceeds population size {n}")
    perm = rng.permutation(n)
    take = _gather_indices(population, perm)
    flat = population.sub_unit_sizes[take]
    counts = population.counts[perm]
    merged_counts = np.add.reduceat(counts, np.arange(0, n, g))
    return FirmPopulation(flat, merged_counts)


def _gather_indices(population, perm):
    # vectorized ragged gather for large populations
    counts = population.counts[perm]
    starts = population.offsets[perm]
    out_off = np.concatenate(([0], np.cumsum(counts)))
    total = int(out_off[-1])
    idx = np.repeat(starts - out_off[:-1], counts) + np.arange(total)
    return idx


def sample_firm_stats(params: ModelParams, k, n_samples, rng):
    """(size, HHI) draws for `n_samples` firms of exactly k sub-units.

    Firm i takes draws ``[i * k, (i + 1) * k)`` of `rng`, as one
    ``rng.random((n_samples, k))`` call would give them; the firms are drawn in
    blocks of about ``_BLOCK`` doubles on :func:`_in_segments`' threads.
    """
    k = int(k)
    n_samples = int(n_samples)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    sizes = np.empty(n_samples)
    hhi_out = np.empty(n_samples)
    rows = max(1, _BLOCK // k)

    def fill(gen, lo, hi):
        # a row's sums do not depend on how many rows share its block
        buf = np.empty((min(rows, hi - lo), k))
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            u = gen.random(out=buf[: b - a])
            s = pareto_sample(u, params.s0, params.mu)
            tot = s.sum(axis=1)
            sizes[a:b] = tot
            hhi_out[a:b] = np.multiply(s, s, out=u).sum(axis=1) / tot**2

    _in_segments(rng, n_samples, k, fill)
    return sizes, hhi_out

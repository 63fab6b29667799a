"""Rows grouped by key (a firm, a size bin), with no pass over all rows per group.

The rows are stable-sorted by key once (a panel's by firm and then period,
:meth:`Groups.by_firm`); each group is then a run of that order, given by its
start and its row count.  A reduction gathers all groups of one length L into
a single ``(n_groups, L)`` array and reduces it along the last axis, so the
Python loop runs once per distinct length, not once per group.

A row-wise reduction of such a block performs, row by row, the same
floating-point operations in the same order as reducing each group on its
own, so the results are bit-identical to a per-group loop.
``np.add.reduceat`` is not: it sums each group sequentially, where
``np.sum`` sums pairwise, and the two differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# elements per block of every blocked kernel (samplers, firm blocks of a panel,
# leave-one-out rows, KDE binning): 1 MB of doubles, so a block and its
# temporaries stay in cache and peak memory does not grow with the input
_BLOCK = 1 << 17


@dataclass(frozen=True)
class Groups:
    """Groups of equal keys, ascending.  :meth:`of` keeps a group's rows in input
    order (or in ascending ``then``); :meth:`by_firm` keeps a firm's in period order."""

    keys: np.ndarray    # one per group, ascending
    order: np.ndarray   # row indices, stable-sorted by key
    starts: np.ndarray  # each group's first position in `order`
    counts: np.ndarray  # each group's number of rows

    @classmethod
    def of(cls, keys, then=None):
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable") if then is None else np.lexsort((then, keys))
        ordered = keys[order]
        starts = np.flatnonzero(np.concatenate(([keys.size > 0], ordered[1:] != ordered[:-1])))
        counts = np.diff(np.append(starts, keys.size))
        return cls(ordered[starts], order, starts, counts)

    @classmethod
    def by_firm(cls, firm_id, period):
        """Firms with their rows in ascending period, and None or the rows ``(first, second)``
        of the repeated (firm, period) whose second row comes first."""
        firms = cls.of(firm_id, then=period)
        later = firms.lag_pairs(period, 0)
        if not np.any(later >= 0):
            return firms, None
        first = int(np.argmin(np.where(later >= 0, later, later.size)))
        return firms, (first, int(later[first]))

    def lag_pairs(self, period, lag):
        """Each row's partner in its :meth:`by_firm` group, `lag` periods on, or -1.  Periods
        strictly increase within a firm with no repeat, so the partner is at most `lag`
        positions on.  With lag 0 it is the next row of a repeat."""
        p = np.asarray(period)[self.order]
        later = np.full(p.size, -1)
        same = np.ones(p.size, dtype=bool)
        for d in range(1, max(lag, 1) + 1):
            # same[i]: positions i and i + d of `order` hold rows of one group
            same = same[:-1]
            same[self.starts[self.starts >= d] - d] = False
            # a step within a group that wraps round int64 turns negative, never a lag
            found = np.flatnonzero(same & (p[d:] - p[:-d] == lag))
            later[self.order[found]] = self.order[found + d]
        return later

    def select(self, mask):
        """The groups where `mask` (one flag per group) is true, over the same rows."""
        return Groups(self.keys[mask], self.order, self.starts[mask], self.counts[mask])

    def rows(self, flags):
        """The same groups over the rows where `flags` (one per row) is true; some may be empty."""
        kept = np.asarray(flags)[self.order]
        before = np.append(0, np.cumsum(kept))  # kept rows ahead of each position
        starts, ends = before[self.starts], before[self.starts + self.counts]
        return Groups(self.keys, self.order[kept], starts, ends - starts)

    def blocks(self, size):
        """Runs of consecutive whole groups of about `size` rows, a longer group a run of its
        own: each run's rows (a slice of `order`) and its groups, indexed over those rows."""
        cuts = np.searchsorted(self.starts, np.arange(size, self.order.size, size))
        bounds = np.unique(np.concatenate(([0], cuts, [self.keys.size]))).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            first, end = self.starts[lo], self.starts[hi - 1] + self.counts[hi - 1]
            yield self.order[first:end], Groups(self.keys[lo:hi], np.arange(end - first),
                                                self.starts[lo:hi] - first, self.counts[lo:hi])

    def split(self, values):
        """Each group's values as one array, rows in `order` within a group."""
        values = np.asarray(values)
        runs = zip(self.starts.tolist(), self.counts.tolist())
        return [values[self.order[s : s + n]] for s, n in runs]

    def reduce(self, values, rowwise):
        """One float per group: ``rowwise`` applied to blocks of equal-length groups.

        `values` holds one entry per row, in input order.  ``rowwise`` maps an
        ``(n, L)`` array to the ``n`` results of its rows.
        """
        values = np.asarray(values)
        out = np.empty(self.keys.size)
        for length in np.unique(self.counts):
            which = np.flatnonzero(self.counts == length)
            # only the rows of these groups are gathered, so after `select`
            # the cost follows the groups kept, not all the rows
            out[which] = rowwise(values[self.order[self.starts[which, None] + np.arange(length)]])
        return out

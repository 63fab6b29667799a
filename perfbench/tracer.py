"""Function spans for the benchmark's traced runs, recorded from outside the package.

:func:`install` wraps the public functions and public methods of the
firmgrowth modules named in :data:`MODULES` and rebinds every module-level
reference to them, so calls through ``from x import f`` names and through
module-level dispatch tables are traced too.  Each span records its name,
thread, start, end, the time its child spans on the same thread took, and
the span that caused it.  Spans stay in memory; :meth:`Tracer.dump` writes
them out when the traced process ends and :func:`summarize` reduces them.

    python3 tracer.py SPANS.npz ...

prints ``{path: [stats, covered_s]}`` as JSON, so the benchmark can reduce
the dumps without loading NumPy into the process that spawns the steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

MODULES = ("cli", "model", "distributions", "analysis", "estimation", "panel", "experiments")
# the entry point itself is the step, which the benchmark already times
ENTRY_POINT = "cli.main"
# the kernel density estimate switches to its binned path above this
# samples x grid product
KDE_BINNED_ABOVE = 2e7


# Counts computed from a traced call's arguments (by parameter name) and
# result, summed per span name.  They mirror the package's own arithmetic and
# are labelled as computed wherever they are reported.  They are evaluated
# inside the span, once per call of these few functions.
COMPUTED = {
    "model.sample_firm_stats": lambda a, r: int(a["n_samples"]) * int(a["k"]),
    "model.simulate_panel": lambda a, r: int(a["n_firms"]) * int(a["n_periods"]),
    "model.Panel.write_csv": lambda a, r: int(a["self"].n_records),
    "model.Panel.read_csv": lambda a, r: int(r.n_records),
    "panel.ingest_csv": lambda a, r: len(r),
    "analysis.kde_gaussian": lambda a, r: int(
        np.size(a["samples"]) * np.size(a["grid"]) > KDE_BINNED_ABOVE
    ),
}


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self.names = []
        # (span id, parent id or -1, name index, thread ident, start, end,
        #  time in child spans on the same thread, computed count)
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, count=None):
        index = len(self.names)
        self.names.append(name)
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                # the root frame holds the thread's ident
                stack = local.stack = [[-1, 0.0, threading.get_ident()]]
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            n = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(_arguments(fn, args, kwargs), result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                # a tuple of numbers, which the garbage collector stops tracking
                spans.append((frame[0], parent[0], index, stack[0][2], t0, t1, frame[1], n))

        return traced

    def dump(self, path):
        """Write the spans as ``.npz``: names, main thread, one row per span."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 8)
        rows[:, 3] = rows[:, 3] == float(threading.main_thread().ident)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names, dtype=str), spans=rows)


def install(tracer):
    """Wrap every public function and method of :data:`MODULES` and rebind the references."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"firmgrowth.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj) and name != ENTRY_POINT:
                wrappers[obj] = tracer.wrap(name, obj, COMPUTED.get(name))
            elif inspect.isclass(obj):
                _wrap_methods(tracer, name, obj)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "firmgrowth" or mod_name.startswith("firmgrowth.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                # dispatch tables such as cli._COMMANDS and experiments._RUNNERS
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]


def _wrap_methods(tracer, class_name, cls):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{class_name}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            fn = member.__func__
            setattr(cls, attr, type(member)(tracer.wrap(name, fn, COMPUTED.get(name))))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member, COMPUTED.get(name)))


def summarize(path):
    """Reduce a span dump to per-name totals.

    Returns ``(stats, covered_s)``.  ``stats`` maps each traced name that ran
    to ``{"s", "self_s", "calls", "count"}``: inclusive seconds (a span nested
    in a span of the same name on the same thread is not counted twice),
    seconds minus child spans on the same thread, calls, and the computed
    count.  ``covered_s`` is the main-thread time inside top-level spans.
    """
    with np.load(path) as dump:
        names = dump["names"].tolist()
        rows = dump["spans"].tolist()
    parent_of = {int(r[0]): int(r[1]) for r in rows}
    name_of = {int(r[0]): int(r[2]) for r in rows}
    stats = {}
    covered = 0.0
    for span_id, parent, n, on_main, t0, t1, child, k in rows:
        name = names[int(n)]
        entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
        entry["calls"] += 1
        entry["self_s"] += t1 - t0 - child
        entry["count"] += int(k)
        ancestor = int(parent)
        while ancestor in name_of and name_of[ancestor] != int(n):
            ancestor = parent_of[ancestor]
        if ancestor not in name_of:
            entry["s"] += t1 - t0
        if parent == -1 and on_main:
            covered += t1 - t0
    return stats, covered


if __name__ == "__main__":
    print(json.dumps({path: summarize(path) for path in sys.argv[1:]}))

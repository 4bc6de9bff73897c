"""Spans around calls into qcsync's public functions, recorded from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``qcsync`` module (``qcsync.netsync.run_session`` as well as
``qcsync.session.run_session``), so calls made between modules are seen,
not only calls from the benchmark. Each call records one span
(name, start, end, parent span, op id) in memory; ``uninstall`` restores
the original bindings. Counts are derived from the public arguments and
return values of the traced calls (tag-stream lengths, ``SessionTruth``
births, coarse-histogram counts, ``histogram_summary["region_total"]``).

Everything runs on one thread, so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_coarse(c, args, kwargs, result):
    c["estimator.coarse_pairs"] += int(result[1].sum())


def _count_correlate(c, args, kwargs, result):
    c["estimator.peak_members"] += int(result.histogram_summary["region_total"])


def _count_local_times(c, args, kwargs, result):
    c["timebase.local_times.tags"] += len(result)


def _count_detect(c, args, kwargs, result):
    c["photonics.detect.events_in"] += len(_arg(args, kwargs, 0, "photon_arrivals_true"))
    c["photonics.detect.tags_out"] += len(result)


def _count_propagate(c, args, kwargs, result):
    c["linkmodel.propagate.photons"] += len(_arg(args, kwargs, 0, "stream_true"))


def _count_session(c, args, kwargs, result):
    c["photonics.births"] += result.truth.births_a + result.truth.births_b


def _count_network(c, args, kwargs, result):
    c["netsync.sync_attempts"] += sum(result.edge_attempts)
    c["netsync.sync_applied"] += sum(result.edge_successes)


def _count_write(c, args, kwargs, result):
    c["tagfiles.tags_written"] += len(_arg(args, kwargs, 1, "stream"))
    c["tagfiles.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(c, args, kwargs, result):
    c["tagfiles.tags_read"] += len(result)


# (defining module, function, span name, counter)
TARGETS = (
    ("qcsync.scenario", "load_scenario", "scenario.load_scenario", None),
    ("qcsync.cli", "main", "cli.main", None),
    ("qcsync.netsync", "run_network", "netsync.run_network", _count_network),
    ("qcsync.session", "run_session", "session.run_session", _count_session),
    ("qcsync.session", "estimate_session", "session.estimate_session", None),
    ("qcsync.photonics", "generate_pair_births", "photonics.generate_pair_births", None),
    ("qcsync.photonics", "split_pairs", "photonics.split_pairs", None),
    ("qcsync.photonics", "detect", "photonics.detect", _count_detect),
    ("qcsync.linkmodel", "propagate", "linkmodel.propagate", _count_propagate),
    ("qcsync.linkmodel", "time_of_flight", "linkmodel.time_of_flight", None),
    ("qcsync.timebase", "local_times", "timebase.local_times", _count_local_times),
    ("qcsync.timebase", "local_time", "timebase.local_time", None),
    ("qcsync.estimator", "frequency_track", "estimator.frequency_track", None),
    ("qcsync.estimator", "cross_correlate", "estimator.cross_correlate", _count_correlate),
    ("qcsync.estimator", "coarse_histogram", "estimator.coarse_histogram", _count_coarse),
    ("qcsync.tagfiles", "write_timetag_file", "tagfiles.write", _count_write),
    ("qcsync.tagfiles", "read_timetag_file", "tagfiles.read", _count_read),
    ("qcsync.seeding", "spawn_rng", "seeding.spawn_rng", None),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    names = SPAN_NAMES

    def __init__(self):
        self.spans: list = []  # (name index, start, end, parent index or -1, op id)
        self.counters: dict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name_idx: int, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent, self.op)
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        """Rebind every traced function in all loaded qcsync modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qcsync" or n.startswith("qcsync.")]
        modules += list(extra_modules)
        for name_idx, (module_name, attr, _, counter) in enumerate(TARGETS):
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name_idx, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """Spans as columns, with self time (duration minus direct children)."""
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        name = rows[:, 0].astype(np.int64)
        parent = rows[:, 3].astype(np.int64)
        duration = rows[:, 2] - rows[:, 1]
        child = np.zeros(len(rows))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name": name,
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": parent,
            "op": rows[:, 4].astype(np.int64),
            "self": duration - child,
            "duration": duration,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            **{k: v for k, v in cols.items() if k not in ("self", "duration")},
        )

    def layer_metrics(self) -> dict:
        """Self time and call count per traced function, plus the counters."""
        cols = self.arrays()
        self_s = np.bincount(cols["name"], weights=cols["self"], minlength=len(SPAN_NAMES))
        calls = np.bincount(cols["name"], minlength=len(SPAN_NAMES))
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.calls"] = int(calls[i])
        out.update(self.counters)
        return out

    def root_time_by_op(self) -> dict:
        """Seconds covered by top-level spans, per op id."""
        cols = self.arrays()
        roots = cols["parent"] < 0
        covered = defaultdict(float)
        for op, d in zip(cols["op"][roots].tolist(), cols["duration"][roots].tolist()):
            covered[op] += d
        return covered

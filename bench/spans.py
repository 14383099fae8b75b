"""In-memory spans for the benchmark's traced runs.

A span records one call into a layer: its name, start and end on the
perf_counter clock, the id of the span that was open on the same thread
when it started (its parent), the thread id, and an item count (rows
handed to a target callable, for instance). Spans are kept in a list while
the workload runs and written out as JSON lines when it ends. A layer's
self time is the duration of its spans minus the part their direct
children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    items: int


class Tracer:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name, items=0):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), int(items))
                )

    def wrap(self, name, fn, count_rows=False):
        """``fn`` with a span around every call; counts rows of argument 0."""

        def traced(*args, **kwargs):
            with self.span(name, len(args[0]) if count_rows else 0):
                return fn(*args, **kwargs)

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), sort_keys=True) + "\n")


class LayerTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    items: int
    durations: np.ndarray


def layer_totals(spans):
    """Per span name: call count, total and self seconds, items, durations."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    grouped = defaultdict(list)
    for s in spans:
        grouped[s.name].append(s)
    out = {}
    for name, group in grouped.items():
        durs = np.array([s.end - s.start for s in group])
        out[name] = LayerTotals(
            calls=len(group),
            total_s=float(durs.sum()),
            self_s=float(sum(s.end - s.start - covered[s.id] for s in group)),
            items=sum(s.items for s in group),
            durations=durs,
        )
    return out


NO_SPANS = LayerTotals(0, 0.0, 0.0, 0, np.zeros(0))

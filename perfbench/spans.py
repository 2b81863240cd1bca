"""In-memory span recorder for the traced benchmark run.

Spans are recorded only at boundaries the benchmark owns: calls it makes
into public ``stochpid`` functions and the plant callables it passes in.
Each span keeps (id, name, tag, start_ns, end_ns, parent id, op id).  Spans
opened on a worker thread that has no open span of its own take as parent
the innermost span open on the thread that started the current op, which is
the ``simulate`` span while ``simulate_paths`` runs its chunks.

Layer times are exclusive wall time: every instant of an op is credited to
the deepest span open at that instant.  When worker threads overlap, an
instant in which any thread is inside a plant callable is plant time, which
is why layer times plus ``other`` add up to the traced wall exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

FIELDS = ("id", "name", "tag", "start_ns", "end_ns", "parent", "op")
ROOTS = ("setup", "op")  # root spans; their exclusive time is reported as other_s


class Tracer:
    """Records spans and counters in memory until :meth:`write` is called."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._stacks = threading.local()
        self._owner_stack = []  # stack of the thread that runs the current op
        self._op = None

    def _stack(self):
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag: int = 0):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, tag, start, end, parent, self._op))

    @contextmanager
    def root(self, name: str, op):
        """Open a root span (``setup`` or one ``op``) on the calling thread."""
        self._op = op
        self._owner_stack = self._stack()
        with self.span(name):
            yield

    def wrap(self, name: str, fn, tag=None):
        """``fn`` inside a span; ``tag(*args, **kwargs)`` labels the span."""

        def traced(*args, **kwargs):
            with self.span(name, tag(*args, **kwargs) if tag else 0):
                return fn(*args, **kwargs)

        return traced

    def wrap_plant(self, plant, drift_name: str, diffusion_name: str):
        """Copy of a PlantSpec whose drift and diffusion callables are spanned."""
        return dataclasses.replace(
            plant,
            drift=self.wrap(drift_name, plant.drift),
            diffusion=self.wrap(diffusion_name, plant.diffusion),
        )

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "counts": dict(self.counts), "spans": self.spans}, fh)


def exclusive_times(spans) -> dict:
    """Seconds of wall time credited to each span name (deepest open span wins).

    Spans are grouped by op; within an op the timeline is swept once and each
    elementary interval goes to the deepest open span, ties going to the span
    opened first.
    """
    parent = {s[0]: s[5] for s in spans}
    depth = {}

    def depth_of(sid):
        if sid not in depth:
            up = parent.get(sid)
            depth[sid] = 0 if up is None else depth_of(up) + 1
        return depth[sid]

    by_op = defaultdict(list)
    for s in spans:
        by_op[s[6]].append(s)
    totals = defaultdict(int)
    for op_spans in by_op.values():
        events = []
        for s in op_spans:
            if s[4] == s[3]:
                continue  # takes no time; its close would sort before its open
            key = (depth_of(s[0]), -s[3], s[1])
            events.append((s[3], 1, s[0], key))
            events.append((s[4], 0, s[0], key))
        events.sort(key=lambda e: (e[0], e[1]))
        active = {}
        prev = None
        for t, opening, sid, key in events:
            if active and t > prev:
                totals[max(active.values())[2]] += t - prev
            if opening:
                active[sid] = key
            else:
                del active[sid]
            prev = t
    return {name: ns * 1e-9 for name, ns in totals.items()}

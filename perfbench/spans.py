"""In-memory spans for the traced run, and the statistics read from them.

A span is one call into a layer: name, start, end, the span that was
open when it began (its parent) and the operation it belongs to. Spans
stay in memory until the run ends. Counts recorded at the same call
sites sit next to them, so ratios are taken where the work happens.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end")

    def __init__(self, sid, name, parent, op, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_obj(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end}


class NullTracer:
    """Tracing off: every hook does nothing."""

    active = False
    _null = contextlib.nullcontext()

    def span(self, name, op=None):
        return self._null

    def count(self, name, n):
        pass

    def tally(self, name, seconds):
        pass


class Tracer:
    active = True

    def __init__(self):
        self.spans: list[Span] = []  # in order of completion
        self.counts: dict[str, int] = defaultdict(int)
        # name -> [calls, seconds], for calls too many to keep as spans
        self.tallies: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        s = Span(next(self._ids), name, parent.id if parent else None, op,
                 time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def count(self, name, n):
        self.counts[name] += n

    def tally(self, name, seconds):
        t = self.tallies[name]
        t[0] += 1
        t[1] += seconds

    # -- reading the trace --

    def named(self, name) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name) -> float:
        return sum(s.duration for s in self.named(name))

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the part its children cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out

    def problems(self) -> list[str]:
        """Ways the span tree is malformed: a parent that was never
        recorded, a span still open, or a child outside its parent."""
        by_id = {s.id: s for s in self.spans}
        out = [f"span {s.name} still open" for s in self._stack]
        if len(by_id) != len(self.spans):
            out.append("duplicate span ids")
        for s in self.spans:
            if s.end < s.start:
                out.append(f"span {s.id} {s.name} ends before it starts")
            if s.parent is None:
                continue
            p = by_id.get(s.parent)
            if p is None:
                out.append(f"span {s.id} {s.name}: parent {s.parent} "
                           f"missing")
            elif s.start < p.start or s.end > p.end:
                out.append(f"span {s.id} {s.name} lies outside parent "
                           f"{p.id} {p.name}")
        return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(median, tail, sample count). The tail is the largest sample with
    ten samples above it: the highest percentile the sample supports.
    Below 21 samples that lies under the median; with ten or fewer no
    percentile qualifies, and the median stands in for it."""
    ordered = sorted(samples)
    n = len(ordered)
    mid = statistics.median(ordered)
    return mid, ordered[n - 11] if n > 10 else mid, n

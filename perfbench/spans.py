"""Span recording and the arithmetic over spans.

A span is a named interval of wall time with a parent (the span that was
open when it began). From a list of spans this module derives self time
(a span minus the part of it its children cover), coverage (how much of the
op windows the top-level spans account for), the tail percentile of a set of
op latencies and the tracing overhead. It knows nothing about crackfuse.
"""
from __future__ import annotations

import bisect
import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int   # index of the enclosing span in Recorder.spans, -1 at top level
    start: float
    end: float


class Recorder:
    """Keeps spans and counters in memory, in the order they began."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: list[tuple[float, str, float]] = []  # (time, name, amount)
        self._open: list[int] = []  # indices of open spans, innermost last

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, self.clock(), float("nan")))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close span idx and any span begun inside it that is still open.

        An inner span is left open when an exception or a generator that was
        never exhausted skipped its end; it ends together with its parent.
        """
        if idx not in self._open:
            return
        now = self.clock()
        while self._open:
            top = self._open.pop()
            self.spans[top].end = now
            if top == idx:
                return

    def is_open(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._open)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, amount: float) -> None:
        self.counts.append((self.clock(), name, amount))


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [
        (s.end - s.start)
        - covered_length([(spans[c].start, spans[c].end) for c in children[i]], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def roots(spans: list[Span]) -> list[int]:
    """Index of the top-level ancestor of each span."""
    out = []
    for i, s in enumerate(spans):
        # parents precede children, so the parent's root is already known
        out.append(i if s.parent < 0 else out[s.parent])
    return out


def totals_by_name(spans: list[Span], keep) -> dict[str, tuple[float, float, int]]:
    """(total time, total self time, span count) per name over the spans i with keep[i]."""
    selfs = self_times(spans)
    out: dict[str, tuple[float, float, int]] = {}
    for s, own, k in zip(spans, selfs, keep):
        if k:
            tot, sf, n = out.get(s.name, (0.0, 0.0, 0))
            out[s.name] = (tot + (s.end - s.start), sf + own, n + 1)
    return out


def coverage(spans: list[Span], windows) -> float:
    """Share of the total length of the op windows covered by top-level spans."""
    top = sorted((s.start, s.end) for s in spans if s.parent < 0)
    starts = [a for a, _ in top]
    total = sum(b - a for a, b in windows)
    if total <= 0.0:
        return 0.0
    covered = 0.0
    for a, b in windows:
        # top-level spans do not overlap, so only the one begun before a can reach into it
        first = max(bisect.bisect_left(starts, a) - 1, 0)
        last = bisect.bisect_right(starts, b)
        covered += covered_length(top[first:last], a, b)
    return covered / total


def in_windows(times, windows) -> list[bool]:
    """For each time, whether it falls inside one of the sorted [start, end] windows."""
    starts = [a for a, _ in windows]
    out = []
    for t in times:
        i = bisect.bisect_right(starts, t) - 1
        out.append(i >= 0 and t <= windows[i][1])
    return out


def tail_percentile(samples, beyond: int = 10):
    """The highest nearest-rank percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples above). With too few samples for
    that, the maximum is returned as percentile 100 with what lies above it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for k in range(n - 1 - beyond, -1, -1):
        above = n - bisect.bisect_right(xs, xs[k])
        if above >= beyond:
            return xs[k], 100.0 * (k + 1) / n, above
    return xs[-1], 100.0, 0


def overhead(untraced_rate: float, traced_rate: float) -> float:
    """Share of throughput lost to tracing: 1 - traced / untraced."""
    return 1.0 - traced_rate / untraced_rate

"""Span recording, self time and percentile helpers for the match benchmark.

Spans are recorded from outside the program: public functions are replaced
by wrappers at the name the caller looks up (``mapfuse.matcher.build_subgraph``,
not ``mapfuse.path_search.build_subgraph``), so tracing needs no change to
the library. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at the root
    trajectory: str | None  # id of the trajectory being matched, if any
    note: object = None     # per-call quantity, e.g. how many items came back


class Tracer:
    """Records a span for every call of each patched function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trajectory: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args,
             note: Callable | None = None, trajectory_arg: bool = False, **kwargs):
        """Call ``fn`` inside a span; ``note(args, result)`` annotates the span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer = self._trajectory
        if trajectory_arg:
            self._trajectory = args[1].id   # (self, trajectory, ...)
        span = Span(name, 0.0, 0.0, parent, self._trajectory)
        self.spans.append(span)
        self._stack.append(index)
        try:
            span.start = perf_counter()
            result = fn(*args, **kwargs)
            span.end = perf_counter()
        finally:
            self._stack.pop()
            self._trajectory = outer
        if note is not None:
            span.note = note(args, result)
        return result

    def patch(self, owner, attr: str, name: str, *, note: Callable | None = None,
              trajectory_arg: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, note=note,
                             trajectory_arg=trajectory_arg, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class NullTracer:
    """Stand-in for an untraced run: calls straight through."""

    def call(self, name: str, fn: Callable, *args, note=None, trajectory_arg=False, **kwargs):
        return fn(*args, **kwargs)

    def restore(self) -> None:
        pass


@dataclass
class Layer:
    """All spans of one name: call count, total and self time, notes."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    notes: list = field(default_factory=list)


def summarize(spans: Sequence[Span]) -> dict[str, Layer]:
    """Spans grouped by name."""
    out: dict[str, Layer] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = out.setdefault(span.name, Layer())
        layer.calls += 1
        layer.total_s += span.end - span.start
        layer.self_s += own
        if span.note is not None:
            layer.notes.append(span.note)
    return out


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in children.get(i, ())]
        covered = union_length([(s, e) for s, e in clipped if e > s])
        out.append(span.end - span.start - covered)
    return out


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)   # highest first


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n: int, p: float) -> int:
    """How many of n sorted samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_CANDIDATES with at least ten of n samples beyond it."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= 10:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the smallest value with p% at or below it)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]

"""Tests of the benchmark's own helpers: tail percentile choice and self time.

    python3 -m pytest matchbench
"""
import types

import pytest

from spans import (Span, Tracer, percentile, samples_beyond, self_times, summarize,
                   tail_percentile, union_length)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(999) == 95.0          # p99 would leave only 9 beyond
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))             # 1..100, unsorted
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]) == 3.0
    assert union_length([(1.0, 2.0), (2.0, 4.0)]) == 3.0


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 3.0, 0, None),
        Span("b", 2.0, 5.0, 0, None),     # overlaps a: covered 1..5
        Span("c", 7.0, 8.0, 0, None),
        Span("c.child", 7.25, 7.75, 3, None),  # a grandchild only counts for its parent
        Span("late", 9.0, 12.0, 0, None),  # clipped to the parent's end
    ]
    assert self_times(spans) == [10.0 - 4.0 - 1.0 - 1.0, 2.0, 3.0, 0.5, 0.5, 3.0]


def test_summarize_groups_by_name():
    spans = [Span("x", 0.0, 4.0, None, None, note=2),
             Span("y", 1.0, 2.0, 0, None),
             Span("x", 5.0, 6.0, None, None, note=3)]
    layers = summarize(spans)
    assert layers["x"].calls == 2 and layers["x"].total_s == 5.0
    assert layers["x"].self_s == 4.0 and layers["x"].notes == [2, 3]
    assert layers["y"].calls == 1


def test_tracer_patches_where_the_caller_looks_up_and_restores():
    def inner(n):
        return list(range(n))

    module = types.SimpleNamespace(inner=inner)

    class Caller:
        def outer(self, trajectory):
            return module.inner(3)

    tracer = Tracer()
    tracer.patch(module, "inner", "inner", note=lambda a, r: len(r))
    tracer.patch(Caller, "outer", "outer", trajectory_arg=True)
    assert Caller().outer(types.SimpleNamespace(id="t1")) == [0, 1, 2]
    tracer.restore()
    assert module.inner is inner and Caller().outer(None) == [0, 1, 2]

    outer, inner_span = tracer.spans
    assert (outer.name, outer.parent, outer.trajectory) == ("outer", None, "t1")
    assert (inner_span.name, inner_span.parent, inner_span.trajectory) == ("inner", 0, "t1")
    assert inner_span.note == 3
    assert outer.start <= inner_span.start <= inner_span.end <= outer.end

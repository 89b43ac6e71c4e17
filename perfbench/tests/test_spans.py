"""Span, self-time, coverage and percentile arithmetic on synthetic spans.

Run from the repository root: python3 -m pytest perfbench/tests
"""
import json
import os

import pytest

import spans as sp


class FakeClock:
    """A clock that reads the times it is given, in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_nested_spans_get_parents_and_self_time():
    rec = sp.Recorder(FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    outer = rec.begin("outer")
    a = rec.begin("a")
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(outer)
    assert [s.parent for s in rec.spans] == [-1, 0, 0]
    # outer lasts 10, its children cover 2 + 0.5
    assert sp.self_times(rec.spans) == pytest.approx([7.5, 2.0, 0.5])
    assert sp.roots(rec.spans) == [0, 0, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [sp.Span("p", -1, 0.0, 10.0), sp.Span("c1", 0, 1.0, 5.0),
             sp.Span("c2", 0, 4.0, 6.0), sp.Span("c3", 0, 9.0, 12.0)]
    # union of children clipped to the parent: [1, 6] and [9, 10]
    assert sp.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_end_closes_inner_spans_left_open():
    rec = sp.Recorder(FakeClock(0.0, 1.0, 5.0))
    outer = rec.begin("outer")
    rec.begin("inner")       # never ended, as when an exception skips its end
    rec.end(outer)
    assert [(s.start, s.end) for s in rec.spans] == [(0.0, 5.0), (1.0, 5.0)]
    assert not rec.is_open("inner")
    rec.end(outer)            # ending twice is harmless
    assert rec.spans[0].end == 5.0


def test_span_context_and_counts():
    rec = sp.Recorder(FakeClock(0.0, 2.0, 3.0))
    with rec.span("x"):
        assert rec.is_open("x")
    rec.count("flop", 4.0)
    assert (rec.spans[0].start, rec.spans[0].end) == (0.0, 2.0)
    assert rec.counts == [(3.0, "flop", 4.0)]


def test_totals_by_name_sums_selected_spans():
    spans = [sp.Span("f", -1, 0.0, 2.0), sp.Span("g", 0, 0.5, 1.0),
             sp.Span("f", -1, 3.0, 4.0), sp.Span("f", -1, 5.0, 9.0)]
    totals = sp.totals_by_name(spans, [True, True, True, False])
    assert totals["f"] == pytest.approx((3.0, 2.5, 2))
    assert totals["g"] == pytest.approx((0.5, 0.5, 1))


def test_covered_length_merges_and_clips():
    assert sp.covered_length([(0, 2), (1, 3), (5, 6), (8, 20)], 1, 10) == pytest.approx(2 + 1 + 2)
    assert sp.covered_length([], 0, 1) == 0.0


def test_coverage_of_op_windows_by_top_level_spans():
    spans = [sp.Span("a", -1, 0.0, 4.0), sp.Span("child", 0, 1.0, 2.0),
             sp.Span("b", -1, 4.5, 5.0), sp.Span("c", -1, 9.0, 11.0)]
    windows = [(0.0, 5.0), (10.0, 12.0)]
    # covered: [0,4] + [4.5,5] in the first window, [10,11] in the second, of 7
    assert sp.coverage(spans, windows) == pytest.approx(5.5 / 7.0)
    assert sp.coverage(spans, []) == 0.0


def test_in_windows():
    windows = [(0.0, 1.0), (2.0, 3.0)]
    assert sp.in_windows([-1.0, 0.0, 0.5, 1.5, 3.0, 3.5], windows) == [
        False, True, True, False, True, False]
    assert sp.in_windows([1.0], []) == [False]


@pytest.mark.parametrize("n, value, pct", [
    (100, 89, 90.0),    # x[89]: 10 samples above it
    (11, 0, 100 / 11),  # the smallest sample is the only one with 10 above
    (30, 19, 200 / 3),
])
def test_tail_percentile_keeps_ten_samples_above(n, value, pct):
    samples = list(range(n))[::-1]          # order does not matter
    got, got_pct, above = sp.tail_percentile(samples)
    assert (got, above) == (value, 10)
    assert got_pct == pytest.approx(pct)


def test_tail_percentile_with_ties_and_few_samples():
    # ties at the candidate rank: 9.0 has only nine samples strictly above it
    samples = [1.0] * 5 + [9.0] * 3 + [10.0] * 9
    assert sp.tail_percentile(samples) == (1.0, pytest.approx(100 * 5 / 17), 12)
    assert sp.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        sp.tail_percentile([])


def test_overhead():
    assert sp.overhead(100.0, 95.0) == pytest.approx(0.05)
    assert sp.overhead(100.0, 100.0) == 0.0


def test_benchmark_json_names_metrics_the_runs_report():
    import report
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"]:
        assert m["name"] in report.END_TO_END
        assert m["unit"] == report.unit_of(m["name"])
    known = set(report.layer_names())
    for m in bench["per_layer"]:
        assert m["name"] in known
        assert m["unit"] == report.unit_of(m["name"])

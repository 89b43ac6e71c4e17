import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def _traced(fn, make_input):
    """fn(make_input())'s output, then the tracemalloc bytes it keeps alive
    and the peak of the call, both above the bytes held before it. The input
    is made inside the count, so whatever of it only the output holds counts
    too (a layer's input is often a temporary of the layer before)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(make_input())
        held, peak = tracemalloc.get_traced_memory()
        return out, held - base, peak - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def retained_bytes():
    """measure(fn, make_input) -> (output, vjp, bytes): the bytes that the
    output and vjp of fn(make_input()) keep alive, counted by tracemalloc."""
    def measure(fn, make_input):
        (y, vjp), held, _peak = _traced(fn, make_input)
        return y, vjp, held

    return measure


@pytest.fixture
def peak_bytes():
    """measure(fn, make_input) -> (output, bytes): fn(make_input())'s output
    and the tracemalloc peak of the call."""
    def measure(fn, make_input):
        out, _held, peak = _traced(fn, make_input)
        return out, peak

    return measure

import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def retained_bytes():
    """measure(fn, make_input) -> (output, vjp, bytes): the bytes that the
    output and vjp of fn(make_input()) keep alive, counted by tracemalloc.
    The input is made inside the count, so whatever of it only the vjp holds
    counts too (a layer's input is often a temporary of the layer before)."""
    def measure(fn, make_input):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y, vjp = fn(make_input())
            return y, vjp, tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    return measure

import os
import sys
import tracemalloc

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from crackfuse import ssm  # noqa: E402  (after the path above)


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
    """measure(fn, make_input) -> (output, bytes, held): fn(make_input())'s
    output, the tracemalloc peak of the call and the bytes it left allocated."""
    def measure(fn, make_input):
        out, held, peak = _traced(fn, make_input)
        return out, peak, held

    return measure


class Recurrence:
    """One case of the recurrence fixture, entered as `with recurrence:`.
    Inside the block the model's scan runs the case's recurrence: the
    sequential one it always runs (seq), or the Blelloch scan put under that
    one's name, ssm.linear_recurrence_seq (par). The scan looks the name up at
    call time, so a sharded batch's worker thread runs the swap too, and a
    vjp runs its forward's recurrence even after the block."""

    def __init__(self, name):
        self.name = name
        self._patch = pytest.MonkeyPatch()

    def __enter__(self):
        if self.name == "par":
            self._patch.setattr(ssm, "linear_recurrence_seq", ssm.linear_recurrence_par)
        return self

    def __exit__(self, *exc):
        self._patch.undo()


@pytest.fixture
def recurrence(request):
    """A Recurrence: the case a test parametrizes indirectly, "seq" or
    "par", or else par, the Blelloch scan that the model's is checked against."""
    return Recurrence(getattr(request, "param", "par"))

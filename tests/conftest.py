import mmap
import tracemalloc

import pytest


def _unpruned_backward(tape, loss):
    """backward() with every node marked as needing an adjoint: the full
    adjoint pass that the pruned one must match bit for bit."""
    saved = tape._needs_grad
    tape._needs_grad = [True] * len(saved)
    try:
        return tape.backward(loss)
    finally:
        tape._needs_grad = saved


@pytest.fixture
def unpruned_backward():
    return _unpruned_backward


@pytest.fixture
def peak_bytes(monkeypatch):
    """``peak_bytes(fn)``: the traced heap peak of ``fn()`` plus the size of
    every memory mapping it opened, which tracemalloc does not see.  So
    neither a heap array nor a mapped one escapes the count."""
    mapped = []
    real = mmap.mmap

    def counting(fileno, length, *args, **kwargs):
        mapped.append(length)
        return real(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", counting)

    def measure(fn):
        mapped.clear()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()

    return measure

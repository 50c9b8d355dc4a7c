import mmap

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


def _mapping_of(a):
    """The mmap an array's memory lives in, or None."""
    while a is not None and not isinstance(a, mmap.mmap):
        a = a.obj if isinstance(a, memoryview) else getattr(a, "base", None)
    return a


@pytest.fixture
def mapping_of():
    return _mapping_of

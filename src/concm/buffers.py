"""Row arrays in their own anonymous memory mappings.

The arrays whose size grows with a row count (an augmentation epoch, the
rows of an evaluation, their projection) are mapped one by one instead of
taken from the heap.  A mapping is returned to the system when the last
view of it dies, so a freed array is neither kept resident by the heap nor
raises its mmap threshold for the next one.
"""

from __future__ import annotations

import mmap

import numpy as np


def mapped_rows(rows: int, d: int) -> np.ndarray:
    """An uninitialized (rows, d) float64 array in its own anonymous mapping.

    The mapping lives as long as some view of the array does.  A failed
    mapping is a MemoryError.
    """
    nbytes = rows * d * 8
    try:
        buf = mmap.mmap(-1, max(nbytes, 1))
    except OSError as exc:
        raise MemoryError(f"cannot map {nbytes} bytes for a {rows} x {d} "
                          f"array: {exc}") from exc
    return np.frombuffer(buf, np.float64, count=rows * d).reshape(rows, d)

"""Deterministic random streams.

Every random draw in the package flows from a single master seed through
named substreams.  Substream keys are hashed with SHA-256, so the stream a
component sees depends only on (master seed, labels), not on call order
elsewhere in the program.  Each substream is an SFC64 generator, and
Gaussian variates come from numpy's ziggurat (``standard_normal``), so
sampled bytes are identical across process runs on the same numpy build.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ShapeError

__all__ = ["derive_seed", "stream", "gaussian"]

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, *labels) -> int:
    """Derive a child seed from a master seed and a tuple of labels.

    Labels may be ints or strings; they are folded into a SHA-256 digest so
    that distinct label tuples give independent streams.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def stream(master: int, *labels) -> np.random.Generator:
    """An SFC64 generator seeded with the named substream's derived seed."""
    return np.random.Generator(np.random.SFC64(derive_seed(master, *labels)))


def gaussian(gen: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal draws from numpy's ziggurat (``standard_normal``).

    One generator state gives the same bytes on the same numpy build.
    With ``out`` (C-contiguous float64 with ``shape``'s size) the draws are
    written into it in place and ``out`` is returned.
    """
    if out is None:
        return gen.standard_normal(shape)
    n = shape if isinstance(shape, int) else math.prod(shape)
    if out.size != n or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"gaussian: out must be C-contiguous float64 of size {n}")
    gen.standard_normal(out=out)
    return out

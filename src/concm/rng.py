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

import numpy as np

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
    With ``out`` the draws are written into it in place and ``out`` is
    returned.  numpy rejects an ``out`` of another shape (ValueError) or
    dtype (TypeError) and a non-contiguous one (ValueError); a Fortran-
    ordered ``out``, which numpy would fill transposed, is rejected here.
    """
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("gaussian: out must be C-contiguous")
    return gen.standard_normal(shape, out=out)

"""Deterministic random streams.

Every random draw in the package flows from a single master seed through
named substreams.  Substream keys are hashed with SHA-256, so the stream a
component sees depends only on (master seed, labels), not on call order
elsewhere in the program.  Gaussian variates use Box-Muller over a Philox
counter-based generator, which keeps sampled bytes identical across
platforms and process runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ShapeError

__all__ = ["derive_seed", "stream", "gaussian", "uniform", "permutation", "choice"]

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
    """A Philox generator for the named substream."""
    return np.random.Generator(np.random.Philox(key=derive_seed(master, *labels)))


def uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws in [0, 1) as 64-bit floats."""
    return gen.random(shape, dtype=np.float64)


def gaussian(gen: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal draws via Box-Muller on Philox uniforms.

    The first half of the values is r cos(theta) and the rest r sin(theta).
    With ``out`` (C-contiguous float64 with ``shape``'s size) the draws are
    written into it in place and ``out`` is returned.
    """
    n = int(np.prod(shape)) if shape else 1
    if out is None:
        out = np.empty(shape)
    elif out.size != n or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"gaussian: out must be C-contiguous float64 of size {n}")
    flat = out.reshape(-1)
    half = (n + 1) // 2
    # r = sqrt(-2 log u1), with u1 in (0, 1] so that log() is finite
    r = flat[:half]
    gen.random(dtype=np.float64, out=r)
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = uniform(gen, half)
    theta *= 2.0 * np.pi
    rest = flat[half:]
    np.sin(theta[:rest.size], out=rest)
    rest *= r[:rest.size]
    r *= np.cos(theta, out=theta)
    return out


def permutation(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.permutation(n)


def choice(gen: np.random.Generator, n: int, size: int, replace: bool = False) -> np.ndarray:
    return gen.choice(n, size=size, replace=replace)

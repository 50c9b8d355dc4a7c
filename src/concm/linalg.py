"""Dense linear-algebra kernels: input validation and a compact SVD.

The SVD is LAPACK's, through ``np.linalg.svd``; its factors depend on the
numpy/BLAS build, like every matmul.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return m


def svd_compact(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD of a d x n matrix with d >= n.

    Returns (w, lam, v) with w: d x n column-orthonormal, lam: length-n
    singular values sorted descending, v: n x n orthogonal, such that
    w @ diag(lam) @ v.T reconstructs the input.

    Raises InvalidInput for non-finite or non-2-D input or d < n.
    """
    a = as_matrix(m)
    d, n = a.shape
    if d < n:
        raise InvalidInput(f"svd_compact requires d >= n, got {d} x {n}")
    w, lam, vt = np.linalg.svd(a, full_matrices=False)
    return w, lam, vt.T
